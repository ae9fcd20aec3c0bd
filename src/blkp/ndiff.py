"""Minimal reverse-mode autodiff over dense float64 arrays.

Everything runs on plain arrays, as a forward that returns what its
backward reads and a backward that adds the weights' gradients:
- `Mlp.run`/`Mlp.grad`: an MLP stack, each layer `act(x @ w + b)`, whose
  weights and gradients are views into two flat buffers. With
  a pair index, the first layer reads the row [own[i]; other[j]] of
  every own-major (i, j) pair of a graph union without forming it: each
  node is projected once and the projections are expanded to the pairs.
  The gradient at the other rows sums the pairs in the index's
  transpose order, computed once per union shape. A run that keeps no
  record for `grad` computes each layer in place, with the same bits;
- `pool`/`pool_grad`: the network's one pooling of each run of
  consecutive rows (`Segments`, one per node's messages, of any mix of
  lengths): the `AGGREGATORS` mean, max and min at each of the
  `SCALERS`, scaler-major, written into the caller's array (the
  update's input, in `pnanet`). The rows are gathered once into a
  block, row j of every segment side by side: max and min reduce the
  block along its first axis, and their backward finds each winning row
  by one more reduction along that axis (`_first_match`). The mean
  stays on `np.add.reduceat`: the block's padding rows would enter a sum;
- `bce_mean(predictions, positives, totals)`: the mean binary
  cross-entropy of label counts, the whole training loss, and its
  gradient at the predictions.
Each activation's forward and gradient rule is defined once, in
`ACTIVATIONS`; relu and leaky relu take an `np.maximum`, as `np.where`
with scalar operands is a slow path. `Adam` steps the flat weight
buffer from the flat gradient buffer in a handful of vector operations.

A `Tensor` is a computed array and its reverse pass: the pass
(`pnanet.forward_tensor`, the training loss) sends the gradient at the
array on to the weights, adding into their gradient buffer in an order
its author fixed; `backward()` runs it once from a scalar.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("data", "_backward")

    def __init__(self, data, backward=None):
        """`backward(g)`, if given, is the reverse pass from the gradient g at data."""
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim > 2:
            raise ValueError("rank > 2 tensors are not supported")
        self._backward = backward

    def backward(self):
        """Run the reverse pass from a scalar tensor, adding the weights' gradients."""
        if self.data.size != 1:
            raise ValueError("backward requires a scalar tensor")
        if self._backward is None:
            raise ValueError("backward needs a tensor with a reverse pass")
        self._backward(np.ones_like(self.data))


def _relu(z, out=None):
    # NaN passes through, so an overflowing network yields non-finite output.
    # Which of two equal zeros np.maximum returns is not documented; adding
    # +0.0 maps -0.0 to +0.0 either way and leaves every other value as it is
    out = np.maximum(z, 0.0, out=out)
    out += 0.0
    return out


def _leak(z):
    return np.where(z > 0, 1.0, 0.01)


_EXP_MAX = np.log(np.finfo(np.float64).max)  # the largest x whose exp is finite


def _sigmoid(z, out=None):
    # exp(-z) past _EXP_MAX would overflow, with a warning, to inf and give 0;
    # capped there it gives about 5.6e-309 instead, and every other value's
    # bits are unchanged
    return np.divide(1.0, 1.0 + np.exp(np.minimum(-z, _EXP_MAX)), out=out)


# name -> (forward(z, out=None), grad(g, z, out)): a layer's activation of
# its affine output z, written into out if given (out=z runs it in place),
# and the gradient at z from the gradient g at the output out. Leaky
# relu's maximum ties only where z and 0.01 * z are zeros of one sign.
ACTIVATIONS = {
    "identity": (lambda z, out=None: z, lambda g, z, out: g),
    "relu": (_relu, lambda g, z, out: g * (z > 0)),
    "leaky_relu": (lambda z, out=None: np.maximum(z, 0.01 * z, out=out),
                   lambda g, z, out: g * _leak(z)),
    "sigmoid": (_sigmoid, lambda g, z, out: g * out * (1.0 - out)),
}


class Segments:
    """A partition of a matrix's rows into consecutive non-empty runs.

    `block_rows[j, s]` is the row of x that row j of a `(longest count,
    segments)` block takes: row j of segment s, or its last row past its
    end. Repeating the last row leaves a max or min chain's bits as they
    are, even a signed zero's; repeating the first would not.
    `block_rank[j, 0, 0]` is longest count - j, the rank of block row j
    when the first match wins, in the narrowest unsigned dtype that holds it.
    """

    __slots__ = ("counts", "starts", "rows", "block_rows", "block_rank")

    def __init__(self, counts):
        counts = np.asarray(counts, dtype=np.intp)
        if counts.ndim != 1 or counts.size == 0 or (counts < 1).any():
            raise ValueError("segments need one or more positive row counts")
        self.counts = counts
        self.starts = np.cumsum(counts) - counts
        self.rows = int(counts.sum())
        longest = int(counts.max())
        self.block_rows = self.starts + np.minimum(np.arange(longest)[:, None], counts - 1)
        self.block_rank = np.arange(longest, 0, -1,
                                    dtype=np.min_scalar_type(longest))[:, None, None]


AGGREGATORS = ("mean", "max", "min")
SCALERS = (1.0, 0.7, 1.0 / 0.7)
_SCALERS = np.array(SCALERS)


def pool(x, seg: Segments, out):
    """Write the network's pooling of x's row segments into `out`; return what `pool_grad` reads.

    A segment's row is its `AGGREGATORS` side by side, repeated at each of
    the `SCALERS` (1, a, 1/a) times that scaler, scaler-major: [mean, max,
    min, a*mean, a*max, a*min, mean/a, max/a, min/a]. `out` is the
    caller's (segments, pooled width) array or view whose rows each lie
    contiguous, as a column slice's do: the scaled copies are written
    through a (segments, scaler, 3 * width) view of it. The mean stays on
    `np.add.reduceat`: the block's padding rows would enter a sum. Max and
    min reduce x's rows gathered once into the block `x[seg.block_rows]`,
    which `pool_grad` reads with the two extremes.
    """
    block = x.take(seg.block_rows, axis=0)
    w = x.shape[1]
    mean, hi, lo = out[:, :w], out[:, w:2 * w], out[:, 2 * w:3 * w]
    np.add.reduceat(x, seg.starts, axis=0, out=mean)
    np.divide(mean, seg.counts[:, None], out=mean)
    np.maximum.reduce(block, axis=0, out=hi)
    np.minimum.reduce(block, axis=0, out=lo)
    # (segments, scaler, aggregator columns), a view: base times 1.0 is base
    scaled = out.reshape(len(out), len(SCALERS), -1)
    np.multiply(scaled[:, :1], _SCALERS[1:, None], out=scaled[:, 1:])
    return block, hi, lo


def pool_grad(g, x, saved, seg: Segments):
    """The gradient at x from the gradient g at `pool`'s output; `saved` is pool's."""
    block, hi, lo = saved
    width = x.shape[1]
    g_base = _SCALERS @ g.reshape(len(seg.counts), len(_SCALERS), -1)
    grad = np.zeros_like(x)
    grad += np.repeat(g_base[:, :width] / seg.counts[:, None], seg.counts, axis=0)
    segments, columns = np.arange(len(seg.counts))[:, None], np.arange(width)
    for k, extreme in ((1, hi), (2, lo)):
        # the extreme's winning row gets the gradient; one row per segment
        # and column, so += adds every entry
        j = _first_match(block, extreme, seg)
        grad[seg.block_rows[j, segments], columns] += g_base[:, k * width:(k + 1) * width]
    return grad


def _first_match(block, extreme, seg: Segments):
    """The first row j of `pool`'s block equal to the extreme, per segment and column.

    Ties thus go to the segment's first row. The first match has the largest
    `block_rank` among the matches, and a reduction along the block's first
    axis finds it without the transposed copy that argmax there makes. A
    NaN extreme equals no row: its largest rank is 0, and row (longest - 0)
    % longest = 0 is the segment's first.
    """
    longest = len(seg.block_rows)
    return (longest - np.maximum.reduce((block == extreme) * seg.block_rank, axis=0)) % longest


BCE_EPS = 1e-7


def bce_mean(predictions, positives, totals):
    """Mean binary cross-entropy of K_i labels per prediction h_i, and its gradient at h.

    BCE is linear in the label, so the K_i labels of row i are scored
    through their sum S_i (`positives`), with K_i from `totals` (one count
    per row, or one for all rows):
    -sum_i [S_i log h_i + (K_i - S_i) log(1 - h_i)] / sum_i K_i.
    Predictions are clamped to [eps, 1 - eps] before the logarithm, and
    a clamped prediction gets no gradient.
    """
    shape = predictions.shape
    s = np.asarray(positives, dtype=np.float64).reshape(shape)
    k = np.asarray(totals, dtype=np.float64)
    k = np.broadcast_to(k.reshape(shape) if k.ndim else k, shape)
    negatives = k - s
    g_sum = -1.0 / k.sum()
    h = np.clip(predictions, BCE_EPS, 1.0 - BCE_EPS)
    inside = h == predictions
    terms = np.log(h) * s + np.log(1.0 - h) * negatives
    return g_sum * terms.sum(), ((g_sum * s) / h - (g_sum * negatives) / (1.0 - h)) * inside


class Mlp:
    """Fully-connected stack: affine layers, each with its activation (`ACTIVATIONS`).

    `run` and `grad` are its forward and backward on arrays. Its weights
    and their gradients are views into two zeroed flat buffers of
    `size(widths)` values, `flat` and `grad`, layer by layer, weight then
    bias. The weights are drawn into `flat`, and `grad` adds into
    `grads`, the views of the gradient buffer.
    """

    def __init__(self, widths, activations, rng: np.random.Generator, flat, grad):
        if len(activations) != len(widths) - 1:
            raise ValueError("need one activation per affine layer")
        self.layers, self.grads = [], []
        lo = 0
        for fan_in, fan_out, act in zip(widths[:-1], widths[1:], activations):
            mid, hi = lo + fan_in * fan_out, lo + (fan_in + 1) * fan_out
            w, gw = (a[lo:mid].reshape(fan_in, fan_out) for a in (flat, grad))
            bound = np.sqrt(1.0 / fan_in)
            w[...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            self.layers.append((w, flat[mid:hi], act))  # the bias stays zero
            self.grads.append((gw, grad[mid:hi]))
            lo = hi

    @staticmethod
    def size(widths):
        """The number of weights and biases of a stack of these widths."""
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(widths[:-1], widths[1:]))

    def run(self, x, pairs=None, keep=True):
        """The stack's output on the array x, and each layer's (input, z, output) for `grad`.

        With `pairs` (as `graphrep.own_major_pairs` gives them), x is
        (own, other) and the first layer reads [own[i]; other[j]] of every
        own-major pair without forming it: w splits by rows at k = own's
        width, each node is projected once, and the projections are
        repeated over own row i's segment and gathered by other row.
        Without `keep` it returns None for the record, and each layer's
        activation overwrites its z: one array per layer, and the same bits.
        """
        acts = [] if keep else None
        for i, (w, b, act) in enumerate(self.layers):
            if pairs is not None and i == 0:
                (own, other), (other_rows, seg) = x, pairs[:2]
                k = own.shape[1]
                z = np.repeat(own @ w[:k], seg.counts, axis=0)
                z += (other @ w[k:]).take(other_rows, axis=0)
            else:
                z = x @ w
            z += b
            out = ACTIVATIONS[act][0](z, None if keep else z)
            if keep:
                acts.append((x, z, out))
            x = out
        return x, acts

    def grad(self, g, acts, pairs=None):
        """Add the weights' gradients from g at the output of `run`; return x's.

        With `pairs`, x's gradient is the pair (own's, other's).
        """
        for i in reversed(range(len(acts))):
            (w, _, act), (gw, gb), (x, z, out) = self.layers[i], self.grads[i], acts[i]
            g = ACTIVATIONS[act][1](g, z, out)
            gb += g.sum(axis=0)
            if pairs is not None and i == 0:
                (own, other), (_, seg, by_other, other_starts) = x, pairs
                k = own.shape[1]
                g_own = np.add.reduceat(g, seg.starts, axis=0)
                g_other = np.add.reduceat(g.take(by_other, axis=0), other_starts, axis=0)
                gw[:k] += own.T @ g_own
                gw[k:] += other.T @ g_other
                return g_own @ w[:k].T, g_other @ w[k:].T
            gw += x.T @ g
            g = g @ w.T
        return g

    def state_arrays(self):
        return [(w, b) for w, b, _ in self.layers]

    def load_state_arrays(self, state):
        """Write the weights in place: they are views into the model's buffer."""
        if len(state) != len(self.layers):
            raise ValueError("layer count mismatch")
        for (w, b, _), (wd, bd) in zip(self.layers, state):
            wd = np.asarray(wd, dtype=np.float64)
            bd = np.asarray(bd, dtype=np.float64)
            if wd.shape != w.shape or bd.shape != b.shape:
                raise ValueError(
                    f"shape mismatch: expected {w.shape}/{b.shape}, "
                    f"got {wd.shape}/{bd.shape}")
            w[...] = wd
            b[...] = bd


class Adam:
    """Adam with bias correction; weight decay enters as an L2 gradient term.

    It steps the weights `flat` from their gradients `grad`, two flat
    buffers of one length, in place: a step is a handful of vector
    operations over all of them.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, flat, grad, lr=0.002, weight_decay=1e-6):
        self.flat, self.grad = flat, grad
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)

    def step(self):
        self.step_count += 1
        t = self.step_count
        g = self.grad
        if self.weight_decay:
            g = g + self.weight_decay * self.flat
        self.m = self.BETA1 * self.m + (1 - self.BETA1) * g
        self.v = self.BETA2 * self.v + (1 - self.BETA2) * g * g
        m_hat = self.m / (1 - self.BETA1 ** t)
        v_hat = self.v / (1 - self.BETA2 ** t)
        self.flat -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)
