"""Minimal reverse-mode autodiff over dense float64 arrays.

Rank <= 2 tensors, exactly the operations the graph network needs:
affine layers, pointwise activations, column concatenation, a row
gather (`take_rows`) that forms the leader-follower pairs of a batch of
graphs, and mean/max/min reductions over consecutive row segments
(`Segments`, one per node's messages, of any mix of lengths) built on
`np.add/maximum/minimum.reduceat`. Plus binary cross-entropy and Adam.

Gradients accumulate additively, so a tensor may feed several downstream
ops.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim > 2:
            raise ValueError("rank > 2 tensors are not supported")
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        """Reverse-mode accumulation from a scalar tensor."""
        if self.data.size != 1:
            raise ValueError("backward requires a scalar tensor")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    def zero_grad(self):
        self.grad = None


def _binary(a: Tensor, b: Tensor, out, da, db) -> Tensor:
    t = Tensor(out, parents=(a, b))

    def back(g):
        a._accumulate(da(g))
        b._accumulate(db(g))

    t._backward = back
    return t


def _unary(a: Tensor, out, da) -> Tensor:
    t = Tensor(out, parents=(a,))
    t._backward = lambda g: a._accumulate(da(g))
    return t


def matmul(x: Tensor, w: Tensor) -> Tensor:
    return _binary(x, w, x.data @ w.data,
                   lambda g: g @ w.data.T,
                   lambda g: x.data.T @ g)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; b may be a bias vector broadcast over rows."""
    out = a.data + b.data

    def reduce_to(g, shape):
        if g.shape == shape:
            return g
        if g.ndim == 2 and shape == (g.shape[1],):
            return g.sum(axis=0)
        raise ValueError(f"cannot reduce gradient {g.shape} to {shape}")

    return _binary(a, b, out,
                   lambda g: reduce_to(g, a.data.shape),
                   lambda g: reduce_to(g, b.data.shape))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError("elementwise mul requires matching shapes")
    return _binary(a, b, a.data * b.data,
                   lambda g: g * b.data,
                   lambda g: g * a.data)


def affine_const(t: Tensor, scale: float, shift: float = 0.0) -> Tensor:
    """scale * t + shift with float constants."""
    return _unary(t, scale * t.data + shift, lambda g: scale * g)


def mul_const(t: Tensor, arr) -> Tensor:
    """Elementwise multiply by a constant array."""
    arr = np.asarray(arr, dtype=np.float64)
    return _unary(t, t.data * arr, lambda g: g * arr)


def relu(t: Tensor) -> Tensor:
    # NaN passes through, so an overflowing network yields non-finite output
    mask = t.data > 0
    return _unary(t, np.where(t.data <= 0, 0.0, t.data), lambda g: g * mask)


def leaky_relu(t: Tensor, slope: float = 0.01) -> Tensor:
    factor = np.where(t.data > 0, 1.0, slope)
    return _unary(t, t.data * factor, lambda g: g * factor)


def sigmoid(t: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-t.data))
    return _unary(t, out, lambda g: g * out * (1.0 - out))


def log(t: Tensor) -> Tensor:
    return _unary(t, np.log(t.data), lambda g: g / t.data)


def clip(t: Tensor, lo: float, hi: float) -> Tensor:
    inside = (t.data >= lo) & (t.data <= hi)
    return _unary(t, np.clip(t.data, lo, hi), lambda g: g * inside)


def concat_cols(tensors) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=1)
    widths = [t.data.shape[1] for t in tensors]
    offsets = np.cumsum([0] + widths)
    t = Tensor(out, parents=tuple(tensors))

    def back(g):
        for tt, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            tt._accumulate(g[:, lo:hi])

    t._backward = back
    return t


def take_rows(t: Tensor, rows) -> Tensor:
    """Rows of t picked by index, in order; a row may be picked any number of times."""
    rows = np.asarray(rows, dtype=np.intp)

    def back(g):
        # sum the gradient of every copy of a row, in pick order
        order = np.argsort(rows, kind="stable")
        picked = rows[order]
        firsts = np.flatnonzero(np.diff(picked, prepend=-1))
        grad = np.zeros_like(t.data)
        grad[picked[firsts]] = np.add.reduceat(g[order], firsts, axis=0)
        return grad

    return _unary(t, np.take(t.data, rows, axis=0), back)


class Segments:
    """A partition of a matrix's rows into consecutive non-empty runs."""

    __slots__ = ("counts", "starts", "rows")

    def __init__(self, counts):
        counts = np.asarray(counts, dtype=np.intp)
        if counts.ndim != 1 or counts.size == 0 or (counts < 1).any():
            raise ValueError("segments need one or more positive row counts")
        self.counts = counts
        self.starts = np.cumsum(counts) - counts
        self.rows = int(counts.sum())

    def check(self, t: Tensor):
        if t.data.ndim != 2 or t.data.shape[0] != self.rows:
            raise ValueError(f"segments cover {self.rows} rows, tensor has shape {t.data.shape}")


def segment_mean(t: Tensor, seg: Segments) -> Tensor:
    seg.check(t)
    counts = seg.counts[:, None]
    out = np.add.reduceat(t.data, seg.starts, axis=0) / counts
    return _unary(t, out, lambda g: np.repeat(g / counts, seg.counts, axis=0))


def _segment_extreme(t: Tensor, seg: Segments, reducer, beaten):
    seg.check(t)
    out = reducer.reduceat(t.data, seg.starts, axis=0)

    def back(g):
        # the first row of each segment not beaten by the extreme gets the
        # gradient, so ties go to the first row
        hit = ~beaten(t.data, np.repeat(out, seg.counts, axis=0))
        rows = np.where(hit, np.arange(seg.rows)[:, None], seg.rows)
        first = np.minimum.reduceat(rows, seg.starts, axis=0)
        grad = np.zeros_like(t.data)
        np.put_along_axis(grad, first, g, axis=0)
        return grad

    return _unary(t, out, back)


def segment_max(t: Tensor, seg: Segments) -> Tensor:
    return _segment_extreme(t, seg, np.maximum, np.less)


def segment_min(t: Tensor, seg: Segments) -> Tensor:
    return _segment_extreme(t, seg, np.minimum, np.greater)


SEGMENT_REDUCERS = {
    "mean": segment_mean,
    "max": segment_max,
    "min": segment_min,
}


def tsum(t: Tensor) -> Tensor:
    return _unary(t, np.array(t.data.sum()),
                  lambda g: np.full_like(t.data, float(g)))


BCE_EPS = 1e-7


def bce_counts(predictions: Tensor, positives, totals) -> Tensor:
    """Sum of binary cross-entropy terms of K_i labels per prediction h_i.

    BCE is linear in the label, so the K_i labels of row i are scored
    through their sum S_i (`positives`), with K_i from `totals` (one count
    per row, or one for all rows):
    -sum_i [S_i log h_i + (K_i - S_i) log(1 - h_i)]. Predictions are
    clamped to [eps, 1 - eps] before the logarithm.
    """
    s = np.asarray(positives, dtype=np.float64).reshape(predictions.data.shape)
    k = np.asarray(totals, dtype=np.float64)
    if k.ndim:
        k = k.reshape(predictions.data.shape)
    h = clip(predictions, BCE_EPS, 1.0 - BCE_EPS)
    pos = mul_const(log(h), s)
    neg = mul_const(log(affine_const(h, -1.0, 1.0)), k - s)
    return affine_const(tsum(add(pos, neg)), -1.0)


def bce_sum(predictions: Tensor, labels) -> Tensor:
    """Sum of per-element binary cross-entropy terms over one or more labels.

    `labels` is one label vector or a stack of K of them, each as long as
    `predictions`; the stack is scored through its column sums.
    """
    stack = np.asarray(labels, dtype=np.float64).reshape(-1, predictions.data.size)
    return bce_counts(predictions, stack.sum(axis=0), stack.shape[0])


def bce_loss(predictions: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.size != predictions.data.size:
        raise ValueError("prediction/label length mismatch")
    return affine_const(bce_sum(predictions, labels), 1.0 / labels.size)


class Mlp:
    """Fully-connected stack: affine layers with pointwise activations."""

    ACTIVATIONS = {
        "relu": relu,
        "leaky_relu": leaky_relu,
        "sigmoid": sigmoid,
        "identity": lambda t: t,
    }

    def __init__(self, widths, activations, rng: np.random.Generator):
        if len(activations) != len(widths) - 1:
            raise ValueError("need one activation per affine layer")
        self.widths = list(widths)
        self.activations = list(activations)
        self.layers = []
        for fan_in, fan_out, act in zip(widths[:-1], widths[1:], activations):
            bound = np.sqrt(1.0 / fan_in)
            w = Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            b = Tensor(np.zeros(fan_out))
            self.layers.append((w, b, act))

    def __call__(self, x: Tensor) -> Tensor:
        for w, b, act in self.layers:
            x = add(matmul(x, w), b)
            x = self.ACTIVATIONS[act](x)
        return x

    def parameters(self):
        for w, b, _ in self.layers:
            yield w
            yield b

    def state_arrays(self):
        return [(w.data, b.data) for w, b, _ in self.layers]

    def load_state_arrays(self, state):
        if len(state) != len(self.layers):
            raise ValueError("layer count mismatch")
        for (w, b, _), (wd, bd) in zip(self.layers, state):
            wd = np.asarray(wd, dtype=np.float64)
            bd = np.asarray(bd, dtype=np.float64)
            if wd.shape != w.data.shape or bd.shape != b.data.shape:
                raise ValueError(
                    f"shape mismatch: expected {w.data.shape}/{b.data.shape}, "
                    f"got {wd.shape}/{bd.shape}")
            w.data = wd
            b.data = bd


class Adam:
    """Adam with bias correction; weight decay enters as an L2 gradient term."""

    def __init__(self, params, lr=0.002, beta1=0.9, beta2=0.999,
                 eps=1e-8, weight_decay=1e-6):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.step_count += 1
        t = self.step_count
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1 ** t)
            v_hat = self.v[i] / (1 - self.beta2 ** t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
