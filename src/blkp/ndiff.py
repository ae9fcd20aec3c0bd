"""Minimal reverse-mode autodiff over dense float64 arrays.

Rank <= 2 tensors, the operations the graph network and its loss run:
pointwise activations, column concatenation, constant affine and
elementwise scaling, a sum, the binary cross-entropy of label counts
(`bce_counts`), and Adam. Three fused ops make one tape node each where
the network would otherwise chain several:
- `linear(x, w, b)`: `x @ w + b`, one node per MLP layer;
- `pair_linear(own, other, pairs, w, b)`: the first message layer over
  every (own, other) pair of a graph union, `[own; other] @ w + b`,
  computed by projecting each node once and expanding the projections
  to the pairs;
- `segment_pna(t, seg, aggregators, scalers)`: the whole multi-aggregator
  pooling of each run of consecutive rows (`Segments`, one per node's
  messages, of any mix of lengths), scaler-major, built on
  `np.add/maximum/minimum.reduceat`. Each aggregator's forward and
  gradient rule is defined once, in `AGGREGATORS`.
`add`, an unfused elementwise sum, adds the loss terms.

Gradients accumulate additively, so a tensor may feed several downstream
ops.
"""

from __future__ import annotations

from itertools import accumulate

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
            # a copy: g may be a view of another node's gradient, or be
            # handed to several parents at once
            self.grad = np.array(g, dtype=np.float64)
        else:
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


def _unary(a: Tensor, out, da) -> Tensor:
    t = Tensor(out, parents=(a,))
    t._backward = lambda g: a._accumulate(da(g))
    return t


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with the bias vector b broadcast over rows, as one node."""
    t = Tensor(x.data @ w.data + b.data, parents=(x, w, b))

    def back(g):
        x._accumulate(g @ w.data.T)
        w._accumulate(x.data.T @ g)
        b._accumulate(g.sum(axis=0))

    t._backward = back
    return t


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; b may be a bias vector broadcast over rows."""
    t = Tensor(a.data + b.data, parents=(a, b))

    def reduce_to(g, shape):
        if g.shape == shape:
            return g
        if g.ndim == 2 and shape == (g.shape[1],):
            return g.sum(axis=0)
        raise ValueError(f"cannot reduce gradient {g.shape} to {shape}")

    def back(g):
        a._accumulate(reduce_to(g, a.data.shape))
        b._accumulate(reduce_to(g, b.data.shape))

    t._backward = back
    return t


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


def leaky_relu(t: Tensor) -> Tensor:
    factor = np.where(t.data > 0, 1.0, 0.01)
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
    offsets = list(accumulate((t.data.shape[1] for t in tensors), initial=0))
    t = Tensor(out, parents=tuple(tensors))

    def back(g):
        for tt, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            tt._accumulate(g[:, lo:hi])

    t._backward = back
    return t


def _sum_picked_rows(g, rows, n):
    """Gradient of gathering `rows` out of n rows: g's rows summed per picked row."""
    # sum the gradient of every copy of a row, in pick order
    order = np.argsort(rows, kind="stable")
    picked = rows[order]
    firsts = np.flatnonzero(np.diff(picked, prepend=-1))
    grad = np.zeros((n,) + g.shape[1:])
    grad[picked[firsts]] = np.add.reduceat(g[order], firsts, axis=0)
    return grad


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


def pair_linear(own: Tensor, other: Tensor, pairs, w: Tensor, b: Tensor) -> Tensor:
    """[own[i]; other[j]] @ w + b for every own-major (i, j) pair, as one node.

    `pairs` is (other_rows, seg) as `graphrep.own_major_pairs` gives
    it: the pairs of own row i form the i-th segment of `seg`. The
    layer is affine, so w splits by rows into the own part w[:k] (k =
    own's width) and the other part w[k:]: each node is projected once,
    and the projections are expanded to the pairs, the own side by
    repeating row i over its segment and the other side by gathering
    other_rows.
    """
    other_rows, seg = pairs
    k = own.data.shape[1]
    w_own, w_other = w.data[:k], w.data[k:]
    out = (np.repeat(own.data @ w_own, seg.counts, axis=0)
           + (other.data @ w_other)[other_rows] + b.data)
    t = Tensor(out, parents=(own, other, w, b))

    def back(g):
        g_own = np.add.reduceat(g, seg.starts, axis=0)
        g_other = _sum_picked_rows(g, other_rows, other.data.shape[0])
        own._accumulate(g_own @ w_own.T)
        other._accumulate(g_other @ w_other.T)
        w._accumulate(np.concatenate([own.data.T @ g_own, other.data.T @ g_other]))
        b._accumulate(g.sum(axis=0))

    t._backward = back
    return t


def _mean(x, seg):
    return np.add.reduceat(x, seg.starts, axis=0) / seg.counts[:, None]


def _add_mean_grad(grad, x, out, g, seg):
    grad += np.repeat(g / seg.counts[:, None], seg.counts, axis=0)


def _extreme(reducer, beaten):
    def forward(x, seg):
        return reducer.reduceat(x, seg.starts, axis=0)

    def add_grad(grad, x, out, g, seg):
        # the first row of each segment not beaten by the extreme gets the
        # gradient, so ties go to the first row
        hit = ~beaten(x, np.repeat(out, seg.counts, axis=0))
        rows = np.where(hit, np.arange(seg.rows)[:, None], seg.rows)
        first = np.minimum.reduceat(rows, seg.starts, axis=0)
        grad[first, np.arange(x.shape[1])] += g  # one row per segment and column

    return forward, add_grad


# name -> (forward(x, seg), add_grad(grad, x, out, g, seg)): the segment
# reduction of x's rows, and the step that adds its gradient into grad
AGGREGATORS = {
    "mean": (_mean, _add_mean_grad),
    "max": _extreme(np.maximum, np.less),
    "min": _extreme(np.minimum, np.greater),
}


def segment_pna(t: Tensor, seg: Segments, aggregators, scalers) -> Tensor:
    """Multi-aggregator pooling of each segment of t's rows, as one node.

    Each aggregator (`AGGREGATORS`) reduces a segment to one row; the row
    of a segment is these reductions side by side, repeated once per
    scaler times that scaler, scaler-major. For (mean, max, min) and
    scalers (1, a, 1/a): [mean, max, min, a*mean, a*max, a*min,
    mean/a, max/a, min/a].
    """
    seg.check(t)
    rules = [AGGREGATORS[a] for a in aggregators]
    scalers = np.asarray(scalers, dtype=np.float64)
    width = t.data.shape[1]
    parts = [forward(t.data, seg) for forward, _ in rules]
    base = np.concatenate(parts, axis=1)
    out = (base[:, None, :] * scalers[:, None]).reshape(len(base), -1)

    def back(g):
        g_base = scalers @ g.reshape(len(base), len(scalers), -1)
        grad = np.zeros_like(t.data)
        for k, ((_, add_grad), part) in enumerate(zip(rules, parts)):
            add_grad(grad, t.data, part, g_base[:, k * width:(k + 1) * width], seg)
        return grad

    return _unary(t, out, back)


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
        return self._apply(x, self.layers)

    def on_pairs(self, own: Tensor, other: Tensor, pairs) -> Tensor:
        """The MLP over the row [own[i]; other[j]] of every own-major pair.

        The first layer is `pair_linear`, so the pair rows are never formed.
        """
        (w, b, act), *rest = self.layers
        return self._apply(self.ACTIVATIONS[act](pair_linear(own, other, pairs, w, b)), rest)

    def _apply(self, x: Tensor, layers) -> Tensor:
        for w, b, act in layers:
            x = self.ACTIVATIONS[act](linear(x, w, b))
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

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, lr=0.002, weight_decay=1e-6):
        self.params = list(params)
        self.lr = lr
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
            self.m[i] = self.BETA1 * self.m[i] + (1 - self.BETA1) * g
            self.v[i] = self.BETA2 * self.v[i] + (1 - self.BETA2) * g * g
            m_hat = self.m[i] / (1 - self.BETA1 ** t)
            v_hat = self.v[i] / (1 - self.BETA2 ** t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)
