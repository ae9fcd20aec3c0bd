"""The per-layer reference tape for the library's array forwards and backwards.

`Node` is a `Tensor` with parents and a gradient, and its `backward()`
sorts the tape: the graph machinery the library's explicit reverse
passes replace. A weight enters the tape as a leaf whose gradient adds
into the model's gradient buffer (`leaves`), and a library `Tensor` as a
node carrying its reverse pass (`node`). On
it: `linear(x, w, b, act)`, `pair_linear` (the first message layer over
every pair of a graph union), `concat_cols`, `segment_pna` (the whole
pooling) and `forward_tensor`, the network with one node per layer, 38
for a default forward. The library's half-rounds, MLPs and forward are
checked against these, bit for bit. In turn `linear` is
`ACTIVATE[act](add_bias(matmul(x, w), b))`, and `pair_linear` the same
over pair rows gathered with `take_rows`. `ndiff.bce_mean` is
`unfused_bce_mean`, a chain of clamp, log, constant scaling and sum
nodes. `tsum` and `mul_const` probe gradients and `add` sums reference
losses.

The pooling and the pair gradient keep their earlier arithmetic, apart
from the library's: `AGGREGATORS` reduces by `np.*.reduceat` and finds
each extreme's winning row by a second reduction, and `_sum_picked_rows`
sorts the picked rows afresh on every call. `UnfusedAdam` steps one
parameter array at a time, the reference of `ndiff.Adam`'s flat step.
`where_relu`, `factor_leaky_relu` and `argmax_first_match` are the
earlier formulas of the relu and leaky relu forwards and of the winner
search in `pool`'s gathered block; the tape's `relu` and `leaky_relu`
run the first two.
"""

import numpy as np

from blkp.ndiff import ACTIVATIONS, BCE_EPS, SCALERS, Tensor
from blkp.ndiff import AGGREGATORS as POOL_AGGREGATORS


def _sum_picked_rows(g, rows, n):
    """Gradient of gathering `rows` out of n rows: g's rows summed per picked row."""
    # sum the gradient of every copy of a row, in pick order
    order = np.argsort(rows, kind="stable")
    picked = rows[order]
    firsts = np.flatnonzero(np.diff(picked, prepend=-1))
    grad = np.zeros((n,) + g.shape[1:])
    grad[picked[firsts]] = np.add.reduceat(g[order], firsts, axis=0)
    return grad


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


# name -> (forward(x, seg), add_grad(grad, x, out, g, seg)): each of
# `ndiff.AGGREGATORS` and its gradient rule
AGGREGATORS = {
    "mean": (_mean, _add_mean_grad),
    "max": _extreme(np.maximum, np.less),
    "min": _extreme(np.minimum, np.greater),
}


def where_relu(z):
    return np.where(z <= 0, 0.0, z)


def factor_leaky_relu(z):
    return z * np.where(z > 0, 1.0, 0.01)


def argmax_first_match(block, extreme):
    """The first row of the block equal to the extreme, per column; 0 where none is."""
    return (block == extreme).argmax(axis=0)


class UnfusedAdam:
    """`ndiff.Adam` stepping each parameter array on its own, rebinding it in `params`.

    `grads[i]` is the gradient of `params[i]`.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, grads, lr=0.002, weight_decay=1e-6):
        self.params, self.grads = list(params), list(grads)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]

    def step(self):
        self.step_count += 1
        t = self.step_count
        for i, (p, g) in enumerate(zip(self.params, self.grads)):
            if self.weight_decay:
                g = g + self.weight_decay * p
            self.m[i] = self.BETA1 * self.m[i] + (1 - self.BETA1) * g
            self.v[i] = self.BETA2 * self.v[i] + (1 - self.BETA2) * g * g
            m_hat = self.m[i] / (1 - self.BETA1 ** t)
            v_hat = self.v[i] / (1 - self.BETA2 ** t)
            self.params[i] = p - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


class Node(Tensor):
    """A tensor on the per-layer tape: its parents, its gradient, and a backward that sorts them.

    `backward()` runs every node's `_backward(grad)` once, in reverse
    topological order of a depth-first walk that visits the last parent
    first. A node's gradient is None until the first one reaches it,
    which is copied: it may be a view of another gradient, or be added
    elsewhere too. Given a `grad` array, a leaf adds into it instead.
    """

    __slots__ = ("parents", "grad")

    def __init__(self, data, parents=(), backward=None, grad=None):
        super().__init__(data, backward)
        self.parents = parents
        self.grad = grad

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward requires a scalar tensor")
        topo, seen, stack = [], set(), [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
            elif id(node) not in seen:
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((p, False) for p in getattr(node, "parents", ()))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)


def node(t: Tensor) -> Node:
    """A library tensor on the tape: a node without parents that runs its reverse pass."""
    return Node(t.data, backward=t._backward)


def leaves(mlp):
    """Each layer of the MLP as (weight, bias, activation), the two as tape leaves.

    Their gradients add into the MLP's views of the model's gradient buffer.
    """
    return [(Node(w, grad=gw), Node(b, grad=gb), act)
            for (w, b, act), (gw, gb) in zip(mlp.layers, mlp.grads)]


def _unary(a: Tensor, out, da) -> Node:
    t = Node(out, parents=(a,))
    t._backward = lambda g: a._accumulate(da(g))
    return t


def matmul(x: Tensor, w: Tensor) -> Tensor:
    t = Node(x.data @ w.data, parents=(x, w))

    def back(g):
        x._accumulate(g @ w.data.T)
        w._accumulate(x.data.T @ g)

    t._backward = back
    return t


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x plus the bias vector b added to every row."""
    t = Node(x.data + b.data, parents=(x, b))

    def back(g):
        x._accumulate(g)
        b._accumulate(g.sum(axis=0))

    t._backward = back
    return t


def take_rows(t: Tensor, rows) -> Tensor:
    """Rows of t picked by index, in order; a row may be picked any number of times."""
    rows = np.asarray(rows, dtype=np.intp)
    out = Node(t.data[rows], parents=(t,))

    def back(g):
        grad = np.zeros_like(t.data)
        np.add.at(grad, rows, g)
        t._accumulate(grad)

    out._backward = back
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add of two tensors of one shape."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"cannot add shapes {a.data.shape} and {b.data.shape}")
    t = Node(a.data + b.data, parents=(a, b))

    def back(g):
        a._accumulate(g)
        b._accumulate(g)

    t._backward = back
    return t


def affine_const(t: Tensor, scale: float, shift: float = 0.0) -> Tensor:
    """scale * t + shift with float constants."""
    return _unary(t, scale * t.data + shift, lambda g: scale * g)


def mul_const(t: Tensor, arr) -> Tensor:
    """Elementwise multiply by a constant array."""
    arr = np.asarray(arr, dtype=np.float64)
    return _unary(t, t.data * arr, lambda g: g * arr)


def tsum(t: Tensor) -> Tensor:
    return _unary(t, np.array(t.data.sum()), lambda g: np.full_like(t.data, float(g)))


def log(t: Tensor) -> Tensor:
    return _unary(t, np.log(t.data), lambda g: g / t.data)


def clip(t: Tensor, lo: float, hi: float) -> Tensor:
    inside = (t.data >= lo) & (t.data <= hi)
    return _unary(t, np.clip(t.data, lo, hi), lambda g: g * inside)


def relu(t: Tensor) -> Tensor:
    mask = t.data > 0
    return _unary(t, where_relu(t.data), lambda g: g * mask)


def leaky_relu(t: Tensor) -> Tensor:
    factor = np.where(t.data > 0, 1.0, 0.01)
    return _unary(t, factor_leaky_relu(t.data), lambda g: g * factor)


def sigmoid(t: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-t.data))
    return _unary(t, out, lambda g: g * out * (1.0 - out))


# one unfused op per name of `ndiff.ACTIVATIONS`
ACTIVATE = {"identity": lambda t: t, "relu": relu, "leaky_relu": leaky_relu, "sigmoid": sigmoid}


def bce_sum(predictions: Tensor, positives, totals) -> Tensor:
    """-sum_i [S_i log h_i + (K_i - S_i) log(1 - h_i)] over clamped predictions h."""
    s = np.asarray(positives, dtype=np.float64).reshape(predictions.data.shape)
    k = np.asarray(totals, dtype=np.float64)
    if k.ndim:
        k = k.reshape(predictions.data.shape)
    h = clip(predictions, BCE_EPS, 1.0 - BCE_EPS)
    pos = mul_const(log(h), s)
    neg = mul_const(log(affine_const(h, -1.0, 1.0)), k - s)
    return affine_const(tsum(add(pos, neg)), -1.0)


def unfused_bce_mean(predictions: Tensor, positives, totals) -> Tensor:
    """`bce_sum` divided by the number of label terms, sum_i K_i."""
    terms = np.broadcast_to(np.asarray(totals, dtype=np.float64),
                            np.shape(positives)).sum()
    return affine_const(bce_sum(predictions, positives, totals), 1.0 / terms)


def linear(x: Tensor, w: Tensor, b: Tensor, act: str) -> Tensor:
    """act(x @ w + b) with the bias vector b broadcast over rows, as one node."""
    forward, grad = ACTIVATIONS[act]
    z = x.data @ w.data + b.data
    out = forward(z)
    t = Node(out, parents=(x, w, b))

    def back(g):
        g = grad(g, z, out)
        x._accumulate(g @ w.data.T)
        w._accumulate(x.data.T @ g)
        b._accumulate(g.sum(axis=0))

    t._backward = back
    return t


def concat_cols(tensors) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=1)
    offsets = np.cumsum([0] + [t.data.shape[1] for t in tensors])
    t = Node(out, parents=tuple(tensors))

    def back(g):
        for tt, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            tt._accumulate(g[:, lo:hi])

    t._backward = back
    return t


def pair_linear(own: Tensor, other: Tensor, pairs, w: Tensor, b: Tensor, act: str) -> Tensor:
    """act([own[i]; other[j]] @ w + b) for every own-major (i, j) pair, as one node.

    `pairs` is `graphrep.own_major_pairs`; this reads its first two
    arrays, (other_rows, seg). Each node is projected once by its part of
    w, and the projections are expanded to the pairs.
    """
    forward, grad = ACTIVATIONS[act]
    other_rows, seg = pairs[:2]
    k = own.data.shape[1]
    w_own, w_other = w.data[:k], w.data[k:]
    z = (np.repeat(own.data @ w_own, seg.counts, axis=0)
         + (other.data @ w_other)[other_rows] + b.data)
    out = forward(z)
    t = Node(out, parents=(own, other, w, b))

    def back(g):
        g = grad(g, z, out)
        g_own = np.add.reduceat(g, seg.starts, axis=0)
        g_other = _sum_picked_rows(g, other_rows, other.data.shape[0])
        own._accumulate(g_own @ w_own.T)
        other._accumulate(g_other @ w_other.T)
        w._accumulate(np.concatenate([own.data.T @ g_own, other.data.T @ g_other]))
        b._accumulate(g.sum(axis=0))

    t._backward = back
    return t


def segment_pna(t: Tensor, seg, aggregators, scalers) -> Tensor:
    """Multi-aggregator pooling of each segment of t's rows, scaler-major, as one node."""
    if t.data.ndim != 2 or t.data.shape[0] != seg.rows:
        raise ValueError(f"segments cover {seg.rows} rows, tensor has shape {t.data.shape}")
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


def mlp_apply(mlp, x: Tensor, layers=None) -> Tensor:
    """The MLP (or its `layers`, as `leaves` gives them) as one `linear` node per layer."""
    for w, b, act in leaves(mlp) if layers is None else layers:
        x = linear(x, w, b, act)
    return x


def mlp_on_pairs(mlp, own: Tensor, other: Tensor, pairs) -> Tensor:
    """The MLP over the row [own[i]; other[j]] of every own-major pair, via `pair_linear`."""
    (w, b, act), *rest = leaves(mlp)
    return mlp_apply(mlp, pair_linear(own, other, pairs, w, b, act), rest)


def half_round(own, other, pairs, params, block, extra=()) -> Tensor:
    """`pnanet`'s half-round as six nodes."""
    msgs = mlp_on_pairs(params.mlps["msg_" + block], own, other, pairs)
    agg = segment_pna(msgs, pairs[1], POOL_AGGREGATORS, SCALERS)
    return mlp_apply(params.mlps["upd_" + block], concat_cols([own, *extra, agg]))


def forward_tensor(graph, params, inputs=None) -> Tensor:
    """`pnanet.forward_tensor` on the per-layer tape.

    `inputs` are the four input constants (leader and follower features,
    their capacity columns), made here when not given.
    """
    if inputs is None:
        inputs = network_inputs(graph)
    lf, ff, cap_l, cap_f = inputs
    rounds = params.cfg.iterations
    x = half_round(lf, ff, graph.leader_pairs, params, "leader_enc", (cap_l,))
    if rounds:
        y = half_round(ff, lf, graph.follower_pairs, params, "follower_enc", (cap_f,))
    for r in range(rounds):
        x_next = half_round(x, y, graph.leader_pairs, params, "leader_mp")
        if r < rounds - 1:
            y = half_round(y, x, graph.follower_pairs, params, "follower_mp")
        x = x_next
    return mlp_apply(params.mlps["decoder"], x)


def network_inputs(graph):
    """The four input constants of a forward, as tape leaves."""
    return (Node(graph.leader_feats), Node(graph.follower_feats),
            Node(np.repeat(graph.cap_feats, graph.n1s)[:, None]),
            Node(np.repeat(graph.cap_feats, graph.n2s)[:, None]))
