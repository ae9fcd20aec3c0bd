"""Unfused reference ops for the fused `ndiff` ops' tests.

`ndiff.linear(x, w, b, act)` is `ACTIVATE[act](add_bias(matmul(x, w), b))`,
and `ndiff.pair_linear` is the same over pair rows gathered with
`take_rows`. `ndiff.bce_mean` is `unfused_bce_mean`, a chain of clamp,
log, constant scaling and sum nodes. The library runs only the fused
forms, so these single ops live here, written without its helpers, with
`tsum` and `mul_const` to probe gradients and `add` to sum reference
losses.
"""

import numpy as np

from blkp.ndiff import BCE_EPS, Tensor


def _unary(a: Tensor, out, da) -> Tensor:
    t = Tensor(out, parents=(a,))
    t._backward = lambda g: a._accumulate(da(g))
    return t


def matmul(x: Tensor, w: Tensor) -> Tensor:
    t = Tensor(x.data @ w.data, parents=(x, w))

    def back(g):
        x._accumulate(g @ w.data.T)
        w._accumulate(x.data.T @ g)

    t._backward = back
    return t


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x plus the bias vector b added to every row."""
    t = Tensor(x.data + b.data, parents=(x, b))

    def back(g):
        x._accumulate(g)
        b._accumulate(g.sum(axis=0))

    t._backward = back
    return t


def take_rows(t: Tensor, rows) -> Tensor:
    """Rows of t picked by index, in order; a row may be picked any number of times."""
    rows = np.asarray(rows, dtype=np.intp)
    out = Tensor(t.data[rows], parents=(t,))

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
    t = Tensor(a.data + b.data, parents=(a, b))

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
    return _unary(t, np.where(t.data <= 0, 0.0, t.data), lambda g: g * mask)


def leaky_relu(t: Tensor) -> Tensor:
    factor = np.where(t.data > 0, 1.0, 0.01)
    return _unary(t, t.data * factor, lambda g: g * factor)


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
