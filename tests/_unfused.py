"""Unfused reference ops for the fused `ndiff` ops' tests.

`ndiff.linear` is `add(matmul(x, w), b)`, and `ndiff.pair_linear` is the
same over pair rows gathered with `take_rows`. The library runs only the
fused forms, so these two live here, written without its helpers.
"""

import numpy as np

from blkp.ndiff import Tensor


def matmul(x: Tensor, w: Tensor) -> Tensor:
    t = Tensor(x.data @ w.data, parents=(x, w))

    def back(g):
        x._accumulate(g @ w.data.T)
        w._accumulate(x.data.T @ g)

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
