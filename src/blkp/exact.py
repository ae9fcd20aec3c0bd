"""Exact bilevel oracle: a two-phase dynamic program.

The follower reacts to the leader only through the residual capacity
r = b - a1 . x (Brotcorne, Hanafi & Mansi, Oper. Res. Lett. 2009):

1. One follower table, `blkp.knapsack.reply_table`, gives for every
   reachable residual r the follower's tie-broken reply and its leader
   profit L(r). No leader weighs more than min(b, W1), W1 the weight of
   the leader items no heavier than b, so the table is asked only for
   the residuals from `lowest_residual` = b - min(b, W1) up.
2. One exact-weight leader table, `blkp.knapsack.best_of_each_weight`,
   gives G(W) = max d1 . x subject to a1 . x = W, and its best vector.

Every reachable leader weight W yields the bilevel value G(W) + L(b - W);
the optimum is the best of them. Each W is at most min(b, W1), so b - W
lies in [`lowest_residual`, b], the table's range, by construction, and
L is read without the range check that `score` makes for outside
callers. The pool holds one entry per reachable weight, the best leader
vector of that weight, best value first. Training labels are the
optimum plus the best vectors of the next k best leader weights, a
definition that depends on the instance alone.

Each table holds only its items no heavier than b.
`blkp.knapsack.table_form` sizes each table on its own, picks its form,
a DP row or a list of all selections, and refuses it (`DpTooLarge`)
past the cell budget; the follower's table is built, and so refused,
first. Both forms give the same bits. The leader row is traced eagerly
by the vectorised `trace`, while a list already holds its best vectors.
So a result holds no table, and the optimum's reply is read from the
follower table once. The bilevel values are summed in int64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import check_int
# follower_response stays bound here: perfbench/tracing.py's patch table wraps it by name
from .knapsack import Mode, best_of_each_weight, follower_response, reply_table  # noqa: F401


@dataclass
class ExactResult:
    opt_x: np.ndarray
    opt_y: np.ndarray
    opt_value: int
    pool: np.ndarray         # (R, n1) int8 leader vectors, one per reachable weight
    pool_values: np.ndarray  # (R,) int64 bilevel values, descending
    node_count: int          # entries of the two tables: row cells or listed selections
    mode: Mode
    proven_optimal = True    # the DP is exact; kept for callers that check it


def lowest_residual(inst) -> int:
    """b - min(b, W), W the weight of the leader items no heavier than b: the least residual."""
    b = inst.b
    return b - min(b, sum([w for w in inst.a1.tolist() if w <= b]))


def solve_exact(inst, mode: Mode = Mode.OPTIMISTIC) -> ExactResult:
    """Bilevel optimum and the per-weight pool; a table costs O(n * b), or O(n * 2^n) as a list.

    The leaders' values G(W) + L(b - W) read L unchecked: every reached
    W <= min(b, W1) leaves a residual in the follower table's range.
    """
    # phase 1: L(r) and the reply for every reachable residual r
    follower = reply_table(inst, mode, lowest_residual(inst))

    # phase 2: G(W) at every reachable leader weight W, ascending
    weights, best_d1, leaders, leader_entries = best_of_each_weight(inst.d1, inst.a1, inst.b)

    # every residual lies in the table's [lowest, b]: the values skip its range check
    values = best_d1 + follower._leader_profit(inst.b - weights)
    order = (-values).argsort(kind="stable")  # ties toward the lighter leader
    pool = leaders.take(order, axis=0)  # faster than leaders[order], the same rows

    return ExactResult(
        opt_x=pool[0].astype(np.int64), opt_y=follower.reply(inst.b - int(weights[order[0]])),
        opt_value=int(values[order[0]]), pool=pool, pool_values=values[order],
        node_count=follower.table.entries + leader_entries, mode=follower.mode)


def collect_labels(result: ExactResult, k: int = 10) -> list:
    """The optimal leader vector plus the best of the next k leader weights.

    Returns (x, leader_value) pairs, best first; fewer when the pool is
    small. A negative or non-integer k raises ValueError.
    """
    check_int("k", k, 0)  # true would run as 1, and 2.5 fail inside the slice
    return list(zip(result.pool[:k + 1], result.pool_values[:k + 1].tolist()))
