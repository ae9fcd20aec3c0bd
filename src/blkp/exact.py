"""Exact bilevel oracle: a two-phase dynamic program.

The follower reacts to the leader only through the residual capacity
r = b - a1 . x (Brotcorne, Hanafi & Mansi, Oper. Res. Lett. 2009):

1. One follower DP at capacity b, `blkp.knapsack.follower_response` to
   the all-zeros leader, gives for every residual r the follower's
   tie-broken reply and its leader profit L(r).
2. An exact-weight leader DP gives G(W) = max d1 . x subject to a1 . x = W.

Every reachable leader weight W yields the bilevel value G(W) + L(b - W);
the optimum is the best of them. The pool holds one entry per reachable
weight, the best leader vector of that weight, best value first. Training
labels are the optimum plus the best vectors of the next k best leader
weights, a definition that depends on the instance alone.

Both rows are as short and narrow as `blkp.knapsack` makes them. The
follower row spans min(b, sum(a2)) + 1 cells; the leader row spans
min(b, sum(a1)) + 1, since no heavier leader weight is reachable, and is
int32 when its values, -1 - sum(d1) .. sum(d1), fit. The bilevel values
are summed in int64. The pool is traced eagerly by the vectorised
`trace`, so a result holds no take table or DP row; the optimum's reply
is one `walk`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .knapsack import Mode, check_dp_size, follower_response, knapsack_row, row_dtype, trace


@dataclass
class ExactResult:
    opt_x: np.ndarray
    opt_y: np.ndarray
    opt_value: int
    pool: np.ndarray         # (R, n1) int8 leader vectors, one per reachable weight
    pool_values: np.ndarray  # (R,) int64 bilevel values, descending
    node_count: int          # DP cells, n2 * (min(b, sum(a2)) + 1) + n1 * (min(b, sum(a1)) + 1)
    mode: Mode
    proven_optimal = True    # the DP is exact; kept for callers that check it


def solve_exact(inst, mode: Mode = Mode.OPTIMISTIC) -> ExactResult:
    """Bilevel optimum and the per-weight pool in O((n1 + n2) * b)."""
    mode = Mode(mode)
    b = inst.b
    check_dp_size(inst.n1 + inst.n2, b)

    # phase 1: L(r) and the reply for every residual r
    follower = follower_response(inst, np.zeros(inst.n1, dtype=np.int64), mode)

    # phase 2: G(W); unreachable weights stay below zero
    total = sum(inst.d1.tolist())
    best_d1 = np.full(min(b, sum(inst.a1.tolist())) + 1, -1 - total, dtype=row_dtype(total))
    best_d1[0] = 0
    take = knapsack_row(inst.d1, inst.a1, best_d1)

    weights = np.flatnonzero(best_d1 >= 0)
    values = best_d1[weights] + follower.leader_profit(b - weights)
    order = np.argsort(-values, kind="stable")  # ties toward the lighter leader
    pool = trace(take, inst.a1, weights[order])

    return ExactResult(
        opt_x=pool[0].astype(np.int64), opt_y=follower.reply(b - int(weights[order[0]])),
        opt_value=int(values[order[0]]), pool=pool, pool_values=values[order],
        node_count=inst.n2 * len(follower.row) + inst.n1 * len(best_d1), mode=mode)


def collect_labels(result: ExactResult, k: int = 10) -> list:
    """The optimal leader vector plus the best of the next k leader weights.

    Returns (x, leader_value) pairs, best first; fewer when the pool is
    small. A negative k raises ValueError.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return [(x, int(v)) for x, v in zip(result.pool[:k + 1], result.pool_values[:k + 1])]
