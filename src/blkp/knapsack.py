"""Exact 0/1 knapsack DP and the follower-response solver.

The follower's reaction to a fixed leader vector is computed in a single
knapsack call with lexicographically combined profits: the primary term
ranks by follower profit, the secondary term breaks ties by leader profit
(maximized in optimistic mode, minimized in pessimistic mode). Its DP
at capacity r also holds the reply at every r' < r: cell c reads only
cells <= c, and an item heavier than r' writes only cells above r'. So
one `follower_response` is the reply table `blkp.exact` and `blkp.search` read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .instance import binary_vector

INT64_MAX = np.iinfo(np.int64).max

# Largest DP table (items x capacity cells) any solver here allocates:
# 1e8 cells is about 100 MB of take table.
MAX_DP_CELLS = 10 ** 8


class Mode(str, Enum):
    OPTIMISTIC = "optimistic"
    PESSIMISTIC = "pessimistic"


class OverflowRiskError(ValueError):
    """Combined profits would not fit a 64-bit accumulator."""


class InfeasibleLeader(ValueError):
    """The leader's selection alone exceeds the knapsack capacity."""


class DpTooLarge(ValueError):
    """A DP table would exceed MAX_DP_CELLS."""


@dataclass
class FollowerResponse:
    y: np.ndarray
    z_star: int
    leader_value: int
    mode: Mode
    residual_capacity: int
    leader_profits: np.ndarray  # L(r) = d2 . reply(r), for r = 0..residual_capacity
    take: np.ndarray = field(repr=False)     # (n2, residual_capacity + 1) DP take table
    weights: np.ndarray = field(repr=False)  # a2

    def reply(self, r: int) -> np.ndarray:
        """The tie-broken reply y at residual capacity r <= residual_capacity."""
        if not 0 <= r <= self.residual_capacity:
            raise ValueError(f"r must lie in [0, {self.residual_capacity}]")
        return trace(self.take, self.weights, [r])[0].astype(np.int64)


def check_dp_size(n: int, capacity: int) -> None:
    """Refuse a DP over n items and capacities 0..capacity above the cell budget."""
    if n * (capacity + 1) > MAX_DP_CELLS:
        raise DpTooLarge(f"DP table for n={n} items and capacity b={capacity} needs "
                         f"{n * (capacity + 1):.3g} cells, above the budget of "
                         f"{MAX_DP_CELLS:.0e}")


def knapsack_row(profits, weights, row: np.ndarray) -> np.ndarray:
    """The 0/1 knapsack recurrence, in place over row[0..capacity].

    On entry row[c] is the value of capacity c with no items (zeros for
    "weight at most c", a negative sentinel off row[0] for "weight exactly
    c"); on exit it is the best value over all items. Returns the take
    table: take[i, c] records whether item i improved cell c; ties keep
    the cell, so they are broken toward not taking the item.
    """
    capacity = len(row) - 1
    take = np.zeros((len(weights), capacity + 1), dtype=bool)
    for i, (w, p) in enumerate(zip(weights.tolist(), profits.tolist())):
        if w > capacity:
            continue
        cand = row[: capacity + 1 - w] + p
        better = cand > row[w:]
        row[w:] = np.where(better, cand, row[w:])
        take[i, w:] = better
    return take


def trace(take, weights, caps) -> np.ndarray:
    """The (len(caps), n) int8 selections a take table holds at capacities caps."""
    caps = np.asarray(caps, dtype=np.int64)
    selections = np.zeros((len(caps), len(take)), dtype=np.int8)
    for i, w in reversed(list(enumerate(weights.tolist()))):
        taken = take[i][caps]
        selections[:, i] = taken
        caps = caps - taken * w
    return selections


def knapsack_max(profits, weights, capacity: int):
    """Exact 0/1 knapsack maximization.

    Returns (optimal value, 0/1 selection). Ties inside the DP are broken
    toward not taking an item, so the selection is deterministic.
    """
    profits = np.asarray(profits, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    if profits.shape != weights.shape or profits.ndim != 1:
        raise ValueError("profits and weights must be 1-D arrays of equal length")
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    if (profits < 0).any():
        raise ValueError("profits must be non-negative")
    if (weights < 1).any():
        raise ValueError("weights must be positive")
    if sum(int(p) for p in profits) > INT64_MAX:
        raise OverflowRiskError("sum of profits exceeds the 64-bit accumulator bound")
    check_dp_size(len(profits), capacity)

    dp = np.zeros(capacity + 1, dtype=np.int64)
    take = knapsack_row(profits, weights, dp)
    return int(dp[capacity]), trace(take, weights, [capacity])[0].astype(np.int64)


def combined_profits(inst, mode: Mode):
    """Follower profits M * c_j + sign * d2_j, and M.

    A knapsack over these ranks follower selections by c first and breaks
    ties by the leader profit d2 of the selection, maximized (sign +1,
    optimistic) or minimized (sign -1, pessimistic). M exceeds any
    attainable d2 sum. A per-item offset (e.g. max(d2) - d2) would bias
    the tie-break toward larger selections, so the signed value is used;
    the combined profit stays positive because c_j >= 1 and M > d2_j.
    """
    sign = 1 if mode is Mode.OPTIMISTIC else -1
    m = 1 + sum(int(v) for v in inst.d2)
    combined = [m * int(cj) + sign * int(dj) for cj, dj in zip(inst.c, inst.d2)]
    if sum(combined) > INT64_MAX:
        raise OverflowRiskError("combined lexicographic profits exceed 64-bit range")
    return np.asarray(combined, dtype=np.int64), m


def tie_break_profit(value, m: int, mode: Mode):
    """The d2 sum of a follower selection whose combined value is `value`.

    value = M * z + d2_sum (optimistic) or M * z - d2_sum (pessimistic),
    with 0 <= d2_sum < M: floor division recovers it in the first case,
    ceiling division in the second. Works on ints and int64 arrays.
    """
    return value % m if mode is Mode.OPTIMISTIC else -value % m


def follower_response(inst, x_bar, mode: Mode = Mode.OPTIMISTIC) -> FollowerResponse:
    """Solve the follower's problem for a fixed leader vector.

    Primary objective: maximize follower profit under the residual
    capacity. Among the follower-optimal selections, the leader profit of
    follower items is maximized (optimistic) or minimized (pessimistic).
    Both stages collapse into one knapsack with `combined_profits`. The
    result also answers every residual r up to its own (`reply(r)`).
    """
    mode = Mode(mode)
    x_bar = binary_vector(x_bar, inst.n1, "x_bar")
    residual = inst.b - int(inst.a1 @ x_bar)
    if residual < 0:
        raise InfeasibleLeader(f"leader weight exceeds capacity by {-residual}")
    check_dp_size(inst.n2, residual)

    combined, m = combined_profits(inst, mode)
    row = np.zeros(residual + 1, dtype=np.int64)
    take = knapsack_row(combined, inst.a2, row)
    leader_profits = tie_break_profit(row, m, mode)
    y = trace(take, inst.a2, [residual])[0].astype(np.int64)
    return FollowerResponse(
        y=y, z_star=int(inst.c @ y),
        leader_value=int(inst.d1 @ x_bar) + int(leader_profits[residual]),
        mode=mode, residual_capacity=residual, leader_profits=leader_profits,
        take=take, weights=inst.a2)


@dataclass
class BilevelEvaluation:
    bilevel_feasible: bool
    rational_and_mode_consistent: bool
    leader_obj: int
    follower_obj: int


def evaluate_bilevel(inst, x, y, mode: Mode = Mode.OPTIMISTIC) -> BilevelEvaluation:
    """Judge a candidate (x, y) pair.

    Feasible: shared capacity holds and y attains the follower's optimal
    profit. Consistent: additionally y matches the mode's tie-break
    optimum on the leader profit of follower items.
    """
    x = binary_vector(x, inst.n1, "x")
    y = binary_vector(y, inst.n2, "y")
    leader_obj = int(inst.d1 @ x) + int(inst.d2 @ y)
    follower_obj = int(inst.c @ y)
    weight = int(inst.a1 @ x) + int(inst.a2 @ y)
    if weight > inst.b:
        return BilevelEvaluation(False, False, leader_obj, follower_obj)
    resp = follower_response(inst, x, mode)
    feasible = follower_obj == resp.z_star
    consistent = feasible and int(inst.d2 @ y) == int(inst.d2 @ resp.y)
    return BilevelEvaluation(feasible, consistent, leader_obj, follower_obj)
