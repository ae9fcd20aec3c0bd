"""Exact 0/1 knapsack DP and the follower-response solver.

The follower's reaction to a fixed leader vector is computed in a single
knapsack call with lexicographically combined profits: the primary term
ranks by follower profit, the secondary term breaks ties by leader profit
(maximized in optimistic mode, minimized in pessimistic mode). Its DP
at capacity r also holds the reply at every r' < r: cell c reads only
cells <= c, and an item heavier than r' writes only cells above r'. So
one `follower_response` is the reply table `blkp.exact` and `blkp.search` read.
A reader that needs no residual below some r0 says so (`min_residual`),
and the DP then fills only the cells a residual from r0 up can reach.

Every row is only as long and as wide as the values it can hold:

- Length: no selection weighs more than its items' total weight W, so a
  row stops at capacity min(capacity, W). A capacity above W reads the
  last cell; there every item fits, and the value and the read-back
  selection are those of any larger capacity.
- Width: a row is int32 when every value it can hold fits, otherwise
  int64. Values read out of a row are widened to int64 before any sum.

`knapsack_row` is the only code that builds a row: it decides the length,
the width and the initial values, guards the table size, and runs the
recurrence in place through one scratch row, so an item allocates nothing.
Given a lowest capacity, it skips the cells no capacity from there up
reads; the table keeps its shape.

A take table is read back two ways: `walk` follows one capacity with
Python scalar lookups (a reply, `knapsack_max`), and `trace` follows many
capacities at once, one vectorised step per item (the exact oracle's pool).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .instance import binary_vector

INT32_MAX = np.iinfo(np.int32).max
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
    """The follower's reply at a residual, and the reply table below it.

    `reply(r)` and `leader_profit(r)` answer every residual r in
    [min_residual, residual_capacity]; any other r raises ValueError.
    """

    z_star: int
    leader_value: int
    mode: Mode
    residual_capacity: int
    min_residual: int                        # the lowest residual the table answers
    m: int                                   # the lexicographic multiplier M
    row: np.ndarray = field(repr=False)      # combined DP values, r = 0..min(residual, sum(a2))
    take: np.ndarray = field(repr=False)     # (n2, len(row)) DP take table
    weights: np.ndarray = field(repr=False)  # a2

    @property
    def y(self) -> np.ndarray:
        """The tie-broken reply at the response's own residual, walked when read."""
        return self.reply(self.residual_capacity)

    def reply(self, r: int) -> np.ndarray:
        """The tie-broken reply y at residual capacity min_residual <= r <= residual_capacity."""
        if not self.min_residual <= r <= self.residual_capacity:
            raise ValueError(f"r must lie in [{self.min_residual}, {self.residual_capacity}]")
        return walk(self.take, self.weights, min(r, len(self.row) - 1))

    def leader_profit(self, r):
        """L(r) = d2 . reply(r) at a residual r, or an int64 array of them, from the DP row."""
        r = np.asarray(r)
        if r.size and not (self.min_residual <= r.min() and r.max() <= self.residual_capacity):
            raise ValueError(f"r must lie in [{self.min_residual}, {self.residual_capacity}]")
        value = self.row[np.minimum(r, len(self.row) - 1)].astype(np.int64)
        return tie_break_profit(value, self.m, self.mode)


def check_dp_size(n: int, capacity: int) -> None:
    """Refuse a DP over n items and capacities 0..capacity above the cell budget."""
    if n * (capacity + 1) > MAX_DP_CELLS:
        raise DpTooLarge(f"DP table for n={n} items and capacity b={capacity} needs "
                         f"{n * (capacity + 1):.3g} cells, above the budget of "
                         f"{MAX_DP_CELLS:.0e}")


def knapsack_row(profits, weights, capacity: int, exact_weight: bool = False,
                 min_capacity: int = 0):
    """The 0/1 knapsack DP row over capacities 0..min(capacity, sum(weights)), and its take table.

    row[c] is the best profit of a selection weighing at most c, or, with
    exact_weight, exactly c; a weight no selection reaches keeps the
    sentinel -1 - sum(profits) or a value above it, still below zero.
    take[i, c] records whether item i improved cell c; ties keep the cell,
    so they are broken toward not taking the item.

    Only the cells from min_capacity up, clamped to the capped capacity,
    are promised, and so is a `walk` or `trace` that starts there. Item i
    updates only the cells c >= max(w_i, min_capacity - rest_i), where
    rest_i is the total weight of the items after it: a later item reads
    at most rest_i below its own cell. Cells under that bound keep stale
    values and unset take bits; the default 0 fills every cell.

    The row is int32 when sum(profits) fits, else int64: a zero row holds
    0..sum and an exact-weight row -1 - sum..sum, so every value the
    recurrence forms fits either way. The table is refused by the uncapped
    size len(weights) * (capacity + 1), whatever the cap leaves.
    """
    profits, weights = profits.tolist(), weights.tolist()
    total = sum(profits)
    if total > INT64_MAX:
        raise OverflowRiskError("sum of profits exceeds the 64-bit accumulator bound")
    check_dp_size(len(weights), capacity)
    rest = sum(weights)
    capacity = min(capacity, rest)
    min_capacity = min(min_capacity, capacity)
    dtype = np.int32 if total <= INT32_MAX else np.int64
    row = np.full(capacity + 1, -1 - total if exact_weight else 0, dtype=dtype)
    row[0] = 0
    take = np.zeros((len(weights), capacity + 1), dtype=bool)
    scratch = np.empty(capacity + 1, dtype=dtype)
    for i, (w, p) in enumerate(zip(weights, profits)):
        rest -= w  # the weight of the items after i: the most they read below a cell
        lo = max(w, min_capacity - rest)
        if lo > capacity:
            continue
        cand = scratch[: capacity + 1 - lo]
        np.add(row[lo - w: capacity + 1 - w], p, out=cand)
        np.greater(cand, row[lo:], out=take[i, lo:])
        np.maximum(row[lo:], cand, out=row[lo:])  # equals where(greater): ties hold one value
    return row, take


def walk(take, weights, cap: int) -> np.ndarray:
    """The int64 selection a take table holds at one capacity, read cell by cell."""
    selection = np.zeros(len(take), dtype=np.int64)
    weights = weights.tolist()
    for i in range(len(weights) - 1, -1, -1):
        if take.item(i, cap):
            selection[i] = 1
            cap -= weights[i]
    return selection


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
    row, take = knapsack_row(profits, weights, capacity)
    return int(row[-1]), walk(take, weights, len(row) - 1)


def combined_profits(inst, mode: Mode):
    """Follower profits M * c_j + sign * d2_j, and M.

    A knapsack over these ranks follower selections by c first and breaks
    ties by the leader profit d2 of the selection, maximized (sign +1,
    optimistic) or minimized (sign -1, pessimistic). M exceeds any
    attainable d2 sum. A per-item offset (e.g. max(d2) - d2) would bias
    the tie-break toward larger selections, so the signed value is used;
    the combined profit stays positive because c_j >= 1 and M > d2_j.

    The bound is checked on exact Python-int sums; the profits are then
    formed in int64, where no term can wrap: each is at most the combined
    value, pessimistic ones as M * (c_j - 1) + (M - d2_j).
    """
    d2_sum = sum(inst.d2.tolist())
    m = 1 + d2_sum
    optimistic = mode is Mode.OPTIMISTIC
    if m * sum(inst.c.tolist()) + (d2_sum if optimistic else -d2_sum) > INT64_MAX:
        raise OverflowRiskError("combined lexicographic profits exceed 64-bit range")
    if optimistic:
        return m * inst.c + inst.d2, m
    return m * (inst.c - 1) + (m - inst.d2), m


def tie_break_profit(value, m: int, mode: Mode):
    """The d2 sum of a follower selection whose combined value is `value`.

    value = M * z + d2_sum (optimistic) or M * z - d2_sum (pessimistic),
    with 0 <= d2_sum < M: value mod M recovers it in the first case,
    -value mod M in the second (floor and ceiling division give z).
    Works on ints and int64 arrays.
    """
    return value % m if mode is Mode.OPTIMISTIC else -value % m


def follower_response(inst, x_bar, mode: Mode = Mode.OPTIMISTIC,
                      min_residual: int = 0) -> FollowerResponse:
    """Solve the follower's problem for a fixed leader vector.

    Primary objective: maximize follower profit under the residual
    capacity. Among the follower-optimal selections, the leader profit of
    follower items is maximized (optimistic) or minimized (pessimistic).
    Both stages collapse into one knapsack with `combined_profits`. The
    result also answers every residual r from min_residual up to its own
    (`reply(r)`, `leader_profit(r)`); the DP skips the cells only a lower
    residual would read, and a lower r raises ValueError.
    """
    mode = Mode(mode)
    x_bar = binary_vector(x_bar, inst.n1, "x_bar")
    residual = inst.b - int(inst.a1 @ x_bar)
    if residual < 0:
        raise InfeasibleLeader(f"leader weight exceeds capacity by {-residual}")
    if not 0 <= min_residual <= residual:
        raise ValueError(f"min_residual must lie in [0, {residual}], got {min_residual}")

    combined, m = combined_profits(inst, mode)
    row, take = knapsack_row(combined, inst.a2, residual, min_capacity=min_residual)
    best = int(row[-1])  # M * z* +- the d2 sum of the reply
    z_star = best // m if mode is Mode.OPTIMISTIC else -(-best // m)
    return FollowerResponse(
        z_star=z_star,
        leader_value=int(inst.d1 @ x_bar) + tie_break_profit(best, m, mode),
        mode=mode, residual_capacity=residual, min_residual=min_residual, m=m, row=row,
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
