"""Exact 0/1 knapsack tables and the follower-response solver.

The follower's reaction to a fixed leader vector is computed in a single
knapsack call with lexicographically combined profits: the primary term
ranks by follower profit, the secondary term breaks ties by leader profit
(maximized in optimistic mode, minimized in pessimistic mode). Its table
at capacity r also holds the reply at every r' < r, so one
`follower_response` is the reply table `blkp.exact` and `blkp.search`
read. A reader that needs no residual below some r0 says so
(`min_residual`), and a dense row then fills only the cells a residual
from r0 up can reach.

Two tables are built: `at_most_table`, the best selection weighing at
most c (a reply table, `knapsack_max`), and `best_of_each_weight`, the
best selection of each exact weight (the exact oracle's leader). Each
takes one of two forms, and `_use_list` picks the cheaper from the item
count n and the capped row length (`table_form` asks it):

- Dense: the DP row over capacities and its n x length take table
  (`knapsack_row`, `RowTable`). Its cost grows with the capacity.
- List: all 2^n selections k = sum(x_i * 2^i), item 0 the lowest bit,
  with their weights and profits summed in int64 (`ListTable`). Its
  cost does not depend on the capacity. It is used only while it has no
  more entries than the dense table.

Both forms answer with the same bits. The DP keeps a cell on a tie and
reads back from the last item, so at every capacity it returns the best
selection with the smallest k; the list ranks the selections by value
descending, then k ascending, with stable sorts.

One rule sizes every table, `table_form`, run once per table before any
int64 sum is formed. It refuses weights whose sum, each clipped to the
capacity + 1, passes int64 (`OverflowRiskError`), in either form. It
then picks the form and refuses a dense table whose cells, the
n * (min(capacity, W) + 1) it allocates, pass `MAX_DP_CELLS`
(`DpTooLarge`). A list is refused by nothing else: it holds n * 2^n
entries, n <= 14, whatever the capacity. The builders then refuse a
profit sum past int64 (`OverflowRiskError`). The CLI asks `table_form`
the same question up front, so no other module restates a cell count.

A dense row is only as long and as wide as the values it can hold:

- Length: no selection weighs more than its items' total weight W, so a
  row stops at capacity min(capacity, W). A capacity above W reads the
  last cell; there every item fits, and the value and the read-back
  selection are those of any larger capacity.
- Width: a row is int32 when every value it can hold fits, otherwise
  int64. Values read out of a row are widened to int64 before any sum.

`knapsack_row` is the only code that builds a row, once `table_form` has
picked the dense form and sized the table: it decides the length, the
width and the initial values, and runs the recurrence in place through
one scratch row, so an item allocates nothing. Given a lowest capacity,
it skips the cells no capacity from there up reads; the table keeps its
shape.

A take table is read back two ways: `walk` follows one capacity with
Python scalar lookups (a reply, `knapsack_max`), and `trace` follows many
capacities at once, one vectorised step per item (the exact oracle's pool).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .instance import binary_vector

INT32_MAX = np.iinfo(np.int32).max
INT64_MAX = np.iinfo(np.int64).max

# Largest dense DP table (items x capped capacities) any one table allocates:
# 1e8 cells is about 100 MB of take table. The limit is per table, so a
# solve that holds two tables, as `blkp.exact` does, holds at most 2e8 cells.
MAX_DP_CELLS = 10 ** 8


class Mode(str, Enum):
    OPTIMISTIC = "optimistic"
    PESSIMISTIC = "pessimistic"


class OverflowRiskError(ValueError):
    """Combined profits would not fit a 64-bit accumulator."""


class InfeasibleLeader(ValueError):
    """The leader's selection alone exceeds the knapsack capacity."""


class DpTooLarge(ValueError):
    """A dense DP table would exceed MAX_DP_CELLS."""


@dataclass
class FollowerResponse:
    """The follower's reply at a residual, and the reply table below it.

    `reply(r)` and `leader_profit(r)` answer every integer residual r in
    [min_residual, residual_capacity], in either form, and `leader_profit`
    an array of them too; any other r, a float, a bool or an array given
    to `reply` among them, raises ValueError.
    """

    z_star: int
    leader_value: int
    mode: Mode
    residual_capacity: int
    min_residual: int                  # the lowest residual the table answers
    m: int                             # the lexicographic multiplier M
    table: RowTable | ListTable = field(repr=False)  # combined values over the follower items

    @property
    def y(self) -> np.ndarray:
        """The tie-broken reply at the response's own residual, read when asked for."""
        return self.reply(self.residual_capacity)

    def reply(self, r: int) -> np.ndarray:
        """The tie-broken reply y at residual capacity min_residual <= r <= residual_capacity."""
        r = _check_residual("r", r, self.min_residual, self.residual_capacity, scalar=True)
        return self.table.selection(int(r))

    def leader_profit(self, r):
        """L(r) = d2 . reply(r) at a residual r, or an int64 array of them, from the table."""
        r = _check_residual("r", r, self.min_residual, self.residual_capacity)
        return tie_break_profit(self.table.values(r), self.m, self.mode)


def _check_residual(name: str, r, lo: int, hi: int, scalar: bool = False):
    """r, refused with ValueError naming it unless it holds signed integers in [lo, hi].

    A Python int in range, the common case, is returned as it is, without
    numpy; anything else as an array: a numpy signed integer or, unless
    one `scalar` is needed, an array of them passes, a float, a bool or an
    unsigned integer does not.
    """
    if type(r) is int and lo <= r <= hi:
        return r
    a = np.asarray(r)
    if a.dtype.kind == "i" and not (scalar and a.ndim) and (
            not a.size or lo <= a.min() and a.max() <= hi):
        return a
    raise ValueError(f"{name} must lie in [{lo}, {hi}] and be an integer, got {r}")


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
    recurrence forms fits either way. A profit sum past int64 raises
    OverflowRiskError; the size of the table is left to `table_form`,
    which the two tables run before they build a row.
    """
    profits, weights = profits.tolist(), weights.tolist()
    total, rest = sum(profits), sum(weights)
    if total > INT64_MAX:
        raise OverflowRiskError("sum of profits exceeds the 64-bit accumulator bound")
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


# The most items a subset list is built for; `_use_list` refuses more. The
# cache of `subsets` then holds fewer than 14 * 2^15 int64 entries, 3.5 MiB.
LIST_MAX_ITEMS = 14

# `_use_list`'s cost model, in microseconds and nanoseconds
_LIST_US, _LIST_NS = 13.0, 7.5  # fixed, and per entry of the n x 2^n bit matrix
_ROW_US, _ROW_NS = 5.0, 0.5     # per item, and per cell of the take table


@lru_cache(maxsize=None)  # bounded: n <= LIST_MAX_ITEMS
def subsets(n: int) -> np.ndarray:
    """The read-only (2^n, n) int64 0/1 matrix whose row k holds the bits of k, item 0 lowest."""
    k = np.arange(2 ** n, dtype=np.int64)
    bits = (k[:, None] >> np.arange(n)) & 1
    bits.flags.writeable = False
    return bits


def _use_list(n: int, length: int) -> bool:
    """Whether a table over n items and `length` capped capacities is built as a subset list.

    A list costs about 13 us + 7.5 ns * n * 2^n and a dense row about
    n * (5 us + 0.5 ns * length), fitted to the build and reads of both
    table kinds (numpy 2.4.6, Python 3.11, 2 vCPUs, best of 7 rounds).
    Measured crossovers, in cells per selection (length / 2^n) from which
    the list is the faster form, and the crossover of this rule:

        n     at most c    exactly c    this rule
        6     below 1      below 1      every allowed length
        8     below 1      below 1      every allowed length
        10    about 3      about 2      7.8
        12    about 8      about 12     13.1
        14    about 10     about 14     14.5

    At n = 8 and 4096 cells, for example, the list takes 24 and 26 us and
    the row 49 and 74 us. The list's n x 2^n bit matrix must also have no
    more entries than the dense take table (2^n <= length), and n stays
    within LIST_MAX_ITEMS.
    """
    if n > LIST_MAX_ITEMS or 2 ** n > length:
        return False
    return _LIST_US + _LIST_NS * n * 2 ** n / 1e3 < n * (_ROW_US + _ROW_NS * length / 1e3)


def table_form(weights, capacity: int):
    """(whether the table is a list, its capped capacity) for items `weights` up to capacity.

    The one size rule of every table, run once per table. The capped
    capacity is min(capacity, sum(weights)): no selection weighs more.

    - Weights whose sum, each clipped to capacity + 1, passes int64 raise
      OverflowRiskError, in either form: the list sums them in int64.
    - `_use_list` picks the form.
    - A list (n <= LIST_MAX_ITEMS) is refused by nothing else.
    - A dense table allocates n * (capped + 1) cells; past MAX_DP_CELLS
      it raises DpTooLarge, naming n and the cells.
    """
    n, rest = len(weights), sum(weights.tolist())
    if rest > INT64_MAX and sum(min(w, capacity + 1) for w in weights.tolist()) > INT64_MAX:
        raise OverflowRiskError("sum of weights clipped to the capacity exceeds the 64-bit range")
    capacity = min(capacity, rest)
    as_list = _use_list(n, capacity + 1)
    if not as_list and n * (capacity + 1) > MAX_DP_CELLS:
        raise DpTooLarge(f"DP table for n={n} items up to capacity {capacity} needs "
                         f"{n * (capacity + 1)} cells, above the budget of {MAX_DP_CELLS:.0e}")
    return as_list, capacity


def _subset_sums(profits, weights, capacity: int):
    """The int64 weight and profit sums of every selection k, in the order of `subsets`.

    An item heavier than the capacity fits in no selection; clipped to
    capacity + 1 it still fits in none. At capacity INT64_MAX, where
    capacity + 1 has no int64, no weight is heavier and none is clipped.
    `table_form` has bounded the clipped weight sum within int64, and the
    profit sum is refused past it here.
    """
    if sum(profits.tolist()) > INT64_MAX:
        raise OverflowRiskError("sum of profits exceeds the 64-bit accumulator bound")
    bits = subsets(len(weights))
    return bits @ np.minimum(weights, min(capacity + 1, INT64_MAX)), bits @ profits


@dataclass
class RowTable:
    """A dense DP row and its take table: values read by index, selections by `walk`."""

    row: np.ndarray      # best profits at capacities 0..min(capacity, sum(weights))
    take: np.ndarray     # (n, len(row)) take table
    weights: np.ndarray

    @property
    def entries(self) -> int:
        return self.take.size

    def values(self, caps):
        """The int64 best profits at capacities caps, a scalar or an array."""
        return self.row[np.minimum(caps, len(self.row) - 1)].astype(np.int64)

    def selection(self, cap: int) -> np.ndarray:
        """The int64 best selection at one capacity."""
        return walk(self.take, self.weights, min(cap, len(self.row) - 1))


@dataclass
class ListTable:
    """Every selection, best first: the best one weighing at most c is the first that fits.

    `order` ranks the selections k by profit descending, then k ascending,
    and lightest[j] is the least weight among order[:j + 1]. It never
    rises, so the first rank holding a selection that fits c is the first j
    with lightest[j] <= c: a binary search over -lightest, which ascends.
    """

    order: np.ndarray          # every k, best first
    profits: np.ndarray        # int64 profit of order[j]
    minus_lightest: np.ndarray  # -lightest[j], ascending
    n: int

    @property
    def entries(self) -> int:
        return len(self.order)

    def values(self, caps):
        """The int64 best profits at capacities caps, a scalar or an array."""
        return self.profits[self.minus_lightest.searchsorted(-caps)]

    def selection(self, cap: int) -> np.ndarray:
        """The int64 best selection at one capacity."""
        return subsets(self.n)[self.order[self.minus_lightest.searchsorted(-cap)]].copy()


def at_most_table(profits, weights, capacity: int, min_capacity: int = 0):
    """The best selection weighing at most c, and its profit, for every c up to capacity.

    `table_form` sizes it and picks the form: a `RowTable`, the row of
    `knapsack_row` promised for c >= min_capacity alone, or a `ListTable`,
    which answers every c.
    Of the best selections at c, both return the one with the smallest k.
    """
    as_list, capped = table_form(weights, capacity)
    if as_list:
        w_sum, p_sum = _subset_sums(profits, weights, capped)
        order = np.argsort(-p_sum, kind="stable")
        return ListTable(order, p_sum[order], -np.minimum.accumulate(w_sum[order]), len(weights))
    row, take = knapsack_row(profits, weights, capped, min_capacity=min_capacity)
    return RowTable(row, take, weights)


def best_of_each_weight(profits, weights, capacity: int):
    """Each weight up to capacity that a selection reaches, its best profit and selection.

    Returns (weights, profits, selections, entries): the reached weights in
    ascending order (int64), the best profit of each (int64), the first
    best selection of each as an (R, n) int8 matrix, and the entries of
    the table built. `table_form` sizes it and picks the form: the
    exact-weight row of `knapsack_row` read back by `trace`, or the subset
    list sorted by weight, then profit descending, then k ascending, whose
    first entry per weight is the best selection with the smallest k, as
    traced.
    """
    as_list, capped = table_form(weights, capacity)
    if as_list:
        w_sum, p_sum = _subset_sums(profits, weights, capped)
        order = np.lexsort((-p_sum, w_sum))
        w_sorted = w_sum[order]
        first = np.empty(len(order), dtype=bool)
        first[0] = True
        np.not_equal(w_sorted[1:], w_sorted[:-1], out=first[1:])
        first &= w_sorted <= capped
        best = order[first]
        return (w_sorted[first], p_sum[best], subsets(len(weights))[best].astype(np.int8),
                len(order))
    row, take = knapsack_row(profits, weights, capped, exact_weight=True)
    reached = np.flatnonzero(row >= 0)
    return reached, row[reached].astype(np.int64), trace(take, weights, reached), take.size


def knapsack_max(profits, weights, capacity: int):
    """Exact 0/1 knapsack maximization.

    Returns (optimal value, 0/1 selection). Of the optimal selections the
    one with the smallest k = sum(x_i * 2^i) is returned, so the selection
    is deterministic.
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
    capacity = min(capacity, INT64_MAX)  # reads as any larger one: every sum int64 holds fits
    table = at_most_table(profits, weights, capacity)
    return int(table.values(capacity)), table.selection(capacity)


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
    (`reply(r)`, `leader_profit(r)`), from a dense row or a subset list
    (`at_most_table`); a dense row skips the cells only a lower residual
    would read, and a lower r raises ValueError in either form.
    """
    mode = Mode(mode)
    x_bar = binary_vector(x_bar, inst.n1, "x_bar")
    residual = inst.b - int(inst.a1 @ x_bar)
    if residual < 0:
        raise InfeasibleLeader(f"leader weight exceeds capacity by {-residual}")
    min_residual = int(_check_residual("min_residual", min_residual, 0, residual, scalar=True))

    combined, m = combined_profits(inst, mode)
    table = at_most_table(combined, inst.a2, residual, min_residual)
    best = int(table.values(residual))  # M * z* +- the d2 sum of the reply
    z_star = best // m if mode is Mode.OPTIMISTIC else -(-best // m)
    return FollowerResponse(
        z_star=z_star,
        leader_value=int(inst.d1 @ x_bar) + tie_break_profit(best, m, mode),
        mode=mode, residual_capacity=residual, min_residual=min_residual, m=m, table=table)


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
