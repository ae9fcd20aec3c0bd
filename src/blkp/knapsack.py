"""Exact 0/1 knapsack tables and the follower's reply table.

The follower reacts to a leader only through the residual capacity
r = b - a1 . x it leaves (Brotcorne, Hanafi & Mansi, Oper. Res. Lett.
2009), so one table per (instance, mode) answers every leader.
`reply_table(inst, mode, lowest)` builds it as one at-most knapsack over
lexicographically combined profits: the primary term ranks by follower
profit, the secondary term breaks ties by leader profit (maximized in
optimistic mode, minimized in pessimistic mode). Its `ReplyTable`
answers every residual r in [lowest, b] with the reply and its leader
profit L(r), and refuses a residual out of range. The table holds or
fills only the cells a residual from lowest up can reach.
`score_leaders` builds the table for a set of leaders, given by their
d1 and a1 sums, and scores them d1 . x + L(b - a1 . x): the exact
oracle and the search both score through it.
`follower_response` answers one leader with the table of the instance
at capacity r = b - a1 . x, read at r alone.

Two tables are built: `at_most_table`, the best selection weighing at
most c (a reply table, `knapsack_max`), and `best_of_each_weight`, the
best selection of each exact weight (the exact oracle's leader). Each is
one row or a list:

- At most c, the covering row: the table seen from the items a
  selection leaves out (Martello & Toth, *Knapsack Problems*, 1990,
  ch. 2). A selection fits c iff the items it leaves out weigh at least
  W - c, W the kept items' total weight (see below), so the row holds,
  for each removed weight t in 0..top = W - r0, r0 the lowest capacity
  read, the least profit removed, and the best profit at c is the
  profit sum minus row[W - c] (`cover_row`, `CoverTable`).
- Exactly c, the dense row: the DP row over weights 0..min(capacity, W)
  and its n x length take table (`knapsack_row`), read back by `trace`.
- Either kind, the list: all 2^n selections k = sum(x_i * 2^i), item 0
  the lowest bit, with their weights and profits summed in int64
  (`ListTable`). Its cost does not depend on the capacity.

Every table holds only the items no heavier than its capacity: a
heavier one is in no selection that fits. `table_form` drops the others
before the form is chosen and returns the mask of the items kept; every
row and list is built over those items, and each selection holds a 0
for a dropped one.

Every form answers with the same bits: at every capacity, the best
selection with the smallest k. The dense DP keeps a cell on a tie and
reads back from the last item; the covering DP removes the item on a
tie, which is the same choice seen from the other side, and reads back
from the last item too; the list ranks the selections by value
descending, then k ascending, with stable sorts.

One rule sizes every table, `table_form`, run once per table: both
kinds count n kept items of min(W - r0, capped) + 1 take cells each,
capped = min(capacity, W) and r0 the lowest capacity read, 0 for an
exact-weight table. From these, `_use_list` weighs the list against the
row: 1 or 2 items are always a list, and up to LIST_MAX_ITEMS items the
fitted cost alone picks the form. A row whose take table passes
`MAX_DP_CELLS` is refused (`DpTooLarge`, naming its cells). A list is
refused by nothing else: it holds n * 2^n entries, n <= 14, whatever the
capacity. Only the table's builder asks, so no other module restates a
cell count.

Every weight and profit sum a table forms fits int64, refused where raw
numbers enter: `BlkpInstance` bounds the weights and the leader's
profits, `combined_profits` the follower's, and `knapsack_max` the sums
of the items that fit its capacity (`OverflowRiskError`). So the
builders check no sum.

A row's take table is only as long as the cells its items write:

- Dense: no selection weighs more than W, so the row stops at weight
  capped = min(capacity, W).
- Covering: item i writes only its window, the removed weights from
  max(lowest - rest_i, 0) to min(done_i, top), lowest = W - capped,
  rest_i the weight of the items after it and done_i that of items
  0..i. Each window holds at most min(top, capped) + 1 cells, and so
  does each take row, written from column 0. The take table is
  allocated unfilled: a cell past its item's window is never written
  and never read, since the walk back from any capacity the table
  answers stays inside every window. The windows are worked out once,
  before the loop, and the table keeps their starts for the walk. The
  value row spans max(w) + top + 1 cells and is filled once.

A dense row is int32 when every value it can hold fits, otherwise int64;
a covering row, which holds no negative value, is uint32 when its
largest sum fits, otherwise uint64. Values read out of a row are widened
to int64 before any sum. `knapsack_row` and `cover_row` each run the
recurrence in place through one scratch row, so an item allocates
nothing; `cover_row` passes each profit as a scalar of the row's dtype.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .instance import binary_vector, int_vector, integer

INT32_MAX = np.iinfo(np.int32).max
UINT32_MAX = np.iinfo(np.uint32).max
INT64_MAX = np.iinfo(np.int64).max

# Largest take table (items x cells per item) any one DP row allocates:
# 1e8 cells is about 100 MB. The limit is per table, so a solve that holds
# two tables, as `blkp.exact` does, holds at most 2e8 take cells. A
# covering row's value row, max(w) + W - r0 + 1 cells of 4 or 8 bytes, is
# not counted: where the capacity is a small fraction of the weight sum W
# it holds about as many cells as the take table, so such a table can
# take several times the take table's bytes.
MAX_DP_CELLS = 10 ** 8


class Mode(str, Enum):
    OPTIMISTIC = "optimistic"
    PESSIMISTIC = "pessimistic"


class OverflowRiskError(ValueError):
    """Combined profits would not fit a 64-bit accumulator."""


class InfeasibleLeader(ValueError):
    """The leader's selection alone exceeds the knapsack capacity."""


class DpTooLarge(ValueError):
    """A DP row's take table would exceed MAX_DP_CELLS."""


@dataclass
class FollowerResponse:
    """The follower's tie-broken reply y to one leader, its profit and the leader's value."""

    z_star: int        # c . y
    leader_value: int  # d1 . x + d2 . y
    y: np.ndarray


def knapsack_row(profits, weights, capacity: int):
    """The exact-weight DP row over weights 0..capacity, and its take table.

    Every weight is at most the capacity, as `table_form` keeps them.
    row[c] is the best profit of a selection weighing exactly c; a weight
    no selection reaches keeps the sentinel -1 - sum(profits) or a value
    above it, still below zero. take[i, c] records whether item i
    improved cell c; ties keep the cell, so they are broken toward not
    taking the item.

    The row is int32 when sum(profits) fits, else int64: it holds
    -1 - sum..sum, so every value the recurrence forms fits either way.
    The profit sum fits int64, as the callers bound it; the size of the
    table is left to `table_form`, which `best_of_each_weight` runs first.
    """
    profits, weights = profits.tolist(), weights.tolist()
    total = sum(profits)
    dtype = np.int32 if total <= INT32_MAX else np.int64
    row = np.full(capacity + 1, -1 - total, dtype=dtype)
    row[0] = 0
    take = np.zeros((len(weights), capacity + 1), dtype=bool)
    scratch = np.empty(capacity + 1, dtype=dtype)
    for i, (w, p) in enumerate(zip(weights, profits)):
        cand = scratch[: capacity + 1 - w]
        np.add(row[: capacity + 1 - w], p, out=cand)
        np.greater(cand, row[w:], out=take[i, w:])
        np.maximum(row[w:], cand, out=row[w:])  # equals where(greater): ties hold one value
    return row, take


def trace(take, weights, caps) -> np.ndarray:
    """The (len(caps), n) int8 selections a take table holds at capacities caps."""
    caps = np.asarray(caps, dtype=np.int64)
    selections = np.zeros((len(caps), len(take)), dtype=np.int8)
    for i, w in reversed(list(enumerate(weights.tolist()))):
        taken = take[i][caps]
        selections[:, i] = taken
        caps = caps - taken * w
    return selections


def cover_row(profits, weights, capacity: int, min_capacity: int = 0) -> CoverTable:
    """The at-most table for capacities min_capacity..capacity, built over removed weights.

    W is the items' weight sum and capped = min(capacity, W); every
    weight is at most the capacity, as `table_form` keeps them. A
    selection fits c iff the items it leaves out weigh at least W - c, so
    row[t] is the least profit of a removed set weighing at least t, for
    t in 0..top = W - min(min_capacity, capped), and the best profit at c
    is the profit sum - row[max(W - c, 0)].

    take[i, j] records whether removing item i is at least as good as
    keeping it at removed weight lo_i + j: ties remove it, a tie toward
    not taking it. Walked from the last item, the table gives the best
    selection with the smallest k at every c.

    The row starts with a prefix of max(w) zero cells, each weight also
    clipped to top + 1: a cell t < w_i reads row[0] = 0, since removing
    item i alone covers t. Item i then updates its window, the cells t
    from lo_i = max(lowest - rest_i, 0) to min(top, done_i), lowest =
    W - capped, with three in-place ufuncs over one scratch row, as
    `knapsack_row` does. rest_i is the weight of the items after it, the
    most a later item reads below a cell; done_i is the weight of items
    0..i, above which a cell keeps the sentinel and no read-back from a
    capacity in range goes. A window holds at most min(top, capped) + 1
    cells, the take table's width. Every window is worked out before the
    loop, and each profit is passed to `np.add` as a scalar of the row's
    dtype.

    take is allocated unfilled: row i holds item i's window in columns
    0..hi_i - lo_i - 1 and whatever memory held past them. No read-back
    from a capacity in [min_capacity, capacity] reads past a window, so
    no unfilled cell reaches a value or a selection.

    Unreached cells hold the sentinel sum(profits) + 1, so the largest
    sum formed is sum(profits) + 1 + max(profits): the row is uint32
    while that fits, else uint64, which holds it since the profit sum
    fits int64, as the callers bound it.
    """
    plist, weights = profits.tolist(), weights.tolist()
    total = sum(plist)
    covered = sum(weights)
    capped = min(capacity, covered)
    top = covered - min(min_capacity, capped)
    weights = [w if w <= top else top + 1 for w in weights]
    pad = max(weights, default=0)
    sentinel = total + 1
    dtype = np.uint32 if sentinel + max(plist, default=0) <= UINT32_MAX else np.uint64
    row = np.full(pad + top + 1, sentinel, dtype=dtype)
    row[: pad + 1] = 0
    width = min(top, capped) + 1
    take = np.empty((len(weights), width), dtype=bool)
    scratch = np.empty(width, dtype=dtype)
    # item i's window: done_i is the weight of items 0..i, rest_i =
    # sum(weights) - done_i, lo_i = max(lowest - rest_i, 0), hi_i =
    # min(done_i, top) + 1; `body` is the row past the zero prefix
    lowest = covered - capped
    shift = sum(weights) - lowest
    done = list(accumulate(weights))
    starts = [d - shift if d > shift else 0 for d in done]
    ends = [(d if d < top else top) + 1 for d in done]
    body = row[pad:]
    for i, (w, p, lo, hi) in enumerate(zip(weights, profits.astype(dtype), starts, ends)):
        cells, cand = body[lo:hi], scratch[: hi - lo]
        np.add(row[pad + lo - w: pad + hi - w], p, out=cand)
        np.less_equal(cand, cells, out=take[i, : hi - lo])
        np.minimum(cells, cand, out=cells)
    return CoverTable(body, take, weights, starts, total, covered)


# The most items a subset list is built for; `_use_list` refuses more. The
# cache of `subsets` then holds fewer than 14 * 2^15 int64 entries, 3.5 MiB,
# and that of its int8 copy 0.4 MiB.
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


@lru_cache(maxsize=None)  # bounded as `subsets`
def _subsets_int8(n: int) -> np.ndarray:
    """`subsets(n)` as a read-only int8 matrix, the dtype of the exact-weight selections."""
    bits = subsets(n).astype(np.int8)
    bits.flags.writeable = False
    return bits


def _use_list(n: int, length: int) -> bool:
    """Whether a table over n items and `length` take cells per item is built as a subset list.

    A list costs about 13 us + 7.5 ns * n * 2^n and a row about
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
    the row 49 and 74 us. Below 2^n cells, the width of many tables read
    at one capacity, build plus one read takes (list / row, in us, at
    most c read at c alone, medians over 2 to 2^n - 1 cells):

        n     at most c    exactly c
        3     11 / 21      11 / 22
        4     11 / 23      10 / 26
        5     12 / 26      11 / 30
        6     13 / 30      12 / 35
        7     15 / 32      15 / 40
        8     20 / 36      21 / 45

    and this rule picks the list at every length from 3 to 8 items. The
    fitted row has no fixed cost, so for 1 and 2 items it would pick the
    row below 16031 and 3061 cells, where a list of 2 or 4 selections
    measured faster (10.5 against 13.5 us at n = 1, 10.6 against 17.6 us
    at n = 2): 1 or 2 items are always a list. It picks the row at n = 9
    below 569 cells, though the list measured 3 to 17 us faster there.
    n stays within LIST_MAX_ITEMS.
    """
    return n <= 2 or n <= LIST_MAX_ITEMS and (
        _LIST_US + _LIST_NS * n * 2 ** n / 1e3 < n * (_ROW_US + _ROW_NS * length / 1e3))


def table_form(weights, capacity: int, min_capacity: int = 0):
    """(form, capped capacity, kept) of the table over items `weights` up to capacity.

    The one size rule of every table, run once per table, read at the
    capacities from min_capacity up; an exact-weight table is read from
    0. The table holds only the items no heavier than the capacity: kept
    is their bool mask, or None when every item fits. W is the sum of the
    kept weights, and the capped capacity min(capacity, W): no selection
    weighs more.

    - The row's take cells per item are min(W - min(min_capacity, capped),
      capped) + 1: the covering row's window, and the dense row's
      capped + 1 cells when read from 0. `_use_list` picks "list" or
      "row" from them and n.
    - A list (n <= LIST_MAX_ITEMS) is refused by nothing else.
    - A row allocates n times its cells per item; past MAX_DP_CELLS it
      raises DpTooLarge, naming n and the cells.
    """
    listed = weights.tolist()
    kept = None if max(listed, default=0) <= capacity else weights <= capacity
    listed = listed if kept is None else [w for w in listed if w <= capacity]
    n, covered = len(listed), sum(listed)
    capped = min(capacity, covered)
    length = min(covered - min(min_capacity, capped), capped) + 1
    if _use_list(n, length):
        return "list", capped, kept
    if n * length > MAX_DP_CELLS:
        raise DpTooLarge(f"DP table for n={n} items up to capacity {capped}, read from "
                         f"{min_capacity}, needs {n * length} cells, above the budget of "
                         f"{MAX_DP_CELLS:.0e}")
    return "row", capped, kept


def _subset_sums(profits, weights):
    """The int64 weight and profit sums of every selection k, in the order of `subsets`.

    Both sums fit int64: the callers bound them.
    """
    bits = subsets(len(weights))
    return bits @ weights, bits @ profits


@dataclass
class CoverTable:
    """A covering DP row and its remove table (`cover_row`): values by index, selections by a walk.

    Capacity c reads removed weight t = max(covered - c, 0), the least
    weight the items left out must have. take[i, j] is removed weight
    lo_i + j, lo_i = max(lowest - rest_i, 0) with rest_i the weight of
    the items after i, for j below the window's width; the cells past it
    are never written and never read. Item i here is the row's i-th kept
    item.
    """

    row: np.ndarray      # least removed profits at removed weights 0..top
    take: np.ndarray     # (n, min(top, capped) + 1) remove table, item i from lo_i
    weights: list        # the weights, each clipped to top + 1, Python ints
    starts: list         # lo_i, the removed weight of item i's column 0, Python ints
    total: int           # the profit sum
    covered: int         # the weight sum
    kept: np.ndarray | None = None  # bool, per item: whether the row holds it; None: all

    @property
    def entries(self) -> int:
        return self.take.size

    def values(self, caps):
        """The int64 best profits at capacities caps, a scalar or an array."""
        return self.total - self.row[np.maximum(self.covered - caps, 0)].astype(np.int64)

    def selection(self, cap: int) -> np.ndarray:
        """The int64 best selection at one capacity: every kept item not removed."""
        weights, starts, take = self.weights, self.starts, self.take
        selection = np.ones(len(weights), dtype=np.int64)
        t = max(self.covered - cap, 0)
        for i in range(len(weights) - 1, -1, -1):
            if take.item(i, t - starts[i]):
                selection[i] = 0
                w = weights[i]
                t = t - w if t > w else 0
        return _spread(selection, self.kept)


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
    n: int                     # the items the list holds
    kept: np.ndarray | None = None  # as in `CoverTable`

    @property
    def entries(self) -> int:
        return len(self.order)

    def values(self, caps):
        """The int64 best profits at capacities caps, a scalar or an array."""
        return self.profits[self.minus_lightest.searchsorted(-caps)]

    def selection(self, cap: int) -> np.ndarray:
        """The int64 best selection at one capacity."""
        best = subsets(self.n)[self.order[self.minus_lightest.searchsorted(-cap)]].copy()
        return _spread(best, self.kept)


def _spread(selections: np.ndarray, kept) -> np.ndarray:
    """Selections over a table's kept items (last axis) as ones over all items, 0 where dropped."""
    if kept is None:
        return selections
    full = np.zeros(selections.shape[:-1] + kept.shape, dtype=selections.dtype)
    full[..., kept] = selections
    return full


def at_most_table(profits, weights, capacity: int, min_capacity: int = 0):
    """The best selection weighing at most c, and its profit, for every c up to capacity.

    `table_form` sizes the table over the items it keeps and picks the
    form, and each selection holds a 0 for a dropped item. The form is a
    `CoverTable`, the row of `cover_row`, promised for c >= min_capacity
    alone, or a `ListTable`, which answers every c. Of the best
    selections at c, both return the one with the smallest k.
    """
    form, capped, kept = table_form(weights, capacity, min_capacity)
    if kept is not None:
        profits, weights = profits[kept], weights[kept]
    if form == "row":
        table = cover_row(profits, weights, capacity, min_capacity)
    else:
        w_sum, p_sum = _subset_sums(profits, weights)
        order = (-p_sum).argsort(kind="stable")
        table = ListTable(order, p_sum[order], -np.minimum.accumulate(w_sum[order]), len(weights))
    return table if kept is None else replace(table, kept=kept)


def best_of_each_weight(profits, weights, capacity: int):
    """Each weight up to capacity that a selection reaches, its best profit and selection.

    Returns (weights, profits, selections, entries): the reached weights in
    ascending order (int64), the best profit of each (int64), the first
    best selection of each as an (R, n) int8 matrix, and the entries of
    the table built. `table_form` sizes it over the items it keeps and
    picks the form: the exact-weight row of `knapsack_row` read back by
    `trace`, or the subset list sorted by weight, then profit descending,
    then k ascending, whose first entry per weight is the best selection
    with the smallest k, as traced. The list masks out the weights past
    the capacity only when it is below W, the kept items' weight sum;
    otherwise every selection fits. Its selections are rows of the cached
    int8 `subsets`. Each selection holds a 0 for a dropped item.
    """
    form, capped, kept = table_form(weights, capacity)
    if kept is not None:
        profits, weights = profits[kept], weights[kept]
    if form == "list":
        w_sum, p_sum = _subset_sums(profits, weights)
        order = np.lexsort((-p_sum, w_sum))
        w_sorted = w_sum[order]
        first = np.empty(len(order), dtype=bool)
        first[0] = True
        np.not_equal(w_sorted[1:], w_sorted[:-1], out=first[1:])
        if capped < w_sorted[-1]:  # the full selection weighs W; below it some do not fit
            first &= w_sorted <= capped
        best = order[first]
        # take gathers rows several times faster than fancy indexing
        selections = _spread(_subsets_int8(len(weights)).take(best, axis=0), kept)
        return w_sorted[first], p_sum[best], selections, len(order)
    row, take = knapsack_row(profits, weights, capped)
    reached = np.flatnonzero(row >= 0)
    selections = _spread(trace(take, weights, reached), kept)
    return reached, row[reached].astype(np.int64), selections, take.size


def knapsack_max(profits, weights, capacity: int):
    """Exact 0/1 knapsack maximization.

    Returns (optimal value, 0/1 selection). Of the optimal selections the
    one with the smallest k = sum(x_i * 2^i) is returned, so the selection
    is deterministic. Every entry and the capacity must be an integer
    within int64, by `instance.integer` (2.0 counts): a fraction, bool,
    string, larger value or ragged sequence is refused with a ValueError
    naming profits, weights or capacity. The weights and the profits of
    the items no heavier than the capacity, the items the table holds,
    must each sum within int64, or OverflowRiskError is raised.
    """
    for name, v in (("profits", profits), ("weights", weights)):
        try:
            np.shape(v)
        except ValueError:  # numpy's "inhomogeneous shape" names neither argument
            raise ValueError(f"{name} must be a 1-D array, not a ragged sequence") from None
    if np.shape(profits) != np.shape(weights) or np.ndim(profits) != 1:
        raise ValueError("profits and weights must be 1-D arrays of equal length")
    profits = int_vector("profits", profits, len(profits), ValueError)
    weights = int_vector("weights", weights, len(weights), ValueError)
    capacity = integer("capacity", capacity, ValueError)
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    if (profits < 0).any():
        raise ValueError("profits must be non-negative")
    if (weights < 1).any():
        raise ValueError("weights must be positive")
    fits = weights <= capacity
    if sum(weights[fits].tolist()) > INT64_MAX:
        raise OverflowRiskError("sum of weights that fit the capacity exceeds the 64-bit range")
    if sum(profits[fits].tolist()) > INT64_MAX:
        raise OverflowRiskError("sum of profits exceeds the 64-bit accumulator bound")
    table = at_most_table(profits, weights, capacity, capacity)  # read at capacity alone
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


@dataclass
class ReplyTable:
    """The follower's reply to every leader, by the residual r = b - a1 . x it leaves.

    `reply_table` builds it, one per (instance, mode). `reply(r)` and
    `leader_profit(r)` answer one integer residual r in [lowest, b], in
    every form; any other r, a float, a bool or an array among them,
    raises ValueError.

    The table's value at r is M * z + d2_sum (optimistic) or
    M * z - d2_sum (pessimistic), with 0 <= d2_sum < M: value mod M
    recovers d2_sum in the first case, -value mod M in the second.
    """

    mode: Mode
    m: int       # the lexicographic multiplier M of `combined_profits`
    b: int       # the capacity: the highest residual the table answers
    lowest: int  # the lowest residual the table answers
    table: CoverTable | ListTable = field(repr=False)  # combined values, follower items

    @staticmethod
    def _check(name: str, r, lo: int, hi: int) -> int:
        """r as an int, refused with ValueError naming it unless one signed integer in [lo, hi].

        A Python int in range, the common case, is returned as it is,
        without numpy; a numpy signed integer or a 0-d array of one
        passes, a float, a bool, an unsigned integer or an array with an
        axis does not.
        """
        if type(r) is int and lo <= r <= hi:
            return r
        a = np.asarray(r)
        if a.dtype.kind == "i" and not a.ndim and lo <= a <= hi:
            return int(a)
        raise ValueError(f"{name} must lie in [{lo}, {hi}] and be an integer, got {r}")

    def reply(self, r: int) -> np.ndarray:
        """The tie-broken reply y at residual capacity r."""
        return self.table.selection(self._check("r", r, self.lowest, self.b))

    def leader_profit(self, r: int):
        """L(r) = d2 . reply(r) at residual capacity r, an int64."""
        return self._leader_profit(self._check("r", r, self.lowest, self.b))

    def _leader_profit(self, r):
        """`leader_profit` of a residual or an array of them, kept in [lowest, b] by the caller."""
        value = self.table.values(r)
        return value % self.m if self.mode is Mode.OPTIMISTIC else -value % self.m


def reply_table(inst, mode: Mode, lowest: int = 0, b: int | None = None) -> ReplyTable:
    """The follower's reply table for one (instance, mode), answering every residual in [lowest, b].

    The follower maximizes its profit c . y under the residual capacity
    and, among its optimal selections, maximizes (optimistic) or
    minimizes (pessimistic) the leader's profit d2 . y. Both stages
    collapse into one at-most knapsack over `combined_profits` up to b, a
    covering row or a subset list (`at_most_table`); the row leaves out
    the cells only a residual below `lowest` would read. b is the
    instance's capacity unless given: a table at a lower b is the
    instance's at that capacity, and holds no item heavier than b. A `b`
    outside [0, inst.b] or a `lowest` outside [0, b], or either not an
    integer, raises ValueError.
    """
    mode = Mode(mode)
    b = inst.b if b is None else ReplyTable._check("b", b, 0, inst.b)
    lowest = ReplyTable._check("lowest", lowest, 0, b)
    combined, m = combined_profits(inst, mode)
    return ReplyTable(mode, m, b, lowest, at_most_table(combined, inst.a2, b, lowest))


def score_leaders(inst, mode: Mode, d1_sums, weights):
    """The reply table for leaders of a1 sums `weights`, and their values d1_sums + L(b - weights).

    weights is a non-empty int64 array of sums a1 . x >= 0, d1_sums the
    leaders' d1 . x alongside. The table is built from
    the residual b minus the heaviest weight, so every residual the
    leaders leave lies in its range by construction, and L is read
    unchecked: the library's one such read. A weight above b leaves a
    residual below 0, which `reply_table` refuses.
    """
    table = reply_table(inst, mode, inst.b - int(weights[weights.argmax()]))
    return table, d1_sums + table._leader_profit(inst.b - weights)


def follower_response(inst, x_bar, mode: Mode = Mode.OPTIMISTIC) -> FollowerResponse:
    """The follower's reply to a fixed leader vector, read at the residual r it leaves.

    The table is the instance's at capacity r, read at r alone: it holds
    no follower item heavier than r and no cell past r.
    """
    x_bar = binary_vector(x_bar, inst.n1, "x_bar")
    r = inst.b - int(inst.a1 @ x_bar)
    if r < 0:
        raise InfeasibleLeader(f"leader weight exceeds capacity by {-r}")
    table = reply_table(inst, mode, r, b=r)
    y = table.reply(r)
    return FollowerResponse(int(inst.c @ y), int(inst.d1 @ x_bar) + int(table.leader_profit(r)), y)


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
    optimum on the leader profit of follower items. The reply is read, as
    `follower_response` reads it, from the table at the residual r the
    leader leaves.
    """
    x = binary_vector(x, inst.n1, "x")
    y = binary_vector(y, inst.n2, "y")
    leader_obj = int(inst.d1 @ x) + int(inst.d2 @ y)
    follower_obj = int(inst.c @ y)
    r = inst.b - int(inst.a1 @ x)
    if int(inst.a2 @ y) > r:
        return BilevelEvaluation(False, False, leader_obj, follower_obj)
    table = reply_table(inst, mode, r, b=r)
    feasible = follower_obj == int(inst.c @ table.reply(r))
    consistent = feasible and int(inst.d2 @ y) == int(table.leader_profit(r))
    return BilevelEvaluation(feasible, consistent, leader_obj, follower_obj)
