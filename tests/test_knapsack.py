from dataclasses import replace

import numpy as np
import pytest

from blkp import knapsack
from blkp.instance import BlkpInstance
from blkp.exact import lowest_residual
from blkp.knapsack import (INT64_MAX, LIST_MAX_ITEMS, MAX_DP_CELLS, UINT32_MAX, CoverTable,
                           DpTooLarge, InfeasibleLeader, ListTable, Mode, OverflowRiskError,
                           at_most_table, best_of_each_weight, combined_profits, cover_row,
                           evaluate_bilevel, follower_response, knapsack_max, knapsack_row,
                           reply_table, trace)

from _forms import each_form, force
from _oracles import all_subsets, follower_brute, knapsack_brute, random_instance


def tiny_instance():
    return BlkpInstance(1, 1, a1=[2], d1=[3], a2=[2], d2=[5], c=[4], b=2)


def test_knapsack_zero_capacity(monkeypatch):
    for _ in each_form(monkeypatch):
        value, sel = knapsack_max([5], [3], 0)
        assert value == 0 and sel.tolist() == [0]


def test_knapsack_single_item_fits(monkeypatch):
    for _ in each_form(monkeypatch):
        value, sel = knapsack_max([5], [3], 3)
        assert value == 5 and sel.tolist() == [1]


def test_knapsack_small_example(monkeypatch):
    for _ in each_form(monkeypatch):
        # optimum checked by enumerating all 8 subsets
        value, sel = knapsack_max([6, 10, 12], [1, 2, 3], 5)
        assert value == 22
        assert sel.tolist() == [0, 1, 1]


def test_knapsack_selection_attains_value(monkeypatch):
    for _ in each_form(monkeypatch):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            p = rng.integers(0, 40, n)
            w = rng.integers(1, 20, n)
            cap = int(rng.integers(0, 80))
            value, sel = knapsack_max(p, w, cap)
            assert int(sel @ w) <= cap
            assert int(sel @ p) == value


def test_knapsack_matches_enumeration(monkeypatch):
    for _ in each_form(monkeypatch):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            p = rng.integers(0, 50, n)
            w = rng.integers(1, 25, n)
            cap = int(rng.integers(0, 120))
            value, _ = knapsack_max(p, w, cap)
            assert value == knapsack_brute(p, w, cap)


def test_knapsack_overflow_guard(monkeypatch):
    for _ in each_form(monkeypatch):
        with pytest.raises(OverflowRiskError):
            knapsack_max([2 ** 62, 2 ** 62], [1, 1], 2)


def test_knapsack_table_size_guard():
    # 16 items, more than a list serves: read at capacity c alone, the
    # covering row's take cells, 16 * (min(W - c, c) + 1), are refused past
    # the budget before any table is allocated; 14 of them are a list,
    # refused at no capacity
    weights = np.full(16, 10 ** 7)
    with pytest.raises(DpTooLarge, match="n=16 .* 100000016 cells"):
        knapsack_max([1] * 16, np.full(16, MAX_DP_CELLS // 16), MAX_DP_CELLS // 16)
    # the tables run the rule on the capped cells: 15 unit weights at capacity
    # MAX_DP_CELLS build a 15 x 16 table (removing t items costs t), 15
    # weights of 1e7 are refused
    ones = np.ones(15, dtype=np.int64)
    table = at_most_table(ones, ones, MAX_DP_CELLS)
    assert table.take.shape == (15, 16) and table.row.tolist() == list(range(16))
    assert best_of_each_weight(ones, ones, MAX_DP_CELLS)[3] == 15 * 16
    for build in (at_most_table, best_of_each_weight):
        with pytest.raises(DpTooLarge, match=f"n=15 .* {15 * (MAX_DP_CELLS + 1)} cells"):
            build(ones, 10 ** 7 * ones, MAX_DP_CELLS)
    fitting = np.full(16, 10 ** 6)  # 16 x (capacity + 1) cells, the budget itself
    assert knapsack.table_form(fitting, MAX_DP_CELLS // 16 - 1) == ("row", 6_249_999, None)
    assert knapsack.table_form(weights[:14], MAX_DP_CELLS) == ("list", MAX_DP_CELLS, None)
    value, sel = knapsack_max([1] * 14, weights[:14], MAX_DP_CELLS)
    assert (value, sel.tolist()) == (10, [1] * 10 + [0] * 4)
    assert knapsack_max([1], [1], 10) == (1, np.array([1]))


def test_knapsack_max_reads_one_capacity(monkeypatch):
    # 16 items of weight 10 at capacity 155 (W = 160): read at 155 alone, the
    # covering row writes min(W - c, c) + 1 = 6 cells per item, 16 x 6 within
    # a budget of 1e3 that 16 x 156 cells, every capacity from 0, would pass
    monkeypatch.setattr(knapsack, "MAX_DP_CELLS", 10 ** 3)
    profits, weights = np.ones(16, dtype=np.int64), np.full(16, 10)
    value, sel = knapsack_max(profits, weights, 155)
    assert (value, sel.tolist()) == (15, [1] * 15 + [0])  # the last item left out
    assert at_most_table(profits, weights, 155, 155).take.shape == (16, 6)
    with pytest.raises(DpTooLarge, match="n=16 .* 2496 cells"):
        at_most_table(profits, weights, 155)


def test_list_weight_sums_cannot_wrap(monkeypatch):
    for _ in each_form(monkeypatch):
        # 3 * 2^62 passes int64: refused, never answered from a wrapped sum
        with pytest.raises(OverflowRiskError, match="sum of weights"):
            knapsack_max([1] * 3, [2 ** 62] * 3, 2 ** 63 - 2)
        # the same weights past a small capacity are clipped to it, and fit
        value, sel = knapsack_max([1, 1, 1], [2 ** 62, 2 ** 62, 1], 5)
        assert (value, sel.tolist()) == (1, [0, 0, 1])


def test_knapsack_max_refuses_the_sums_of_the_items_that_fit(monkeypatch):
    # the weights and profits of the items no heavier than the capacity past
    # int64 are refused, in either form; an item heavier than it is not
    # summed, and a list answers where the kept sums fit
    for _ in each_form(monkeypatch):
        with pytest.raises(OverflowRiskError, match="^sum of weights that fit the capacity "
                                                    "exceeds the 64-bit range$"):
            knapsack_max([1] * 3, [2 ** 62, 2 ** 62, INT64_MAX], 2 ** 62)
        with pytest.raises(OverflowRiskError,
                           match="^sum of profits exceeds the 64-bit accumulator bound$"):
            knapsack_max([INT64_MAX, 1], [1, 1], 2)
        value, sel = knapsack_max([INT64_MAX, 1], [1, 3], 2)
        assert (value, sel.tolist()) == (INT64_MAX, [1, 0])
    force(monkeypatch, "list")
    value, sel = knapsack_max([1] * 3, [2 ** 62, 2 ** 62 - 1, INT64_MAX], 2 ** 62)
    assert (value, sel.tolist()) == (1, [1, 0, 0])


@pytest.mark.parametrize("profits, weights, capacity, message", [
    ([1, 2], [1], 3, "profits and weights must be 1-D arrays of equal length"),
    ([[1]], [[1]], 3, "profits and weights must be 1-D arrays of equal length"),
    ([1], [1], -1, "capacity must be >= 0"),
    ([-1], [1], 3, "profits must be non-negative"),
    ([1], [0], 3, "weights must be positive"),
    # each used to be truncated or read as an integer, or failed inside numpy
    ([1.5, 2], [1, 2], 3, "profits: entry 1.5 is not an integer"),
    ([1, 2], [1, 2.5], 3, "weights: entry 2.5 is not an integer"),
    ([True, 2], [1, 2], 3, "profits: entry True is not an integer"),
    ([1, 2], [1, False], 3, "weights: entry False is not an integer"),
    (["1"], [1], 3, "profits: entry '1' is not an integer"),
    ([1], [1], 2.5, "capacity: entry 2.5 is not an integer"),
    ([1], [1], True, "capacity: entry True is not an integer"),
    ([1], [1], "3", "capacity: entry '3' is not an integer"),
    ([1], [1], 2 ** 63, f"capacity: entry {2 ** 63} is outside the 64-bit integer range"),
    # numpy's own "inhomogeneous shape" error named neither argument
    ([1, [2]], [1, 2], 3, "profits must be a 1-D array, not a ragged sequence"),
    ([1, 2], [[1], 2], 3, "weights must be a 1-D array, not a ragged sequence"),
])
def test_knapsack_max_rejects_bad_input(profits, weights, capacity, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        knapsack_max(profits, weights, capacity)


def test_knapsack_max_reads_integral_floats_as_integers():
    value, sel = knapsack_max([3.0, 2], np.array([1.0, 2.0]), 3.0)
    assert (value, sel.tolist()) == (5, [1, 1]) and type(value) is int


def reference_row(profits, weights, row):
    """The textbook recurrence, one cell at a time; a tie keeps the cell."""
    row = [int(v) for v in row]
    take = np.zeros((len(weights), len(row)), dtype=bool)
    for i, (w, p) in enumerate(zip(weights, profits)):
        old = list(row)
        for c in range(int(w), len(row)):
            if old[c - w] + p > old[c]:
                row[c] = old[c - w] + p
                take[i, c] = True
    return np.array(row, dtype=np.int64), take


def kept_row(profits, weights, capacity):
    """knapsack_row over the items no heavier than the capacity, as `table_form` keeps them."""
    kept = weights <= capacity
    profits, weights = profits[kept], weights[kept]
    return knapsack_row(profits, weights, min(capacity, int(weights.sum()))), profits, weights


def test_knapsack_row_matches_reference_recurrence():
    rng = np.random.default_rng(22)
    cases = [
        ([3, 1], [1, 2], 0),              # b = 0
        ([5, 2], [7, 1], 4),              # an item heavier than b
        ([4, 2, 1], [4, 1, 2], 4),        # an item of weight exactly b
        ([3, 3, 2, 3], [2, 2, 1, 2], 7),  # duplicate weights and equal profits
        ([0, 2, 0], [1, 1, 3], 5),        # zero profits: every cell ties
    ]
    for _ in range(200):
        n = int(rng.integers(0, 9))
        cases.append((rng.integers(0, int(rng.choice([2, 4, 40])), n),
                      rng.integers(1, int(rng.choice([3, 10, 40])), n),
                      int(rng.integers(0, 40))))
    for drawn, weights, b in cases:
        weights = np.asarray(weights, dtype=np.int64)
        for scale in (1, 2 ** 32):                        # int32 as drawn, int64 scaled
            profits = np.asarray(drawn, dtype=np.int64) * scale
            (row, take), profits, kept = kept_row(profits, weights, b)
            init = np.full(b + 1, -1 - int(profits.sum()), dtype=np.int64)
            init[0] = 0                                       # weight exactly c
            want_row, want_take = reference_row(profits, kept, init)
            assert row.dtype == (np.int64 if scale > 1 and profits.sum() > 0 else np.int32)
            assert np.array_equal(take, want_take[:, :len(row)])
            assert np.array_equal(row, want_row[:len(row)])


def test_knapsack_row_builds_its_row():
    # length: the capacity, capped at the kept items' total weight
    profits, weights = np.array([3, 5, 1]), np.array([2, 4, 3])
    for capacity in (0, 4, 8, 9, 10, 50):
        (row, take), _, kept = kept_row(profits, weights, capacity)
        assert len(row) == min(capacity, int(kept.sum())) + 1
        assert take.shape == (len(kept), len(row))
    # row[0] is the empty selection, unreachable weights stay negative
    (row, _), _, _ = kept_row(profits, weights, 20)
    assert row[0] == 0
    assert np.flatnonzero(row >= 0).tolist() == [0, 2, 3, 4, 5, 6, 7, 9]  # not 1 or 8
    # width: int32 up to a profit sum of 2^31 - 1, int64 from 2^31
    for total, dtype in ((2 ** 31 - 1, np.int32), (2 ** 31, np.int64)):
        profits = np.array([total - 7, 7])
        (row, _), _, _ = kept_row(profits, np.array([1, 2]), 5)
        assert row.dtype == dtype
        assert (int(row[1]), int(row[2]), int(row[-1])) == (total - 7, 7, total)


def best_of_each_brute(profits, weights, capacity):
    """{weight: (best profit, first best selection)} of every weight up to capacity, enumerated."""
    subs = all_subsets(len(weights))
    w_sum, p_sum = subs @ weights, subs @ profits
    best = {}
    for k in np.lexsort((-p_sum, w_sum)).tolist():  # by weight, then profit descending, then k
        if w_sum[k] <= capacity and int(w_sum[k]) not in best:
            best[int(w_sum[k])] = (int(p_sum[k]), subs[k].tolist())
    return best


def test_trace_matches_enumeration():
    # the exact-weight row traced at every reached weight holds the best
    # selection of that weight with the smallest k, ties and zero profits
    # among them
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(0, 9))
        profits = rng.integers(0, int(rng.choice([2, 40])), n)
        weights = rng.integers(1, int(rng.choice([3, 20])), n)
        b = int(rng.integers(0, 60))
        (row, take), profits, weights = kept_row(profits, weights, b)
        reached = np.flatnonzero(row >= 0)
        traced = trace(take, weights, reached)
        assert traced.dtype == np.int8
        got = {int(w): (int(row[w]), sel.tolist()) for w, sel in zip(reached, traced)}
        assert got == best_of_each_brute(profits, weights, b)


def test_exact_weight_tables_hold_only_the_items_that_fit(monkeypatch):
    # items heavier than the capacity among them: each form answers as
    # enumeration, each dropped item reads 0, and the entries count only
    # the kept items, n x (min(capacity, W) + 1) cells or 2^n selections
    rng = np.random.default_rng(34)
    cases = [([5, 2], [7, 1], 4), ([3, 1, 4], [9, 9, 9], 8), ([2, 3], [5, 1], 0)]
    for _ in range(100):
        n = int(rng.integers(1, 9))
        cases.append((rng.integers(0, 40, n), rng.integers(1, 30, n), int(rng.integers(0, 30))))
    for form in each_form(monkeypatch):
        for profits, weights, b in cases:
            profits, weights = np.asarray(profits), np.asarray(weights)
            heavy = weights > b
            reached, values, selections, entries = best_of_each_weight(profits, weights, b)
            got = {int(w): (int(v), sel.tolist())
                   for w, v, sel in zip(reached, values, selections)}
            assert got == best_of_each_brute(profits, weights, b)
            assert selections.shape == (len(reached), len(weights))
            assert not selections[:, heavy].any()
            n, covered = int((~heavy).sum()), int(weights[~heavy].sum())
            assert entries == (2 ** n if form == "list" else n * (min(b, covered) + 1))


def test_knapsack_max_above_total_weight(monkeypatch):
    for _ in each_form(monkeypatch):
        # capacities past the total weight read the row's last cell; zero-profit
        # items stay out of the selection at every such capacity
        rng = np.random.default_rng(24)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            p = rng.integers(0, 5, n)
            w = rng.integers(1, 10, n)
            total = int(w.sum())
            for cap in (total, total + 1, 3 * total + 7):
                value, sel = knapsack_max(p, w, cap)
                assert value == int(p.sum()) == knapsack_brute(p, w, cap)
                assert sel.tolist() == (p > 0).astype(int).tolist()


def _under_each_form(monkeypatch, build):
    """build() with every table a row (at most: covering, exact weight: dense), then a list."""
    return [build() for _ in each_form(monkeypatch)]


@pytest.mark.parametrize("mode", list(Mode))
def test_list_and_dense_tables_agree(monkeypatch, mode):
    # the same values and selections at every capacity, from b = 0 to above
    # the total weight, for the follower's combined profits, the leader's
    # exact weights, and zero profits, with weights and profits duplicated,
    # in the row and the list
    rng = np.random.default_rng(28)
    cases = [
        BlkpInstance(2, 3, [2, 2], [5, 5], [2, 2, 2], [3, 3, 3], [4, 4, 4], 0),
        BlkpInstance(3, 3, [1, 2, 3], [4, 1, 3], [3, 2, 1], [2, 2, 2], [5, 4, 1], 9),
    ]
    cases += [random_instance(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)),
                              value_max=int(rng.choice([2, 3, 30])))
              for _ in range(40)]
    for inst in cases:
        combined, _m = combined_profits(inst, mode)
        zero_profits = rng.integers(0, 2, inst.n2)
        for profits, weights in ((combined, inst.a2), (inst.d1, inst.a1), (zero_profits, inst.a2)):
            total = int(weights.sum())
            for capacity in (inst.b, total, total + 3):
                covering, listed = _under_each_form(
                    monkeypatch, lambda: at_most_table(profits, weights, capacity))
                assert isinstance(covering, CoverTable) and isinstance(listed, ListTable)
                every_c = np.arange(capacity + 1)
                assert np.array_equal(covering.values(every_c), listed.values(every_c))
                for c in every_c.tolist():
                    assert covering.values(c) == listed.values(c)
                    assert np.array_equal(covering.selection(c), listed.selection(c))
                dense, listed = _under_each_form(
                    monkeypatch, lambda: best_of_each_weight(profits, weights, capacity))
                for got, want in zip(listed[:3], dense[:3]):
                    assert got.dtype == want.dtype and np.array_equal(got, want)
                n, length = cover_shape(weights, capacity, 0)  # the kept items, capped + 1
                assert dense[3] == n * length
                assert listed[3] == 2 ** n


def at_most_brute(profits, weights, capacity):
    """(best profit, first best selection) at capacity, enumerated: the smallest k among the best."""
    subs = all_subsets(len(weights))
    value = np.where(subs @ weights <= capacity, subs @ profits, -1)
    k = int(np.argmax(value))
    return int(value[k]), subs[k].tolist()


def cover_shape(weights, capacity, lo):
    """(kept items, min(top, capped) + 1): the take table of a covering row read from lo.

    The row keeps the items no heavier than the capacity; W is their weight sum.
    """
    kept = np.asarray(weights)[np.asarray(weights) <= capacity]
    covered = int(kept.sum())
    capped = min(capacity, covered)
    return len(kept), min(covered - min(lo, capped), capped) + 1


def test_cover_row_matches_enumeration(monkeypatch):
    # every value and selection from min_capacity up is the best selection
    # with the smallest k: ties in profit, zero profits, items heavier than
    # b, b at and above the total weight, min_capacity 0, mid-row and at b,
    # and both widths; the take table is one window per item
    force(monkeypatch, "row")
    rng = np.random.default_rng(29)
    cases = [
        ([3, 3, 3], [2, 2, 2], 4),        # ties: every pair of items is worth 6
        ([2, 4, 2, 4], [1, 2, 1, 2], 3),  # ties in profit per weight
        ([0, 2, 0], [1, 1, 3], 5),        # zero profits
        ([5, 2], [7, 1], 4),              # an item heavier than b
        ([4, 1, 3], [2, 3, 4], 9),        # b equal to the total weight
        ([4, 1, 3], [2, 3, 4], 15),       # b above it
        ([], [], 3),                      # no items
    ]
    for _ in range(200):
        n = int(rng.integers(0, 9))
        cases.append((rng.integers(0, int(rng.choice([2, 4, 40])), n),
                      rng.integers(1, int(rng.choice([3, 10, 40])), n),
                      int(rng.integers(0, 60))))
    for drawn, weights, b in cases:
        weights = np.asarray(weights, dtype=np.int64)
        for scale in (1, 2 ** 32):                        # uint32 as drawn, uint64 scaled
            profits = np.asarray(drawn, dtype=np.int64) * scale
            for lo in (0, int(rng.integers(0, b + 1)), b):
                table = at_most_table(profits, weights, b, lo)
                kept = profits[weights <= b]  # the width is the kept items' rule
                wide = int(kept.sum()) + 1 + int(kept.max(initial=0)) > UINT32_MAX
                assert table.row.dtype == (np.uint64 if wide else np.uint32)
                assert table.take.shape == cover_shape(weights, b, lo)
                caps = np.arange(lo, b + 1)
                values = table.values(caps)
                assert values.dtype == np.int64
                for c, value in zip(caps.tolist(), values.tolist()):
                    want = at_most_brute(profits, weights, c)
                    assert (value, table.selection(c).tolist()) == want
                    assert table.values(c) == value


def cover_windows(weights, capacity, lo):
    """Each kept item's window width: the take columns [0, width) a covering row writes.

    Worked out from the windows the module docstring states, not read from
    a table: item i writes the removed weights max(lowest - rest_i, 0) to
    min(done_i, top), each weight clipped to top + 1.
    """
    kept = [w for w in np.asarray(weights).tolist() if w <= capacity]
    covered = sum(kept)
    capped = min(capacity, covered)
    top = covered - min(lo, capped)
    clipped = [min(w, top + 1) for w in kept]
    lowest, rest, done, widths = covered - capped, sum(clipped), 0, []
    for w in clipped:
        rest -= w
        done += w
        widths.append(min(done, top) + 1 - max(lowest - rest, 0))
    return widths


def test_take_cells_outside_each_window_reach_no_answer(monkeypatch):
    # the take table is allocated unfilled: a cell outside its item's window
    # holds whatever memory held. Set every such cell to True, then to False:
    # no value and no selection changes at any capacity from lo to b, and
    # each equals enumeration; both row widths, heavy items dropped or not
    force(monkeypatch, "row")
    rng = np.random.default_rng(36)
    seen = {"uint32": 0, "uint64": 0, "dropped": 0, "poisoned": 0}
    for _ in range(160):
        n = int(rng.integers(1, 9))
        weights = rng.integers(1, int(rng.choice([4, 12, 40])), n)
        b = int(rng.integers(0, int(weights.sum()) + 3))
        profits = rng.integers(0, int(rng.choice([3, 40])), n) * int(rng.choice([1, 2 ** 32]))
        for lo in sorted({0, int(rng.integers(0, b + 1)), b}):
            table = at_most_table(profits, weights, b, lo)
            widths = cover_windows(weights, b, lo)
            assert len(widths) == len(table.take) and max(widths, default=0) <= table.take.shape[1]
            outside = np.arange(table.take.shape[1]) >= np.array(widths, dtype=np.int64)[:, None]
            caps = np.arange(lo, b + 1)
            want = [at_most_brute(profits, weights, c) for c in caps.tolist()]
            for poison in (True, False):
                table.take[outside] = poison
                assert table.values(caps).tolist() == [value for value, _ in want]
                assert [table.selection(c).tolist() for c in caps.tolist()] == [
                    selection for _, selection in want]
            seen[table.row.dtype.name] += 1
            seen["dropped"] += table.kept is not None
            seen["poisoned"] += bool(outside.any())
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("last, dtype", [(0, np.uint32), (1, np.uint64)])
def test_cover_row_width_boundary(last, dtype):
    # the largest sum the row forms is sum + 1 + max: 2^32 - 1 fits uint32,
    # 2^32 does not; the values read out are the enumerated ones, in int64
    profits = np.array([2 ** 31 - 1, last, 0])
    weights = np.array([2, 1, 3])
    assert int(profits.sum()) + 1 + int(profits.max()) == UINT32_MAX + last
    for b in (3, 6, 9):
        table = cover_row(profits, weights, b, 1)
        assert table.row.dtype == dtype
        for c in range(1, b + 1):
            assert (table.values(c), table.selection(c).tolist()) == at_most_brute(
                profits, weights, c)
    # a profit sum of int64's largest value still fits the uint64 row
    profits = np.array([INT64_MAX - 3, 3])
    table = cover_row(profits, np.array([2, 1]), 2, 0)
    assert table.row.dtype == np.uint64
    assert [table.values(c) for c in range(3)] == [0, 3, INT64_MAX - 3]
    # one past it is refused where raw profits enter, by knapsack_max
    with pytest.raises(OverflowRiskError):
        knapsack_max(np.array([INT64_MAX, 1]), np.array([1, 1]), 2)


def test_form_picks_the_fewest_cells():
    # the row's take cells per item: min(top, capped) + 1, top =
    # W - min(lo, capped), which is capped + 1 exactly c, read from 0; the
    # list is weighed against them. 50 items of weight 10 up to capacity 300
    # (W = 500):
    weights = np.full(50, 10)
    assert knapsack.table_form(weights, 300, 0) == ("row", 300, None)  # 301 cells
    assert knapsack.table_form(weights, 300) == ("row", 300, None)     # exact weight: 301
    # 2^8 selections against 301 cells (W = 800, top 800 or 500), then
    # against 101 (W = 400, top 100): at 8 items the list costs less than
    # a row of any length
    assert knapsack.table_form(np.full(8, 100), 300, 0) == ("list", 300, None)
    assert knapsack.table_form(np.full(8, 100), 300, 300) == ("list", 300, None)
    assert knapsack.table_form(np.full(8, 100), 300) == ("list", 300, None)
    assert knapsack.table_form(np.full(8, 50), 300, 300) == ("list", 300, None)
    # a weight heavier than the capacity is not counted, W = 95: 19 items of
    # 1 cell from capacity 100, and of 96 cells exactly c
    for lo in (100, 0):
        form, capped, kept = knapsack.table_form(np.array([10 ** 9] + [5] * 19), 100, lo)
        assert (form, capped, kept.tolist()) == ("row", 95, [False] + [True] * 19)
    # a row past the budget is refused with its cells: W = 1.5e8, 15 x (b + 1)
    # cells from 0, either kind, and 15 x (W - b + 1) from b
    weights, b = np.full(15, 10 ** 7), 14 * 10 ** 7
    for lo, cells in ((0, 15 * (b + 1)), (b, 15 * (10 ** 7 + 1))):
        with pytest.raises(DpTooLarge, match=f"^DP table for n=15 items up to capacity {b}, "
                                             f"read from {lo}, needs {cells} cells, above"):
            knapsack.table_form(weights, b, lo)
    b = 145 * 10 ** 6
    assert knapsack.table_form(weights, b, b - 10) == ("row", b, None)  # 15 x (5e6 + 11) cells


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.45])
def test_follower_row_where_the_capacity_is_short(monkeypatch, mode, alpha):
    # b + r0 below the follower's weight sum: the covering row's take table
    # is (items no heavier than b) x (min(top, capped) + 1), one window per
    # item, and every residual from r0 to b answers as enumeration does
    force(monkeypatch, "row")
    rng = np.random.default_rng(30)
    checked = 0
    while checked < 12:
        inst = random_instance(rng, int(rng.integers(1, 6)), int(rng.integers(2, 10)),
                               value_max=int(rng.choice([3, 12])), alpha=(alpha, alpha))
        zeros = np.zeros(inst.n1, dtype=np.int64)
        for lo in {0, lowest_residual(inst), int(rng.integers(0, inst.b + 1))}:
            if inst.b + lo >= int(inst.a2.sum()):
                continue
            resp = reply_table(inst, mode, lo)
            assert isinstance(resp.table, CoverTable)
            assert resp.table.take.shape == cover_shape(inst.a2, inst.b, lo)
            for r in range(lo, inst.b + 1):
                at_r = replace(inst, b=r)
                y, _z, leader_value = follower_brute(at_r, zeros, mode)
                assert resp.leader_profit(r) == leader_value
                assert resp.reply(r).tolist() == y.tolist()
            checked += 1


@pytest.mark.parametrize("mode", list(Mode))
def test_cover_row_drops_items_heavier_than_the_capacity(monkeypatch, mode):
    # no reply holds a follower item heavier than b: the covering row keeps
    # the others alone, and every residual from r0 to b answers as
    # enumeration does, each dropped item a 0 in the reply
    force(monkeypatch, "row")
    rng = np.random.default_rng(32)
    checked = 0
    while checked < 16:
        inst = random_instance(rng, int(rng.integers(1, 5)), int(rng.integers(2, 10)),
                               value_max=int(rng.choice([3, 12])), alpha=(0.1, 0.1))
        heavy = inst.a2 > inst.b
        if not heavy.any():
            continue
        zeros = np.zeros(inst.n1, dtype=np.int64)
        for lo in {0, lowest_residual(inst), inst.b}:
            resp = reply_table(inst, mode, lo)
            assert resp.table.kept.tolist() == (~heavy).tolist()
            assert resp.table.take.shape == cover_shape(inst.a2, inst.b, lo)
            for r in range(lo, inst.b + 1):
                y, _z, leader_value = follower_brute(replace(inst, b=r), zeros, mode)
                assert resp.leader_profit(r) == leader_value
                assert resp.reply(r).tolist() == y.tolist()
        checked += 1
    # every item heavier than the capacity: the row keeps none
    table = at_most_table(np.array([3, 4]), np.array([5, 6]), 4)
    assert table.take.shape == (0, 1) and table.selection(4).tolist() == [0, 0]
    assert table.values(4) == 0


def test_use_list_rule():
    use = knapsack._use_list
    assert use(8, 4000) and use(6, 100_000)            # the label workload's tables
    assert not use(10, 5000) and not use(50, 10 ** 6)  # the search's follower rows
    for n in range(1, LIST_MAX_ITEMS + 3):  # never more than LIST_MAX_ITEMS items
        assert use(n, MAX_DP_CELLS // n) == (n <= LIST_MAX_ITEMS)
    # 1 and 2 items are a list at every length; past them the cost alone:
    # 3-8 items are a list from one cell, and 9-14 items a row at every
    # length below 2^n
    for n in (1, 2):
        assert all(use(n, length) for length in (1, 2 ** n, 3061, 16031, MAX_DP_CELLS))
    for n in range(3, 9):
        assert all(use(n, length) for length in range(1, 2 ** n))
    for n in range(9, LIST_MAX_ITEMS + 1):
        assert not any(use(n, length) for length in range(1, 2 ** n))


@pytest.mark.parametrize("mode", list(Mode))
def test_a_narrow_table_of_few_items_is_a_list(monkeypatch, mode):
    # 3-8 follower items, each no heavier than the residual r a leader
    # leaves, read at r over fewer than 2^n covering cells: the table at
    # capacity r and the one knapsack_max reads are lists, and both answer
    # as enumeration does
    built = []

    def record(*args):
        built.append(at_most_table(*args))
        return built[-1]

    monkeypatch.setattr(knapsack, "at_most_table", record)
    rng = np.random.default_rng(33)
    for n2 in range(3, 9):
        checked = 0
        while checked < 6:
            inst = random_instance(rng, int(rng.integers(1, 5)), n2,
                                   value_max=int(rng.choice([3, 12, 30])))
            x = rng.integers(0, 2, inst.n1)
            r = inst.b - int(inst.a1 @ x)
            if r < 0:
                continue
            kept, cells = cover_shape(inst.a2, r, r)
            if kept < n2 or cells >= 2 ** n2:
                continue
            assert isinstance(reply_table(inst, mode, r, b=r).table, ListTable)
            built.clear()
            resp = follower_response(inst, x, mode)
            y, z_star, leader_value = follower_brute(inst, x, mode)
            assert (resp.z_star, resp.leader_value, resp.y.tolist()) == (
                z_star, leader_value, y.tolist())
            value, selection = knapsack_max(inst.c, inst.a2, r)
            assert value == knapsack_brute(inst.c, inst.a2, r)
            assert (value, selection.tolist()) == at_most_brute(inst.c, inst.a2, r)
            assert [type(table) for table in built] == [ListTable, ListTable]
            checked += 1


def test_subsets_rows_are_the_bits_of_k():
    bits = knapsack.subsets(3)
    assert bits.tolist() == [[k >> i & 1 for i in range(3)] for k in range(8)]
    assert not bits.flags.writeable


def test_follower_residual_zero(monkeypatch):
    for _ in each_form(monkeypatch):
        resp = follower_response(tiny_instance(), [1])
        assert resp.y.tolist() == [0]
        assert resp.z_star == 0
        assert resp.leader_value == 3


def test_follower_single_item(monkeypatch):
    for _ in each_form(monkeypatch):
        resp = follower_response(tiny_instance(), [0])
        assert resp.y.tolist() == [1]
        assert resp.z_star == 4
        assert resp.leader_value == 5


def test_follower_tie_broken_by_mode(monkeypatch):
    for _ in each_form(monkeypatch):
        inst = BlkpInstance(1, 2, a1=[5], d1=[1], a2=[1, 1], d2=[1, 9],
                            c=[4, 4], b=1)
        x = [0]
        opt = follower_response(inst, x, Mode.OPTIMISTIC)
        assert opt.y.tolist() == [0, 1] and opt.z_star == 4 and opt.leader_value == 9
        pes = follower_response(inst, x, Mode.PESSIMISTIC)
        assert pes.y.tolist() == [1, 0] and pes.z_star == 4 and pes.leader_value == 1


def test_follower_infeasible_leader():
    with pytest.raises(InfeasibleLeader):
        follower_response(BlkpInstance(2, 1, [2, 2], [1, 1], [1], [1], [1], 3),
                          [1, 1])


def test_follower_response_reads_a_table_at_its_own_residual():
    # a leader that leaves r = 1 of b = 1.4e8 + 1: the table at capacity r
    # holds the one follower item of weight 1, a list of its 2 selections,
    # where a table up to b read from r would hold 15 x (1e7 + 1) cells
    # and is refused
    a2, b = [1] + [10 ** 7] * 14, 14 * 10 ** 7 + 1
    inst = BlkpInstance(1, 15, [b - 1], [2], a2, list(range(1, 16)), [3] * 15, b)
    for mode in Mode:
        with pytest.raises(DpTooLarge, match="n=15 items"):
            reply_table(inst, mode, 1)
        table = reply_table(inst, mode, 1, b=1)
        assert (table.b, table.lowest, table.table.entries) == (1, 1, 2)
        resp = follower_response(inst, [1], mode)
        assert (resp.z_star, resp.leader_value, resp.y.tolist()) == (3, 3, [1] + [0] * 14)
    for bad in (-1, 3, 1.0, True):  # b outside [0, inst.b] or not an integer
        with pytest.raises(ValueError, match="b must lie in \\[0, 2\\]"):
            reply_table(tiny_instance(), Mode.OPTIMISTIC, 0, b=bad)
    with pytest.raises(ValueError, match="lowest must lie in \\[0, 1\\]"):
        reply_table(tiny_instance(), Mode.OPTIMISTIC, 2, b=1)


def test_follower_matches_brute_force_both_modes(monkeypatch):
    for _ in each_form(monkeypatch):
        rng = np.random.default_rng(2)
        for _ in range(400):
            inst = random_instance(rng, int(rng.integers(1, 6)), int(rng.integers(1, 11)))
            x = rng.integers(0, 2, inst.n1)
            if int(inst.a1 @ x) > inst.b:
                x = np.zeros(inst.n1, dtype=np.int64)
            for mode in Mode:
                resp = follower_response(inst, x, mode)
                y, z, lv = follower_brute(inst, x, mode)
                assert resp.z_star == z
                assert resp.leader_value == lv


def test_optimistic_dominates_pessimistic(monkeypatch):
    for _ in each_form(monkeypatch):
        rng = np.random.default_rng(3)
        for _ in range(100):
            inst = random_instance(rng, 4, 6)
            x = rng.integers(0, 2, inst.n1)
            if int(inst.a1 @ x) > inst.b:
                x = np.zeros(inst.n1, dtype=np.int64)
            opt = follower_response(inst, x, Mode.OPTIMISTIC)
            pes = follower_response(inst, x, Mode.PESSIMISTIC)
            assert opt.leader_value >= pes.leader_value


def test_all_zero_leader_never_errors(monkeypatch):
    for _ in each_form(monkeypatch):
        rng = np.random.default_rng(4)
        for _ in range(50):
            inst = random_instance(rng, 3, 5)
            follower_response(inst, np.zeros(3, dtype=np.int64))


def test_evaluate_feasible_pair():
    ev = evaluate_bilevel(tiny_instance(), [1], [0])
    assert ev.bilevel_feasible and ev.rational_and_mode_consistent
    assert ev.leader_obj == 3


def test_evaluate_irrational_follower():
    ev = evaluate_bilevel(tiny_instance(), [0], [0])
    assert not ev.bilevel_feasible
    assert ev.follower_obj == 0


def test_evaluate_overweight():
    inst = BlkpInstance(1, 1, [2], [3], [2], [5], [4], 2)
    ev = evaluate_bilevel(inst, [1], [1])
    assert not ev.bilevel_feasible


@pytest.mark.parametrize("mode", list(Mode))
def test_follower_reply_table_matches_brute_force(mode, monkeypatch):
    for _ in each_form(monkeypatch):
        rng = np.random.default_rng(21)
        cases = [
            BlkpInstance(1, 2, [1], [1], [1, 1], [3, 3], [2, 2], 0),          # b = 0
            BlkpInstance(1, 3, [1], [1], [2, 1, 1], [4, 1, 1], [2, 1, 1], 3),  # ties in c
            BlkpInstance(1, 3, [1], [1], [1, 2, 1], [2, 2, 2], [5, 5, 5], 2),  # equal d2
        ]
        cases += [random_instance(rng, 2, int(rng.integers(1, 7)),
                                  value_max=int(rng.choice([2, 3, 30])))
                  for _ in range(60)]
        for inst in cases:
            zeros = np.zeros(inst.n1, dtype=np.int64)
            resp = reply_table(inst, mode)
            assert (resp.b, resp.lowest) == (inst.b, 0)
            for r in range(inst.b + 1):
                # the follower at residual r faces the same items under capacity r
                at_r = BlkpInstance(inst.n1, inst.n2, inst.a1, inst.d1, inst.a2, inst.d2,
                                    inst.c, r)
                _, z, leader_value = follower_brute(at_r, zeros, mode)
                y = resp.reply(r)
                assert resp.leader_profit(r) == leader_value
                assert int(inst.c @ y) == z
                assert int(inst.d2 @ y) == leader_value
                assert int(inst.a2 @ y) <= r
            assert np.array_equal(resp.reply(inst.b), follower_response(inst, zeros, mode).y)
            every_r = np.arange(inst.b + 1)
            assert np.array_equal(resp.leader_profit(every_r),
                                  [resp.leader_profit(r) for r in every_r])
            for r in (-1, inst.b + 1):
                with pytest.raises(ValueError, match="r must lie"):
                    resp.reply(r)
                with pytest.raises(ValueError, match="r must lie"):
                    resp.leader_profit(r)
                with pytest.raises(ValueError, match="r must lie"):
                    resp.leader_profit(np.array([0, r]))


@pytest.mark.parametrize("mode", list(Mode))
def test_reply_table_from_lowest(mode, monkeypatch):
    for _ in each_form(monkeypatch):
        # the narrowed table answers every r from lowest up as the full one
        # does, and refuses every r below it
        rng = np.random.default_rng(26)
        for k in range(80):
            inst = random_instance(rng, 2, int(rng.integers(1, 9)),
                                   value_max=int(rng.choice([3, 30])))
            if k % 4 == 0:  # a residual above the follower's total weight
                inst = replace(inst, b=int(rng.integers(inst.a2.sum(), inst.total_weight + 1)))
            full = reply_table(inst, mode)
            top = inst.b
            for lo in (0, int(rng.integers(0, top + 1)), top):
                resp = reply_table(inst, mode, lo)
                assert resp.lowest == lo
                every_r = np.arange(lo, top + 1)
                assert np.array_equal(resp.leader_profit(every_r), full.leader_profit(every_r))
                for r in every_r:
                    assert np.array_equal(resp.reply(r), full.reply(r))
                if lo > 0:
                    bounds = f"r must lie in \\[{lo}, {top}\\]"
                    with pytest.raises(ValueError, match=bounds):
                        resp.reply(lo - 1)
                    with pytest.raises(ValueError, match=bounds):
                        resp.leader_profit(lo - 1)
                    with pytest.raises(ValueError, match=bounds):
                        resp.leader_profit(np.array([top, lo - 1]))
            for bad in (-1, top + 1):
                with pytest.raises(ValueError, match="lowest must lie"):
                    reply_table(inst, mode, bad)


@pytest.mark.parametrize("r", [3.5, 2.0, True, np.float64(2), np.uint64(2), np.array([2])],
                         ids=["fraction", "integral_float", "bool", "float64", "uint64", "array"])
def test_non_integer_residual_refused_in_both_forms(monkeypatch, r):
    # unchecked, the row would fail inside numpy and the list answer
    inst = BlkpInstance(1, 3, [1], [1], [2, 1, 1], [4, 1, 1], [2, 1, 1], 4)
    for _ in each_form(monkeypatch):
        resp = reply_table(inst, Mode.OPTIMISTIC)
        bounds = "r must lie in \\[0, 4\\] and be an integer"
        with pytest.raises(ValueError, match=bounds):
            resp.reply(r)
        with pytest.raises(ValueError, match="lowest must lie in \\[0, 4\\] and be an integer"):
            reply_table(inst, Mode.OPTIMISTIC, r)
        if np.ndim(r):  # an array is one residual too many for reply alone
            assert resp.leader_profit(r).tolist() == [resp.leader_profit(2)]
            continue
        with pytest.raises(ValueError, match=bounds):
            resp.leader_profit(r)
        with pytest.raises(ValueError, match=bounds):
            resp.leader_profit(np.array([r]))
        # numpy signed integers answer as ints do
        for good in (np.int64(2), np.int32(2), np.array(2)):
            assert resp.reply(good).tolist() == resp.reply(2).tolist()
            assert resp.leader_profit(good) == resp.leader_profit(2)
            narrowed = reply_table(inst, Mode.OPTIMISTIC, good)
            assert narrowed.lowest == 2 and narrowed.reply(4).tolist() == resp.reply(4).tolist()
        every_r = np.arange(5)
        assert resp.leader_profit(every_r).tolist() == [resp.leader_profit(c) for c in range(5)]


@pytest.mark.parametrize("mode", list(Mode))
def test_reply_table_matches_enumeration(mode, monkeypatch):
    # in each form, from lowest 0, the lowest residual any leader leaves, a
    # drawn one and b: L(r), the reply and the score of a leader weighing
    # b - r answer as enumeration does at every r in
    # range; a residual below lowest, a float or a bool is refused
    rng = np.random.default_rng(34)
    cases = [random_instance(rng, int(rng.integers(1, 5)), int(rng.integers(1, 8)),
                             value_max=int(rng.choice([3, 30])), alpha=(0.2, 0.9))
             for _ in range(30)]
    for _ in each_form(monkeypatch):
        for inst in cases:
            zeros = np.zeros(inst.n1, dtype=np.int64)
            for lo in {0, lowest_residual(inst), int(rng.integers(0, inst.b + 1)), inst.b}:
                table = reply_table(inst, mode, lo)
                every_r = np.arange(lo, inst.b + 1)
                d1_sums = rng.integers(0, 100, len(every_r))
                want = []
                for r, d1 in zip(every_r.tolist(), d1_sums.tolist()):
                    y, z, leader_value = follower_brute(replace(inst, b=r), zeros, mode)
                    assert table.leader_profit(r) == leader_value
                    assert table.reply(r).tolist() == y.tolist()
                    assert table.score(d1, inst.b - r) == d1 + leader_value
                    want.append(d1 + leader_value)
                scores = table.score(d1_sums, inst.b - every_r)
                assert scores.dtype == np.int64 and scores.tolist() == want
                for bad in ([lo - 1] if lo else []) + [inst.b + 1, float(lo), True]:
                    with pytest.raises(ValueError, match="r must lie in"):
                        table.reply(bad)
                    with pytest.raises(ValueError, match="r must lie in"):
                        table.leader_profit(bad)
                with pytest.raises(ValueError, match="r must lie in"):
                    table.score(0, inst.b - lo + 1)


@pytest.mark.parametrize("mode", list(Mode))
def test_reply_table_over_the_items_that_fit(mode, monkeypatch):
    # 20 follower items, 14 or fewer no heavier than b: in each form the
    # table holds those alone, so a list holds at most 2^14 selections, and
    # every residual answers as enumerating them does, each item heavier
    # than b a 0 in the reply
    rng = np.random.default_rng(33)
    b = 40
    for fit in (1, 9, 14):
        a2 = np.concatenate([rng.integers(1, 11, fit), rng.integers(b + 1, 3 * b, 20 - fit)])
        inst = BlkpInstance(1, 20, [5], [3], rng.permutation(a2), rng.integers(1, 30, 20),
                            rng.integers(1, 30, 20), b)
        fits = inst.a2 <= b
        for form in each_form(monkeypatch):
            for lo in (0, b - 7, b):
                table = reply_table(inst, mode, lo)
                assert isinstance(table.table, ListTable if form == "list" else CoverTable)
                assert table.table.kept.tolist() == fits.tolist()
                if form == "list":
                    assert table.table.entries == 2 ** fit
                for r in range(lo, b + 1):
                    # the fitting items alone, under a leader item that leaves r
                    at_r = BlkpInstance(1, fit, [r + 1], [1], inst.a2[fits], inst.d2[fits],
                                        inst.c[fits], r)
                    y, z, leader_value = follower_brute(at_r, [0], mode)
                    reply = table.reply(r)
                    assert reply[fits].tolist() == y.tolist() and not reply[~fits].any()
                    assert table.leader_profit(r) == leader_value and int(inst.c @ reply) == z


def test_table_form_counts_the_items_that_fit(monkeypatch):
    # at most c, the rule counts the items no heavier than c, as the table
    # holds them: 14 items of weight 1e5 fit 7e5 beside 6 of 1e6, and are a
    # list; 15 are more than a list serves
    for fit, form in ((14, "list"), (15, "row")):
        weights = np.array([10 ** 5] * fit + [10 ** 6] * (20 - fit))
        got, capped, kept = knapsack.table_form(weights, 7 * 10 ** 5, 0)
        assert (got, capped, kept.tolist()) == (form, 7 * 10 ** 5, (weights < 10 ** 6).tolist())
    # 10 items of weight 1000 and 10 of weight 10 at capacity 95: the row
    # holds 10 x 6 cells, within a budget of 1e3 that 20 x 96 would pass
    monkeypatch.setattr(knapsack, "MAX_DP_CELLS", 10 ** 3)
    profits, weights = np.arange(1, 21), np.array([1000] * 10 + [10] * 10)
    value, sel = knapsack_max(profits, weights, 95)
    assert (value, sel.tolist()) == (144, [0] * 11 + [1] * 9)
    assert at_most_table(profits, weights, 95, 95).take.shape == (10, 6)


def test_combined_profits_equal_the_python_int_formula():
    rng = np.random.default_rng(27)
    for _ in range(100):
        inst = random_instance(rng, 1, int(rng.integers(1, 51)),
                               value_max=int(rng.choice([3, 1000, 2 ** 20])))
        m = 1 + sum(inst.d2.tolist())
        for mode, sign in ((Mode.OPTIMISTIC, 1), (Mode.PESSIMISTIC, -1)):
            combined, got_m = combined_profits(inst, mode)
            assert got_m == m and combined.dtype == np.int64
            assert combined.tolist() == [m * c + sign * d
                                         for c, d in zip(inst.c.tolist(), inst.d2.tolist())]


def _follower_items_summing_to(target, mode):
    """Follower items (c, d2) whose combined profits sum to target exactly."""
    # optimistic: (D + 1) * C + D = target, pessimistic: (D + 1) * C - D = target,
    # for D = sum(d2) and C = sum(c)
    for d in range(2, 100):
        numerator = target - d if mode is Mode.OPTIMISTIC else target + d
        if numerator % (d + 1) == 0:
            return [numerator // (d + 1) - 1, 1], [1, d - 1]
    raise AssertionError("no small d2 sum found")


@pytest.mark.parametrize("mode", list(Mode))
def test_combined_profits_overflow_exactly_past_int64(mode, monkeypatch):
    for _ in each_form(monkeypatch):
        for target in (INT64_MAX, INT64_MAX + 1):
            c, d2 = _follower_items_summing_to(target, mode)
            inst = BlkpInstance(1, 2, [1], [1], [2, 3], d2, c, 5)
            if target > INT64_MAX:
                with pytest.raises(OverflowRiskError):
                    combined_profits(inst, mode)
                continue
            combined, _m = combined_profits(inst, mode)
            assert sum(combined.tolist()) == target
            assert follower_response(inst, [0], mode).z_star == sum(c)


def test_pessimistic_profits_build_without_wrapping(monkeypatch):
    for _ in each_form(monkeypatch):
        # M * c = 2^63 + 2 does not fit int64, M * c - d2 = 2^62 + 2 does
        inst = BlkpInstance(1, 1, [1], [1], [3], [2 ** 62], [2], 3)
        combined, m = combined_profits(inst, Mode.PESSIMISTIC)
        assert m * 2 > INT64_MAX
        assert combined.tolist() == [2 ** 62 + 2]
        resp = follower_response(inst, [0], Mode.PESSIMISTIC)
        assert (resp.z_star, resp.leader_value) == (2, 2 ** 62)
        with pytest.raises(OverflowRiskError):
            combined_profits(inst, Mode.OPTIMISTIC)


@pytest.mark.parametrize("x", [[-1], [2], [0.5]])
def test_follower_rejects_non_binary_leader(x):
    # x = [-1] used to give a residual above b and a reply heavier than b
    inst = BlkpInstance(1, 2, [5], [7], [3, 4], [1, 1], [2, 2], 6)
    with pytest.raises(ValueError, match="0/1 vector"):
        follower_response(inst, x)


@pytest.mark.parametrize("x, y", [([2], [0]), ([0], [2]), ([-1], [1])])
def test_evaluate_rejects_non_binary_vectors(x, y):
    # x = [2] used to pass as feasible and consistent with leader_obj 14
    inst = BlkpInstance(1, 1, [1], [7], [3], [1], [1], 3)
    with pytest.raises(ValueError, match="0/1 vector"):
        evaluate_bilevel(inst, x, y)
