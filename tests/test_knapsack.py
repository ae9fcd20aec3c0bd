from dataclasses import replace

import numpy as np
import pytest

from blkp import knapsack
from blkp.instance import BlkpInstance
from blkp.knapsack import (INT64_MAX, LIST_MAX_ITEMS, MAX_DP_CELLS, DpTooLarge,
                           InfeasibleLeader, ListTable, Mode, OverflowRiskError, RowTable,
                           at_most_table, best_of_each_weight, combined_profits,
                           evaluate_bilevel, follower_response, knapsack_max, knapsack_row,
                           trace, walk)

from _forms import each_form, force
from _oracles import follower_brute, knapsack_brute, random_instance


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
    # 16 items, more than a list serves: the dense table's capped cells,
    # 16 * (min(capacity, 16e7) + 1), are refused past the budget before any
    # table is allocated; 14 of them are a list, refused at no capacity
    weights = np.full(16, 10 ** 7)
    with pytest.raises(DpTooLarge, match="n=16 .* 100000016 cells"):
        knapsack_max([1] * 16, weights, MAX_DP_CELLS // 16)
    # the tables run the rule on the capped cells: 15 unit weights at capacity
    # MAX_DP_CELLS build a 15 x 16 table, 15 weights of 1e7 are refused
    ones = np.ones(15, dtype=np.int64)
    table = at_most_table(ones, ones, MAX_DP_CELLS)
    assert table.take.shape == (15, 16) and table.row.tolist() == list(range(16))
    assert best_of_each_weight(ones, ones, MAX_DP_CELLS)[3] == 15 * 16
    for build in (at_most_table, best_of_each_weight):
        with pytest.raises(DpTooLarge, match=f"n=15 .* {15 * (MAX_DP_CELLS + 1)} cells"):
            build(ones, 10 ** 7 * ones, MAX_DP_CELLS)
    assert knapsack.table_form(weights, MAX_DP_CELLS // 16 - 1) == (False, 6_249_999)
    assert knapsack.table_form(weights[:14], MAX_DP_CELLS) == (True, MAX_DP_CELLS)
    value, sel = knapsack_max([1] * 14, weights[:14], MAX_DP_CELLS)
    assert (value, sel.tolist()) == (10, [1] * 10 + [0] * 4)
    assert knapsack_max([1], [1], 10) == (1, np.array([1]))


def test_list_weight_sums_cannot_wrap(monkeypatch):
    for _ in each_form(monkeypatch):
        # 3 * 2^62 passes int64: refused, never answered from a wrapped sum
        with pytest.raises(OverflowRiskError, match="sum of weights"):
            knapsack_max([1] * 3, [2 ** 62] * 3, 2 ** 63 - 2)
        # the same weights past a small capacity are clipped to it, and fit
        value, sel = knapsack_max([1, 1, 1], [2 ** 62, 2 ** 62, 1], 5)
        assert (value, sel.tolist()) == (1, [0, 0, 1])


@pytest.mark.parametrize("profits, weights, capacity, message", [
    ([1, 2], [1], 3, "profits and weights must be 1-D arrays of equal length"),
    ([[1]], [[1]], 3, "profits and weights must be 1-D arrays of equal length"),
    ([1], [1], -1, "capacity must be >= 0"),
    ([-1], [1], 3, "profits must be non-negative"),
    ([1], [0], 3, "weights must be positive"),
])
def test_knapsack_max_rejects_bad_input(profits, weights, capacity, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        knapsack_max(profits, weights, capacity)


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
            total = int(profits.sum())
            zeros = np.zeros(b + 1, dtype=np.int64)           # weight at most c
            exact = np.full(b + 1, -1 - total, dtype=np.int64)
            exact[0] = 0                                      # weight exactly c
            for exact_weight, init in ((False, zeros), (True, exact)):
                want_row, want_take = reference_row(profits, weights, init)
                row, take = knapsack_row(profits, weights, b, exact_weight)
                assert row.dtype == (np.int64 if scale > 1 and total > 0 else np.int32)
                assert np.array_equal(take, want_take[:, :len(row)])
                assert np.array_equal(row, want_row[:len(row)])


def test_knapsack_row_builds_its_row():
    # length: the capacity, capped at the items' total weight
    profits, weights = np.array([3, 5, 1]), np.array([2, 4, 3])
    for capacity in (0, 4, 8, 9, 10, 50):
        for exact_weight in (False, True):
            row, take = knapsack_row(profits, weights, capacity, exact_weight)
            assert len(row) == min(capacity, 9) + 1
            assert take.shape == (3, len(row))
    # exact weight: row[0] is the empty selection, unreachable weights stay negative
    row, _ = knapsack_row(profits, weights, 20, exact_weight=True)
    assert row[0] == 0
    assert np.flatnonzero(row >= 0).tolist() == [0, 2, 3, 4, 5, 6, 7, 9]  # not 1 or 8
    # width: int32 up to a profit sum of 2^31 - 1, int64 from 2^31
    for total, dtype in ((2 ** 31 - 1, np.int32), (2 ** 31, np.int64)):
        profits = np.array([total - 7, 7])
        for exact_weight in (False, True):
            row, _ = knapsack_row(profits, np.array([1, 2]), 5, exact_weight)
            assert row.dtype == dtype
            assert int(row[-1]) == total
            if exact_weight:
                assert int(row[1]) == total - 7 and int(row[2]) == 7


def test_knapsack_row_from_min_capacity_equals_the_full_row():
    # min_capacity 0, mid-row, the capped capacity and above it (b > sum(weights)):
    # the cells and walks from the clamped min_capacity up are the full row's,
    # and item i writes no cell below max(w_i, min_capacity - rest_i)
    rng = np.random.default_rng(25)
    cases = [
        ([5, 2], [7, 1], 4),              # an item heavier than b
        ([0, 2, 0], [1, 1, 3], 5),        # zero profits: every cell ties
        ([3, 3, 2, 3], [2, 2, 1, 2], 9),  # b above the total weight 7
    ]
    for _ in range(150):
        n = int(rng.integers(0, 9))
        cases.append((rng.integers(0, int(rng.choice([2, 40])), n),
                      rng.integers(1, int(rng.choice([3, 20])), n),
                      int(rng.integers(0, 80))))
    for drawn, weights, b in cases:
        weights = np.asarray(weights, dtype=np.int64)
        for scale in (1, 2 ** 32):                        # int32 as drawn, int64 scaled
            profits = np.asarray(drawn, dtype=np.int64) * scale
            for exact_weight in (False, True):
                full_row, full_take = knapsack_row(profits, weights, b, exact_weight)
                top = len(full_row) - 1
                for min_capacity in (0, int(rng.integers(0, top + 1)), top, top + 1, b, b + 3):
                    row, take = knapsack_row(profits, weights, b, exact_weight, min_capacity)
                    lo = min(min_capacity, top)
                    assert row.dtype == full_row.dtype and take.shape == full_take.shape
                    assert np.array_equal(row[lo:], full_row[lo:])
                    caps = np.arange(lo, top + 1)
                    assert np.array_equal(trace(take, weights, caps),
                                          trace(full_take, weights, caps))
                    for cap in caps:
                        assert np.array_equal(walk(take, weights, cap),
                                              walk(full_take, weights, cap))
                    rest = np.cumsum(weights[::-1])[::-1] - weights  # weight after item i
                    for i, w in enumerate(weights.tolist()):
                        assert not take[i, :max(w, lo - int(rest[i]))].any()


def test_walk_equals_trace_at_every_capacity():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(0, 9))
        profits = rng.integers(0, int(rng.choice([2, 40])), n)
        weights = rng.integers(1, int(rng.choice([3, 20])), n)
        b = int(rng.integers(0, 60))
        for exact_weight in (False, True):
            row, take = knapsack_row(profits, weights, b, exact_weight)
            traced = trace(take, weights, np.arange(len(row)))
            for cap in range(len(row)):
                walked = walk(take, weights, cap)
                assert walked.dtype == np.int64
                assert np.array_equal(walked, traced[cap])


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


def _under_both_forms(monkeypatch, build):
    """build() with every table dense, then with every table a list."""
    force(monkeypatch, "dense")
    dense = build()
    force(monkeypatch, "list")
    return dense, build()


@pytest.mark.parametrize("mode", list(Mode))
def test_list_and_dense_tables_agree(monkeypatch, mode):
    # the same values and selections at every capacity, from b = 0 to above
    # the total weight, for the follower's combined profits, the leader's
    # exact weights, and zero profits, with weights and profits duplicated
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
                dense, listed = _under_both_forms(
                    monkeypatch, lambda: at_most_table(profits, weights, capacity))
                assert isinstance(dense, RowTable) and isinstance(listed, ListTable)
                every_c = np.arange(capacity + 1)
                assert np.array_equal(dense.values(every_c), listed.values(every_c))
                for c in every_c.tolist():
                    assert dense.values(c) == listed.values(c)
                    assert np.array_equal(dense.selection(c), listed.selection(c))
                dense, listed = _under_both_forms(
                    monkeypatch, lambda: best_of_each_weight(profits, weights, capacity))
                for got, want in zip(listed[:3], dense[:3]):
                    assert got.dtype == want.dtype and np.array_equal(got, want)
                assert dense[3] == len(weights) * (min(capacity, total) + 1)
                assert listed[3] == 2 ** len(weights)


def test_use_list_rule():
    use = knapsack._use_list
    assert use(8, 4000) and use(6, 100_000)            # the label workload's tables
    assert not use(10, 5000) and not use(50, 10 ** 6)  # the search's follower rows
    for n in range(1, LIST_MAX_ITEMS + 3):
        # never more entries than the dense table, never more than LIST_MAX_ITEMS items
        assert not use(n, 2 ** n - 1)
        assert use(n, MAX_DP_CELLS // n) == (n <= LIST_MAX_ITEMS)


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
        assert resp.residual_capacity == 0


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
            resp = follower_response(inst, zeros, mode)
            assert resp.residual_capacity == inst.b
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
            assert np.array_equal(resp.reply(inst.b), resp.y)
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
def test_follower_reply_table_from_min_residual(mode, monkeypatch):
    for _ in each_form(monkeypatch):
        # the narrowed table answers every r from min_residual up as the full one
        # does, and refuses every r below it
        rng = np.random.default_rng(26)
        for k in range(80):
            inst = random_instance(rng, 2, int(rng.integers(1, 9)),
                                   value_max=int(rng.choice([3, 30])))
            if k % 4 == 0:  # a residual above the follower's total weight
                inst = replace(inst, b=int(rng.integers(inst.a2.sum(), inst.total_weight + 1)))
            x = rng.integers(0, 2, inst.n1) if k % 3 == 0 else np.zeros(inst.n1, dtype=np.int64)
            if int(inst.a1 @ x) > inst.b:
                x = np.zeros(inst.n1, dtype=np.int64)
            full = follower_response(inst, x, mode)
            top = full.residual_capacity
            for lo in (0, int(rng.integers(0, top + 1)), top):
                resp = follower_response(inst, x, mode, min_residual=lo)
                assert resp.min_residual == lo
                assert (resp.z_star, resp.leader_value) == (full.z_star, full.leader_value)
                assert np.array_equal(resp.y, full.y)
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
                with pytest.raises(ValueError, match="min_residual must lie"):
                    follower_response(inst, x, mode, min_residual=bad)


@pytest.mark.parametrize("r", [3.5, 2.0, True, np.float64(2), np.uint64(2), np.array([2])],
                         ids=["fraction", "integral_float", "bool", "float64", "uint64", "array"])
def test_non_integer_residual_refused_in_both_forms(monkeypatch, r):
    # unchecked, the dense form would fail inside numpy and the list form answer
    inst = BlkpInstance(1, 3, [1], [1], [2, 1, 1], [4, 1, 1], [2, 1, 1], 4)
    for _ in each_form(monkeypatch):
        resp = follower_response(inst, [0])
        bounds = "r must lie in \\[0, 4\\] and be an integer"
        with pytest.raises(ValueError, match=bounds):
            resp.reply(r)
        with pytest.raises(ValueError, match="min_residual must lie in \\[0, 4\\] and be an integer"):
            follower_response(inst, [0], min_residual=r)
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
            narrowed = follower_response(inst, [0], min_residual=good)
            assert narrowed.min_residual == 2 and narrowed.z_star == resp.z_star
        every_r = np.arange(5)
        assert resp.leader_profit(every_r).tolist() == [resp.leader_profit(c) for c in range(5)]


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
