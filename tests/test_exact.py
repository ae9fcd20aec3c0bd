import hashlib
from dataclasses import replace

import numpy as np
import pytest

from blkp import exact, knapsack
from blkp.exact import collect_labels, lowest_residual, solve_exact
from blkp.instance import BlkpInstance, GenConfig, generate
from blkp.knapsack import (DpTooLarge, MAX_DP_CELLS, UINT32_MAX, CoverTable, Mode,
                           combined_profits, evaluate_bilevel, follower_response, knapsack_max,
                           knapsack_row, reply_table)
from blkp.search import SearchConfig, solution_search

from _forms import each_form, force
from _oracles import bilevel_brute, follower_brute, pool_brute, random_instance


def test_tiny_instance_optimum(monkeypatch):
    for _ in each_form(monkeypatch):
        inst = BlkpInstance(1, 1, a1=[2], d1=[3], a2=[2], d2=[5], c=[4], b=2)
        res = solve_exact(inst)
        assert res.opt_value == 5
        assert res.opt_x.tolist() == [0]
        assert res.opt_y.tolist() == [1]
        assert res.proven_optimal


def test_everything_fits(monkeypatch):
    for _ in each_form(monkeypatch):
        rng = np.random.default_rng(0)
        inst = random_instance(rng, 4, 4)
        inst = BlkpInstance(4, 4, inst.a1, inst.d1, inst.a2, inst.d2, inst.c,
                            inst.total_weight)
        res = solve_exact(inst)
        assert res.opt_value == int(inst.d1.sum() + inst.d2.sum())
        assert res.opt_x.tolist() == [1] * 4
        assert res.opt_y.tolist() == [1] * 4


@pytest.mark.parametrize("mode", list(Mode))
def test_matches_double_enumeration(mode, monkeypatch):
    for _ in each_form(monkeypatch):
        rng = np.random.default_rng(5)
        for _ in range(40):
            inst = random_instance(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            res = solve_exact(inst, mode)
            brute = bilevel_brute(inst, mode)
            assert res.opt_value == brute[2]
            ev = evaluate_bilevel(inst, res.opt_x, res.opt_y, mode)
            assert ev.bilevel_feasible and ev.rational_and_mode_consistent


def test_pool_entries_feasible_sorted_distinct(monkeypatch):
    for _ in each_form(monkeypatch):
        rng = np.random.default_rng(6)
        inst = random_instance(rng, 6, 6)
        res = solve_exact(inst)
        assert res.pool.shape == (len(res.pool_values), inst.n1)
        assert res.pool_values[0] == res.opt_value
        assert list(res.pool_values) == sorted(res.pool_values, reverse=True)
        assert np.array_equal(res.pool[0], res.opt_x)
        weights = res.pool @ inst.a1
        assert len(set(weights.tolist())) == len(res.pool)  # one entry per leader weight
        for x, v in zip(res.pool[:5], res.pool_values[:5]):
            resp = follower_response(inst, x, res.mode)
            ev = evaluate_bilevel(inst, x, resp.y)
            assert ev.bilevel_feasible
            assert ev.leader_obj == v


def _edge_case_instance(rng, case):
    """Small random instance with one of the DP's edge cases forced."""
    n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    inst = random_instance(rng, n1, n2, value_max=12)
    a1, d1, a2, d2, c, b = inst.a1, inst.d1, inst.a2, inst.d2, inst.c, inst.b
    if case == "b=0":
        b = 0
    elif case == "leader too heavy":
        a1 = b + 1 + rng.integers(0, 5, n1)
    elif case == "ties in c":
        c = np.full(n2, int(rng.integers(1, 4)))
    elif case == "equal d2":
        d2 = np.full(n2, int(rng.integers(1, 4)))
    return BlkpInstance(n1, n2, a1, d1, a2, d2, c, b)


@pytest.mark.parametrize("mode", list(Mode))
def test_pool_matches_per_weight_enumeration(mode, monkeypatch):
    for _ in each_form(monkeypatch):
        rng = np.random.default_rng(11)
        cases = ["random", "b=0", "leader too heavy", "ties in c", "equal d2"]
        for k in range(100):
            inst = _edge_case_instance(rng, cases[k % len(cases)])
            res = solve_exact(inst, mode)
            expected = pool_brute(inst, mode)
            weights = (res.pool @ inst.a1).tolist()
            assert dict(zip(weights, res.pool_values.tolist())) == expected
            assert res.opt_value == max(expected.values())
            assert list(res.pool_values) == sorted(res.pool_values, reverse=True)
            assert np.array_equal(res.opt_y, follower_response(inst, res.opt_x, mode).y)
            for x, v in zip(res.pool, res.pool_values):
                assert follower_response(inst, x, mode).leader_value == v


def test_pool_ties_prefer_lighter_leader(monkeypatch):
    for _ in each_form(monkeypatch):
        # both leader vectors are worth 5; the empty one (weight 0) comes first
        inst = BlkpInstance(1, 1, a1=[1], d1=[5], a2=[1], d2=[5], c=[1], b=1)
        res = solve_exact(inst)
        assert res.pool_values.tolist() == [5, 5]
        assert res.pool.tolist() == [[0], [1]]


def test_table_size_guard():
    # 15 items on one side, leader or follower: no list serves them, and the
    # row's take cells, 15 * (min(b, 15 * big) + 1), pass the budget (the
    # follower's covering row is read from b - 15 * big at the least)
    big = 10 ** 8
    many, one = ([big] * 15, [1] * 15), ([1], [1])
    cells = 15 * (big + 1)
    assert cells > MAX_DP_CELLS
    for (a1, d1), (a2, d2) in ((many, one), (one, many)):
        inst = BlkpInstance(len(a1), len(a2), a1=a1, d1=d1, a2=a2, d2=d2, c=d2, b=big)
        with pytest.raises(DpTooLarge, match=f"n=15 .* {cells} cells"):
            solve_exact(inst)


@pytest.mark.parametrize("mode", list(Mode))
def test_list_tables_answer_at_any_value_scale(mode):
    # b of 2.7e8 to 4.6e8 at value_max 1e8: a dense table would pass the cell
    # budget, but six items per side are lists of 64 selections
    for seed in range(5):
        inst = generate(GenConfig(6, 6, value_max=10 ** 8, seed=seed))
        assert 6 * (inst.b + 1) > MAX_DP_CELLS
        res = solve_exact(inst, mode)
        assert res.node_count == 2 * 2 ** 6
        assert res.opt_value == bilevel_brute(inst, mode)[2]
        assert follower_brute(inst, res.opt_x, mode)[2] == res.opt_value
        weights = (res.pool @ inst.a1).tolist()
        assert dict(zip(weights, res.pool_values.tolist())) == pool_brute(inst, mode)


@pytest.mark.parametrize("value_max", [10 ** 6, 10 ** 7])
def test_ten_item_sides_answer_past_the_dense_budget(value_max):
    # (n1 + n2) * (b + 1) dense cells would pass the budget: 1.4e8 and 1.4e9
    inst = generate(GenConfig(10, 10, value_max=value_max, seed=2))
    assert 20 * (inst.b + 1) > MAX_DP_CELLS
    for mode in Mode:
        res = solve_exact(inst, mode)
        assert res.node_count == 2 * 2 ** 10
        ev = evaluate_bilevel(inst, res.opt_x, res.opt_y, mode)
        assert ev.bilevel_feasible and ev.rational_and_mode_consistent
        assert ev.leader_obj == res.opt_value


def test_collect_labels_small_pool():
    inst = BlkpInstance(1, 1, a1=[2], d1=[3], a2=[2], d2=[5], c=[4], b=2)
    res = solve_exact(inst)
    labels = collect_labels(res, k=10)
    assert len(labels) <= 3
    assert labels[0][1] == res.opt_value
    assert np.array_equal(labels[0][0], res.opt_x)


def test_collect_labels_ordering_and_k_zero():
    rng = np.random.default_rng(9)
    inst = random_instance(rng, 7, 7)
    res = solve_exact(inst)
    labels = collect_labels(res, k=5)
    values = [v for _, v in labels]
    assert values == sorted(values, reverse=True)
    assert len({tuple(x) for x, _ in labels}) == len(labels)
    only_opt = collect_labels(res, k=0)
    assert len(only_opt) == 1
    assert only_opt[0][1] == res.opt_value
    assert all(type(v) is int for _, v in labels)


def test_collect_labels_rejects_negative_k():
    res = solve_exact(generate(GenConfig(6, 6, seed=3)))
    assert len(res.pool) > 2  # k = -2 would otherwise slice all but one row
    for k in (-1, -2):
        with pytest.raises(ValueError, match="k must be >= 0"):
            collect_labels(res, k=k)
    for k in (True, 2.5, "3"):  # true ran as 1, and 2.5 raised TypeError inside the slice
        with pytest.raises(ValueError, match="k must be an integer"):
            collect_labels(res, k=k)


def assert_matches_brute(inst, mode):
    """solve_exact and the reply table against double enumeration; returns the result."""
    res = solve_exact(inst, mode)
    assert res.opt_value == bilevel_brute(inst, mode)[2]
    y, z, value = follower_brute(inst, res.opt_x, mode)
    assert value == res.opt_value
    assert int(inst.c @ res.opt_y) == z and int(inst.d2 @ res.opt_y) == int(inst.d2 @ y)
    assert int(inst.a1 @ res.opt_x + inst.a2 @ res.opt_y) <= inst.b
    weights = (res.pool @ inst.a1).tolist()
    assert dict(zip(weights, res.pool_values.tolist())) == pool_brute(inst, mode)

    zeros = np.zeros(inst.n1, dtype=np.int64)
    follower = reply_table(inst, mode)
    for r in range(inst.b + 1):
        at_r = BlkpInstance(inst.n1, inst.n2, inst.a1, inst.d1, inst.a2, inst.d2, inst.c, r)
        _, z, leader_value = follower_brute(at_r, zeros, mode)
        y = follower.reply(r)
        assert follower.leader_profit(r) == leader_value
        assert int(inst.c @ y) == z and int(inst.d2 @ y) == leader_value
        assert int(inst.a2 @ y) <= r
    every_r = np.arange(inst.b + 1)
    assert follower.leader_profit(every_r).dtype == np.int64
    assert follower.leader_profit(every_r).tolist() == [
        follower.leader_profit(r) for r in every_r]
    return res


def test_node_count_is_the_capped_tables_cells(monkeypatch):
    # a1 sums to 5, a2 to 4: at b = 7 the follower's covering row, read from
    # residual 2, is 3 items x (4 - 2 + 1) cells and the leader table
    # 2 x (5 + 1); at b = 3 both stop at b
    force(monkeypatch, "row")
    inst = BlkpInstance(2, 3, a1=[2, 3], d1=[4, 1], a2=[1, 1, 2], d2=[1, 2, 3],
                        c=[2, 2, 1], b=7)
    assert solve_exact(inst).node_count == 3 * 3 + 2 * 6
    assert solve_exact(replace(inst, b=3)).node_count == 3 * 4 + 2 * 4


def test_follower_table_is_read_from_the_lowest_reachable_residual(monkeypatch):
    # a1 sums to 5, a2 to 4: the follower table is asked for the residuals
    # from b - min(b, 5) up. Its covering row writes min(W - that, b) + 1
    # cells per item, W = 4 the weights, beside the dense leader row's
    # min(b, W1) + 1, W1 the weight of the leader items no heavier than b:
    # at b = 2 the row keeps one leader item, and at b = 0 neither row
    # keeps any
    force(monkeypatch, "row")
    asked = []

    def recording(inst, mode, lowest=0):
        asked.append(lowest)
        return reply_table(inst, mode, lowest)

    monkeypatch.setattr(exact, "reply_table", recording)
    inst = BlkpInstance(2, 3, a1=[2, 3], d1=[4, 1], a2=[1, 1, 2], d2=[1, 2, 3],
                        c=[2, 2, 1], b=7)
    for b, lowest, node_count in ((7, 2, 3 * 3 + 2 * 6), (5, 0, 3 * 5 + 2 * 6),
                                  (3, 0, 3 * 4 + 2 * 4), (2, 0, 3 * 3 + 1 * 3),
                                  (0, 0, 0 * 1 + 0 * 1)):
        at_b = replace(inst, b=b)
        assert lowest_residual(at_b) == lowest
        res = assert_matches_brute(at_b, Mode.OPTIMISTIC)
        assert asked[-1] == lowest and res.node_count == node_count


def test_node_count_is_a_lists_selections(monkeypatch):
    # a list holds 2^n selections of its n items whatever the capacity: 2^3
    # follower and 2^2 leader; an item heavier than b is in neither list, so
    # at b = 2 the leader's list holds 2^1, and at b = 0 both hold 2^0
    force(monkeypatch, "list")
    inst = BlkpInstance(2, 3, a1=[2, 3], d1=[4, 1], a2=[1, 1, 2], d2=[1, 2, 3],
                        c=[2, 2, 1], b=7)
    for b, follower, leader in ((0, 2 ** 0, 2 ** 0), (2, 2 ** 3, 2 ** 1), (3, 2 ** 3, 2 ** 2),
                                (7, 2 ** 3, 2 ** 2)):
        assert solve_exact(replace(inst, b=b)).node_count == follower + leader


def test_one_kept_item_is_a_list_of_two_selections():
    # seven leader items heavier than b leave one: its table is the list of
    # 2 selections, not a row of b + 1 = 9743 cells; the follower's one item
    # is a list of 2 as well
    inst = BlkpInstance(8, 1, [9742] + [20000] * 7, [5] * 8, [1], [1], [1], 9742)
    weights, profits, selections, entries = knapsack.best_of_each_weight(inst.d1, inst.a1, inst.b)
    assert (weights.tolist(), profits.tolist(), entries) == ([0, 9742], [0, 5], 2)
    assert selections.tolist() == [[0] * 8, [1] + [0] * 7]
    for mode in Mode:
        res = solve_exact(inst, mode)
        assert res.node_count == 2 + 2
        assert res.opt_value == bilevel_brute(inst, mode)[2]


@pytest.mark.parametrize("mode", list(Mode))
def test_rows_capped_at_total_weight(monkeypatch, mode):
    # b above the follower's total weight, then above the leader's
    force(monkeypatch, "row")
    rng = np.random.default_rng(12)
    for k in range(60):
        inst = random_instance(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)),
                               value_max=12)
        side = int((inst.a2 if k % 2 == 0 else inst.a1).sum())
        inst = replace(inst, b=int(rng.integers(side + 1, inst.total_weight + 1)))
        # the covering row keeps the follower items no heavier than b
        kept = inst.a2[inst.a2 <= inst.b]
        follower = reply_table(inst, mode)
        assert follower.table.take.shape == (len(kept), min(inst.b, int(kept.sum())) + 1)
        assert follower.b == inst.b
        res = assert_matches_brute(inst, mode)
        # read from the lowest residual, the covering row writes min(top, b) + 1
        # cells per kept item, top = W - lowest with W the kept weights' sum
        top = int(kept.sum()) - lowest_residual(inst)
        assert res.node_count == (len(kept) * (min(top, inst.b) + 1)
                                  + inst.n1 * (min(inst.b, int(inst.a1.sum())) + 1))


def _recorded_leader_row_dtypes(monkeypatch):
    seen = []

    def recording(*args):
        row, take = knapsack_row(*args)  # only the exact-weight leader table builds one
        seen.append(row.dtype)
        return row, take

    monkeypatch.setattr(knapsack, "knapsack_row", recording)
    return seen


# Follower items (c, d2) whose combined profits sum to a target, per mode:
# optimistic M * sum(c) + sum(d2), pessimistic M * sum(c) - sum(d2), with
# M = 1 + sum(d2).
FOLLOWER_BOUNDARY = [
    (Mode.OPTIMISTIC, 2 ** 31 - 1, [4000000, 4000000, 388607], [100, 100, 55]),
    (Mode.OPTIMISTIC, 2 ** 31, [357913941, 357913941], [1, 1]),
    (Mode.PESSIMISTIC, 2 ** 31 - 1, [10000000, 10000000, 14087043], [20, 20, 22]),
    (Mode.PESSIMISTIC, 2 ** 31, [1, 1], [2 ** 30 - 1, 2 ** 30 - 1]),
    (Mode.PESSIMISTIC, 1, [1], [2 ** 40]),  # M far above 32 bits
    # the covering row's largest sum, total + 1 + max, at 2^32 - 1 and 2^32
    (Mode.OPTIMISTIC, 2 ** 31 + 3, [357913940, 1], [3, 2]),
    (Mode.OPTIMISTIC, 2 ** 31 + 3, [715827881, 2], [1, 1]),
]


@pytest.mark.parametrize("mode, target, c, d2", FOLLOWER_BOUNDARY)
def test_follower_row_dtype_boundary(monkeypatch, mode, target, c, d2):
    force(monkeypatch, "row")
    n2 = len(c)
    a2 = [3, 4, 5][:n2]
    for b in (5, sum(a2) + 2):
        inst = BlkpInstance(2, n2, a1=[2, 6], d1=[7, 9], a2=a2, d2=d2, c=c, b=b)
        combined, _m = combined_profits(inst, mode)
        assert int(combined.sum()) == target
        follower = reply_table(inst, mode)
        assert isinstance(follower.table, CoverTable)
        wide = target + 1 + int(combined.max()) > UINT32_MAX
        assert follower.table.row.dtype == (np.uint64 if wide else np.uint32)
        assert_matches_brute(inst, mode)


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("d1, dtype", [
    ([1000000000, 1000000000, 147483647], np.int32),  # sentinel -2^31 fits
    ([1000000000, 1000000000, 147483648], np.int64),
])
def test_leader_row_dtype_boundary(monkeypatch, mode, d1, dtype):
    force(monkeypatch, "row")
    seen = _recorded_leader_row_dtypes(monkeypatch)
    for b in (6, 15):  # below and above sum(a1) = 9
        inst = BlkpInstance(3, 3, a1=[2, 3, 4], d1=d1, a2=[3, 4, 2], d2=[5, 1, 4],
                            c=[3, 3, 2], b=b)
        assert_matches_brute(inst, mode)
    assert set(seen) == {np.dtype(dtype)}


def heavy_leader_instance():
    """15 leader items, one heavier than b: the 14 that fit are a list of 2^14 selections."""
    return BlkpInstance(15, 1, [2 * 10 ** 8] + [10 ** 7] * 14, list(range(1, 16)), [10 ** 7],
                        [1], [1], 14 * 10 ** 7)


@pytest.mark.parametrize("mode", list(Mode))
def test_a_leader_item_heavier_than_b_is_not_tabled(mode):
    # counted, the heavy item made the leader's row 15 x (b + 1) cells, past
    # the budget; dropped, the list holds 2^14 selections and the follower's
    # one item a list of 2
    inst = heavy_leader_instance()
    res = solve_exact(inst, mode)
    x, y, value = bilevel_brute(inst, mode)
    assert (res.opt_value, res.opt_x.tolist(), res.opt_y.tolist()) == (value, x.tolist(),
                                                                      y.tolist())
    assert res.opt_value == 119 and res.node_count == 2 ** 14 + 2
    assert not res.pool[:, 0].any()


def test_lowest_residual_counts_the_leader_items_that_fit():
    # a1 = [2, 3, 9]: at b = 7 the item of 9 fits no leader, so the lowest
    # residual is 7 - 5 = 2, not 7 - min(7, 14) = 0
    inst = BlkpInstance(3, 1, a1=[2, 3, 9], d1=[1, 1, 1], a2=[4], d2=[1], c=[1], b=7)
    assert lowest_residual(inst) == 2
    assert lowest_residual(replace(inst, b=9)) == 0
    assert lowest_residual(replace(inst, b=1)) == 1


@pytest.mark.parametrize("mode", list(Mode))
def test_pool_residuals_lie_in_the_follower_tables_range(mode, monkeypatch):
    # solve_exact reads L(b - W) without the table's range check; the
    # checked `score` raises if a pool leader's residual leaves [lowest, b]
    for _ in each_form(monkeypatch):
        rng = np.random.default_rng(37)
        for _ in range(60):
            inst = random_instance(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            inst = replace(inst, b=int(rng.integers(0, inst.total_weight + 1)))
            res = solve_exact(inst, mode)
            table = reply_table(inst, mode, lowest_residual(inst))
            scores = table.score(res.pool @ inst.d1, res.pool @ inst.a1)
            assert scores.tolist() == res.pool_values.tolist()


# sha256 of the oracle's answers on 300 random instances of 1-8 items a side,
# both modes, b drawn from 0 up to the total weight, so that often below
# max(a1): solve_exact's value, opt_x, opt_y, pool and pool_values, and the
# answers of follower_response, knapsack_max and solution_search on them.
# node_count, the size of the tables built, is left out: it pins the answers,
# not the tables' forms
EXACT_SHA256 = "4fc3a0d82e422849253cb9c202fc5d1adfed6efe4d8a246edf2ef396ae2d2594"


def test_exact_bits_are_pinned():
    digest = hashlib.sha256()
    rng = np.random.default_rng(34)
    for _ in range(300):
        inst = random_instance(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        inst = replace(inst, b=int(rng.integers(0, inst.total_weight + 1)))
        values = rng.uniform(0, 1, inst.n1)
        for mode in Mode:
            res = solve_exact(inst, mode)
            digest.update(str(res.opt_value).encode() + res.opt_x.tobytes() + res.opt_y.tobytes()
                          + res.pool.tobytes() + res.pool_values.tobytes())
            for x in res.pool[:3]:
                resp = follower_response(inst, x, mode)
                digest.update(f"{resp.z_star} {resp.leader_value}".encode() + resp.y.tobytes())
            search = solution_search(inst, values, SearchConfig(mode=mode, seed=inst.n1))
            digest.update(search.best_x.tobytes() + search.best_y.tobytes()
                          + str(search.best_value).encode())
        for profits, weights in ((inst.d1, inst.a1), (inst.c, inst.a2)):
            value, selection = knapsack_max(profits, weights, inst.b)
            digest.update(str(value).encode() + selection.tobytes())
    assert digest.hexdigest() == EXACT_SHA256
