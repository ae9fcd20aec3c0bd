import numpy as np
import pytest

from blkp.instance import BlkpInstance
from blkp.knapsack import (MAX_DP_CELLS, DpTooLarge, InfeasibleLeader, Mode,
                           OverflowRiskError, evaluate_bilevel, follower_response,
                           knapsack_max, knapsack_row, trace, walk)

from _oracles import follower_brute, knapsack_brute, random_instance


def tiny_instance():
    return BlkpInstance(1, 1, a1=[2], d1=[3], a2=[2], d2=[5], c=[4], b=2)


def test_knapsack_zero_capacity():
    value, sel = knapsack_max([5], [3], 0)
    assert value == 0 and sel.tolist() == [0]


def test_knapsack_single_item_fits():
    value, sel = knapsack_max([5], [3], 3)
    assert value == 5 and sel.tolist() == [1]


def test_knapsack_small_example():
    # optimum checked by enumerating all 8 subsets
    value, sel = knapsack_max([6, 10, 12], [1, 2, 3], 5)
    assert value == 22
    assert sel.tolist() == [0, 1, 1]


def test_knapsack_selection_attains_value():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        p = rng.integers(0, 40, n)
        w = rng.integers(1, 20, n)
        cap = int(rng.integers(0, 80))
        value, sel = knapsack_max(p, w, cap)
        assert int(sel @ w) <= cap
        assert int(sel @ p) == value


def test_knapsack_matches_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        p = rng.integers(0, 50, n)
        w = rng.integers(1, 25, n)
        cap = int(rng.integers(0, 120))
        value, _ = knapsack_max(p, w, cap)
        assert value == knapsack_brute(p, w, cap)


def test_knapsack_overflow_guard():
    with pytest.raises(OverflowRiskError):
        knapsack_max([2 ** 62, 2 ** 62], [1, 1], 2)


def test_knapsack_table_size_guard():
    # one cell over the budget is refused before any table is allocated
    with pytest.raises(DpTooLarge, match=f"n=1 .*b={MAX_DP_CELLS}"):
        knapsack_max([1], [1], MAX_DP_CELLS)
    assert knapsack_max([1], [1], 10) == (1, np.array([1]))


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
    for profits, weights, b in cases:
        profits = np.asarray(profits, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        zeros = np.zeros(b + 1, dtype=np.int64)           # weight at most c
        exact = np.full(b + 1, -1 - int(profits.sum()), dtype=np.int64)
        exact[0] = 0                                      # weight exactly c
        for init in (zeros, exact):
            want_row, want_take = reference_row(profits, weights, init)
            for dtype in (np.int32, np.int64):            # both widths `row_dtype` picks
                row = init.astype(dtype)
                take = knapsack_row(profits, weights, row)
                assert np.array_equal(take, want_take)
                assert np.array_equal(row, want_row)


def test_walk_equals_trace_at_every_capacity():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(0, 9))
        profits = rng.integers(0, int(rng.choice([2, 40])), n)
        weights = rng.integers(1, int(rng.choice([3, 20])), n)
        b = int(rng.integers(0, 60))
        zeros = np.zeros(b + 1, dtype=np.int64)
        exact = np.full(b + 1, -1 - int(profits.sum()), dtype=np.int64)
        exact[0] = 0
        for init in (zeros, exact):
            take = knapsack_row(profits, weights, init.copy())
            traced = trace(take, weights, np.arange(b + 1))
            for cap in range(b + 1):
                walked = walk(take, weights, cap)
                assert walked.dtype == np.int64
                assert np.array_equal(walked, traced[cap])


def test_knapsack_max_above_total_weight():
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


def test_follower_residual_zero():
    resp = follower_response(tiny_instance(), [1])
    assert resp.y.tolist() == [0]
    assert resp.z_star == 0
    assert resp.leader_value == 3
    assert resp.residual_capacity == 0


def test_follower_single_item():
    resp = follower_response(tiny_instance(), [0])
    assert resp.y.tolist() == [1]
    assert resp.z_star == 4
    assert resp.leader_value == 5


def test_follower_tie_broken_by_mode():
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


def test_follower_matches_brute_force_both_modes():
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


def test_optimistic_dominates_pessimistic():
    rng = np.random.default_rng(3)
    for _ in range(100):
        inst = random_instance(rng, 4, 6)
        x = rng.integers(0, 2, inst.n1)
        if int(inst.a1 @ x) > inst.b:
            x = np.zeros(inst.n1, dtype=np.int64)
        opt = follower_response(inst, x, Mode.OPTIMISTIC)
        pes = follower_response(inst, x, Mode.PESSIMISTIC)
        assert opt.leader_value >= pes.leader_value


def test_all_zero_leader_never_errors():
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
def test_follower_reply_table_matches_brute_force(mode):
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
