import numpy as np
import pytest

from blkp.exact import collect_labels, solve_exact
from blkp.instance import BlkpInstance, GenConfig, generate
from blkp.knapsack import DpTooLarge, MAX_DP_CELLS, Mode, evaluate_bilevel, follower_response

from _oracles import bilevel_brute, pool_brute, random_instance


def test_tiny_instance_optimum():
    inst = BlkpInstance(1, 1, a1=[2], d1=[3], a2=[2], d2=[5], c=[4], b=2)
    res = solve_exact(inst)
    assert res.opt_value == 5
    assert res.opt_x.tolist() == [0]
    assert res.opt_y.tolist() == [1]
    assert res.proven_optimal


def test_everything_fits():
    rng = np.random.default_rng(0)
    inst = random_instance(rng, 4, 4)
    inst = BlkpInstance(4, 4, inst.a1, inst.d1, inst.a2, inst.d2, inst.c,
                        inst.total_weight)
    res = solve_exact(inst)
    assert res.opt_value == int(inst.d1.sum() + inst.d2.sum())
    assert res.opt_x.tolist() == [1] * 4
    assert res.opt_y.tolist() == [1] * 4


@pytest.mark.parametrize("mode", list(Mode))
def test_matches_double_enumeration(mode):
    rng = np.random.default_rng(5)
    for _ in range(40):
        inst = random_instance(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        res = solve_exact(inst, mode)
        brute = bilevel_brute(inst, mode)
        assert res.opt_value == brute[2]
        ev = evaluate_bilevel(inst, res.opt_x, res.opt_y, mode)
        assert ev.bilevel_feasible and ev.rational_and_mode_consistent


def test_pool_entries_feasible_sorted_distinct():
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
def test_pool_matches_per_weight_enumeration(mode):
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


def test_pool_ties_prefer_lighter_leader():
    # both leader vectors are worth 5; the empty one (weight 0) comes first
    inst = BlkpInstance(1, 1, a1=[1], d1=[5], a2=[1], d2=[5], c=[1], b=1)
    res = solve_exact(inst)
    assert res.pool_values.tolist() == [5, 5]
    assert res.pool.tolist() == [[0], [1]]


def test_table_size_guard():
    big = 10 ** 9
    inst = BlkpInstance(1, 1, a1=[big], d1=[1], a2=[big], d2=[1], c=[1], b=big)
    assert 2 * (big + 1) > MAX_DP_CELLS
    with pytest.raises(DpTooLarge, match=f"n=2 .*b={big}"):
        solve_exact(inst)


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


def test_collect_labels_rejects_negative_k():
    res = solve_exact(generate(GenConfig(6, 6, seed=3)))
    assert len(res.pool) > 2  # k = -2 would otherwise slice all but one row
    for k in (-1, -2):
        with pytest.raises(ValueError, match="k must be >= 0"):
            collect_labels(res, k=k)
