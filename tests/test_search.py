import hashlib
from dataclasses import replace

import numpy as np
import pytest

from blkp import search
from blkp.exact import solve_exact
from blkp.instance import BlkpInstance, GenConfig, generate
from blkp.knapsack import Mode, evaluate_bilevel, follower_response, reply_table
from blkp.pnanet import ModelParams, PnaConfig
from blkp.search import SearchConfig, distinct_row_count, solution_search, solve_heuristic

from _oracles import random_instance, search_brute


def tiny_instance():
    return BlkpInstance(1, 1, a1=[2], d1=[3], a2=[2], d2=[5], c=[4], b=2)


def test_fully_fixed_values():
    rng = np.random.default_rng(0)
    inst = random_instance(rng, 2, 3)
    cfg = SearchConfig(theta=0.2, n_samples=25, seed=1)
    res = solution_search(inst, [0.1, 0.9], cfg)
    assert res.best_x.tolist() == ([0, 1] if int(inst.a1[1]) <= inst.b else [0, 0])
    # both values inside the fixing intervals: one distinct sample (+ fallback)
    assert res.distinct_x_count <= 2


def test_threshold_boundaries_inclusive():
    rng = np.random.default_rng(1)
    inst = random_instance(rng, 2, 2)
    cfg = SearchConfig(theta=0.3, n_samples=50, seed=2)
    res = solution_search(inst, [0.3, 0.7], cfg)  # exactly theta and 1 - theta
    feasible1 = int(inst.a1[1]) <= inst.b
    assert res.best_x[0] == 0
    if feasible1:
        assert res.distinct_x_count <= 2


def test_theta_half_leaves_no_free_item():
    # at theta 0.5 every value is fixed, 0.5 itself to 1, so each of the N
    # samples is the rounding at 0.5: one distinct sample and the all-zeros leader
    rng = np.random.default_rng(3)
    for seed in range(20):
        inst = random_instance(rng, 6, 4)
        values = np.concatenate([[0.5, 0.5 - 1e-12], rng.uniform(0, 1, 4)])
        res = solution_search(inst, values, SearchConfig(theta=0.5, n_samples=7, seed=seed))
        rounded = (values >= 0.5).astype(np.int64)
        assert res.samples_evaluated == 7
        assert res.samples_infeasible == (7 if inst.a1 @ rounded > inst.b else 0)
        assert res.distinct_x_count <= 2
        assert res.best_x.tolist() in (rounded.tolist(), [0] * 6)
    # x = [1] scores 3 and fills the knapsack; the all-zeros leader's 5 wins
    res = solution_search(tiny_instance(), [0.5], SearchConfig(theta=0.5, n_samples=7))
    assert (res.best_x.tolist(), res.best_value) == ([0], 5)


def test_near_zero_final_value_reaches_oracle():
    inst = tiny_instance()
    cfg = SearchConfig(theta=0.2, n_samples=5, seed=4)
    res = solution_search(inst, [1e-9], cfg)
    assert res.best_x.tolist() == [0]
    assert res.best_value == 5  # exact optimum of this instance


def test_result_always_feasible_and_consistent():
    rng = np.random.default_rng(5)
    for _ in range(30):
        inst = random_instance(rng, 5, 5)
        values = rng.uniform(0, 1, 5)
        for mode in Mode:
            cfg = SearchConfig(theta=0.2, n_samples=8,
                               seed=int(rng.integers(1 << 30)), mode=mode)
            res = solution_search(inst, values, cfg)
            ev = evaluate_bilevel(inst, res.best_x, res.best_y, mode)
            assert ev.bilevel_feasible and ev.rational_and_mode_consistent
            assert ev.leader_obj == res.best_value


def test_gap_nonnegative_against_oracle():
    rng = np.random.default_rng(6)
    for _ in range(15):
        inst = random_instance(rng, 6, 6)
        values = rng.uniform(0, 1, 6)
        res = solution_search(inst, values,
                              SearchConfig(theta=0.2, n_samples=10, seed=7))
        assert res.best_value <= solve_exact(inst).opt_value


def test_monotone_in_sample_count():
    rng = np.random.default_rng(7)
    inst = random_instance(rng, 8, 8)
    values = rng.uniform(0, 1, 8)
    best = []
    for n in (1, 5, 10, 40):
        res = solution_search(inst, values,
                              SearchConfig(theta=0.1, n_samples=n, seed=8))
        best.append(res.best_value)
    assert best == sorted(best)


def test_candidates_for_n_samples_are_a_prefix_of_n_plus_one():
    # under one seed, the rows scored for N samples are the first N rows
    # scored for N + 1, and the all-zeros leader comes last
    rng = np.random.default_rng(36)
    for _ in range(60):
        values = rng.choice([0.0, 0.2, 0.5, 0.8, 1.0, *rng.uniform(0, 1, 4)],
                            int(rng.integers(1, 15)))
        for theta in (0.0, 0.2, 0.5):
            cfg = SearchConfig(theta=theta, n_samples=int(rng.integers(1, 20)),
                               seed=int(rng.integers(0, 1000)))
            rows = search._candidates(values, cfg)
            more = search._candidates(values, replace(cfg, n_samples=cfg.n_samples + 1))
            assert rows.dtype == more.dtype == np.int64
            assert rows.shape == (cfg.n_samples + 1, len(values))
            assert np.array_equal(rows[:-1], more[:-2])
            assert not rows[-1].any() and not more[-1].any()
            assert set(np.unique(rows).tolist()) <= {0, 1}


def test_search_deterministic():
    rng = np.random.default_rng(8)
    inst = random_instance(rng, 6, 6)
    values = rng.uniform(0, 1, 6)
    cfg = SearchConfig(theta=0.15, n_samples=12, seed=9)
    a = solution_search(inst, values, cfg)
    b = solution_search(inst, values, cfg)
    assert a.best_value == b.best_value
    assert np.array_equal(a.best_x, b.best_x)


def test_infeasible_samples_counted_not_fatal():
    # leader items that never fit force every all-ones sample to be skipped
    inst = BlkpInstance(2, 1, a1=[10, 10], d1=[100, 100], a2=[1], d2=[1],
                        c=[1], b=5)
    cfg = SearchConfig(theta=0.0, n_samples=30, seed=10)
    res = solution_search(inst, [0.99, 0.99], cfg)
    assert res.samples_infeasible > 0
    assert res.best_value >= 1  # fallback follower-only solution


def test_solve_heuristic_end_to_end():
    params = ModelParams(PnaConfig(), seed=0)
    inst = generate(GenConfig(5, 5, seed=11))
    res = solve_heuristic(inst, params, SearchConfig(theta=0.2, n_samples=10,
                                                     seed=11))
    ev = evaluate_bilevel(inst, res.best_x, res.best_y)
    assert ev.bilevel_feasible
    assert res.best_value <= solve_exact(inst).opt_value


def test_invalid_config():
    with pytest.raises(ValueError):
        SearchConfig(theta=0.6)
    for theta in (False, True, "0.2"):  # false used to construct, and ran as theta 0
        with pytest.raises(ValueError, match="theta must be a number"):
            SearchConfig(theta=theta)
    with pytest.raises(ValueError):
        SearchConfig(n_samples=0)
    # a bogus mode used to be refused only inside the search, after the forward
    for mode in ("bogus", None, True):
        with pytest.raises(ValueError, match="mode must be 'optimistic' or 'pessimistic'"):
            SearchConfig(mode=mode)
    assert SearchConfig(mode="pessimistic").to_dict()["mode"] == "pessimistic"


@pytest.mark.parametrize("name, value", [("n_samples", 2.5), ("n_samples", 10.0),
                                         ("n_samples", True), ("seed", True), ("seed", 0.5),
                                         ("seed", "1")])
def test_non_integer_setting_rejected(name, value):
    # n_samples 2.5 used to die inside np.tile, and the seed True ran as seed 1
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        SearchConfig(**{name: value})


@pytest.mark.parametrize("mode", list(Mode))
def test_matches_brute_force_search(mode):
    # small value ranges give ties between candidates, in c and in d2
    rng = np.random.default_rng(12)
    for k in range(150):
        inst = random_instance(rng, int(rng.integers(1, 7)), int(rng.integers(1, 6)),
                               value_max=int(rng.choice([3, 30])))
        values = (rng.choice([0.0, 0.2, 0.5, 0.8, 1.0], inst.n1) if k % 3 == 0
                  else rng.uniform(0, 1, inst.n1))
        cfg = SearchConfig(theta=float(rng.choice([0.0, 0.2, 0.5])),
                           n_samples=int(rng.integers(1, 20)), mode=mode, seed=k)
        res = solution_search(inst, values, cfg)
        value, x, evaluated, infeasible, distinct = search_brute(inst, values, cfg)
        assert res.best_value == value
        assert res.best_x.tolist() == x.tolist()
        assert (res.samples_evaluated, res.samples_infeasible,
                res.distinct_x_count) == (evaluated, infeasible, distinct)
        ev = evaluate_bilevel(inst, res.best_x, res.best_y, mode)
        assert ev.rational_and_mode_consistent and ev.leader_obj == value
        assert np.array_equal(res.best_y, follower_response(inst, res.best_x, mode).y)


def test_ties_go_to_the_first_drawn_sample():
    # x = [1, 0] and x = [0, 1] both score 5; the pair does not fit
    inst = BlkpInstance(2, 1, a1=[1, 1], d1=[5, 5], a2=[1], d2=[1], c=[1], b=1)
    for seed in range(20):
        cfg = SearchConfig(theta=0.0, n_samples=4, seed=seed)
        res = solution_search(inst, [0.5, 0.5], cfg)
        value, x, *_ = search_brute(inst, [0.5, 0.5], cfg)
        assert (res.best_value, res.best_x.tolist()) == (value, x.tolist())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_final_values_rejected(bad):
    inst = tiny_instance()
    with pytest.raises(ValueError, match="finite"):
        solution_search(inst, [bad], SearchConfig())


@pytest.mark.parametrize("values", [[], [0.5, 0.5], [[0.5]]])  # [[0.5]]: one entry, 2-D
def test_final_values_of_the_wrong_length_rejected(values):
    with pytest.raises(ValueError, match="final_values must have length 1"):
        solution_search(tiny_instance(), values, SearchConfig())


def test_distinct_row_count_matches_unique():
    rng = np.random.default_rng(21)
    for _ in range(200):
        rows, n = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        xs = rng.integers(0, 2, (rows, n))
        xs = xs[rng.integers(0, rows, rows + int(rng.integers(0, 6)))]  # duplicate rows
        assert distinct_row_count(xs) == len(np.unique(xs, axis=0))


@pytest.mark.parametrize("mode", list(Mode))
def test_search_equals_the_full_table_reference(monkeypatch, mode):
    # the reply table from b minus the heaviest feasible candidate up gives the
    # answers a table from residual 0 gives
    rng = np.random.default_rng(22)
    cases = []
    for k in range(60):
        inst = generate(GenConfig(int(rng.integers(1, 11)), int(rng.integers(1, 51)),
                                  data_type="UC" if k % 2 else "C",
                                  value_max=int(rng.choice([30, 1000])), seed=k))
        cfg = SearchConfig(theta=float(rng.choice([0.0, 0.2, 0.5])),
                           n_samples=int(rng.integers(1, 20)), mode=mode, seed=k)
        cases.append((inst, rng.uniform(0, 1, inst.n1), cfg))
    lowest = []

    def recording(inst, mode, lo=0):
        lowest.append(lo)
        return reply_table(inst, mode, lo)

    monkeypatch.setattr(search, "reply_table", recording)
    got = [solution_search(*case) for case in cases]
    monkeypatch.setattr(search, "reply_table", lambda inst, mode, lo=0: reply_table(inst, mode))
    want = [solution_search(*case) for case in cases]
    for res, ref, (inst, _values, _cfg), lo in zip(got, want, cases, lowest):
        assert res.best_x.tolist() == ref.best_x.tolist()
        assert res.best_y.tolist() == ref.best_y.tolist()
        assert res.best_value == ref.best_value
        assert 0 <= lo <= inst.b - int(inst.a1 @ res.best_x)
    assert sum(lo > 0 for lo in lowest) > len(lowest) // 2  # the narrowing ran


# sha256 of the search's answers on 200 generated n1 = 10 instances (n2 10 and
# 50, UC and C, both modes); the final values come from a fixed RNG, not the
# network, so the pin moves with the search's bits alone (tests/test_pnanet.py
# pins the forward the same way)
SEARCH_SHA256 = "04b1c08aa02e1b6e4c70010c369abfc57820bdb25864d26d24fca2c3a9f65ebc"


def test_search_bits_are_pinned():
    digest = hashlib.sha256()
    for seed in range(200):
        n2, data_type = (10, 50)[seed % 2], ("UC", "C")[seed // 2 % 2]
        mode = list(Mode)[seed // 4 % 2]
        inst = generate(GenConfig(10, n2, data_type=data_type, seed=seed))
        values = np.random.default_rng(seed).uniform(0, 1, inst.n1)
        res = solution_search(inst, values, SearchConfig(mode=mode, seed=seed))
        digest.update(res.best_x.tobytes() + res.best_y.tobytes() + str(res.best_value).encode())
    assert digest.hexdigest() == SEARCH_SHA256
