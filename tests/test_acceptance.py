"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines. The desk-scale model (criteria 6-10, marked `slow`) is
trained once per session and reused.
"""

import time

import numpy as np
import pytest

from blkp import ndiff
from blkp.exact import collect_labels, solve_exact
from blkp.graphrep import build_graph
from blkp.instance import BlkpInstance, GenConfig, generate
from blkp.knapsack import Mode, evaluate_bilevel, follower_response, knapsack_max
from blkp.pnanet import (ModelParams, PnaConfig, forward, forward_tensor,
                         load_checkpoint, save_checkpoint)
from blkp.search import SearchConfig, solution_search, solve_heuristic
from blkp.trainer import LabeledSample, TrainConfig, build_dataset, train

from _gradcheck import check_params
from _oracles import bilevel_brute, follower_brute, knapsack_brute


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# --- shared desk-scale model -------------------------------------------------

DESK_N = 10
DESK_TRAIN_INSTANCES = 200
DESK_EPOCHS = 60


def desk_instance(i, seed_base, n=DESK_N):
    data_type = "UC" if i % 2 else "C"
    return generate(GenConfig(n, n, data_type=data_type, seed=seed_base + i))


@pytest.fixture(scope="session")
def desk_model():
    t0 = time.perf_counter()
    instances = [desk_instance(i, 1000) for i in range(DESK_TRAIN_INSTANCES)]
    labels = [
        [x.astype(float) for x, _ in collect_labels(solve_exact(inst), k=10)]
        for inst in instances
    ]
    cfg = TrainConfig(epochs=DESK_EPOCHS, early_stop_patience=DESK_EPOCHS,
                      batch_size=550, split=0.8, seed=0)
    train_set, val_set = build_dataset(instances, labels, cfg)
    result = train(instances, train_set, val_set, PnaConfig(), cfg)
    elapsed = time.perf_counter() - t0
    return result, elapsed


# --- criteria ----------------------------------------------------------------

def test_criterion_1_knapsack_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 16))
        p = rng.integers(0, 40, n)
        w = rng.integers(1, 25, n)
        cap = int(rng.integers(0, 150))
        value, sel = knapsack_max(p, w, cap)
        assert value == knapsack_brute(p, w, cap)
        assert int(sel @ w) <= cap and int(sel @ p) == value
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 10.0,
           f"1000 knapsacks match enumeration in {elapsed:.2f}s")


def test_criterion_2_follower_response_equivalence():
    rng = np.random.default_rng(102)
    from _oracles import random_instance
    checked = 0
    for _ in range(500):
        inst = random_instance(rng, int(rng.integers(1, 6)),
                               int(rng.integers(1, 13)))
        x = rng.integers(0, 2, inst.n1)
        if int(inst.a1 @ x) > inst.b:
            x = np.zeros(inst.n1, dtype=np.int64)
        for mode in Mode:
            resp = follower_response(inst, x, mode)
            _y, z, lv = follower_brute(inst, x, mode)
            assert resp.z_star == z and resp.leader_value == lv
            checked += 1
    report(2, checked >= 1000,
           f"{checked} (instance, leader, mode) triples match the two-stage "
           "brute force")


def test_criterion_3_exact_oracle_equivalence():
    rng = np.random.default_rng(103)
    from _oracles import random_instance
    t0 = time.perf_counter()
    count = 0
    for k in range(200):
        inst = random_instance(rng, int(rng.integers(1, 13)),
                               int(rng.integers(1, 13)))
        mode = Mode.OPTIMISTIC if k % 2 else Mode.PESSIMISTIC
        res = solve_exact(inst, mode)
        brute = bilevel_brute(inst, mode)
        assert res.opt_value == brute[2]
        assert res.proven_optimal
        count += 1
    elapsed = time.perf_counter() - t0
    report(3, count == 200 and elapsed < 60.0,
           f"200 instances match double enumeration in {elapsed:.2f}s")


def test_criterion_4_gradient_correctness():
    checked_total = 0
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        params = ModelParams(PnaConfig(), seed=seed)
        inst = generate(GenConfig(5, 5, seed=300 + seed))
        graph = build_graph(inst)
        labels = rng.integers(0, 2, 5).astype(float)

        loss = ndiff.bce_loss(forward_tensor(graph, params), labels)
        loss.backward()

        def loss_value():
            return float(ndiff.bce_loss(forward_tensor(graph, params),
                                        labels).data)

        checked_total += check_params(loss_value, params.parameters(), rng,
                                      per_param=1, rtol=1e-4)
    report(4, True,
           f"end-to-end gradients match finite differences at rel. tol 1e-4 "
           f"({checked_total} coordinates over 20 instances)")


def test_criterion_5_permutation_properties():
    params = ModelParams(PnaConfig(), seed=5)
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(400 + seed)
        n1 = int(rng.integers(2, 9))
        n2 = int(rng.integers(2, 9))
        inst = generate(GenConfig(n1, n2, seed=500 + seed))
        base = forward(inst, params)
        fperm = rng.permutation(n2)
        finst = BlkpInstance(n1, n2, inst.a1, inst.d1, inst.a2[fperm],
                             inst.d2[fperm], inst.c[fperm], inst.b)
        worst = max(worst, float(np.abs(forward(finst, params) - base).max()))
        lperm = rng.permutation(n1)
        linst = BlkpInstance(n1, n2, inst.a1[lperm], inst.d1[lperm],
                             inst.a2, inst.d2, inst.c, inst.b)
        worst = max(worst,
                    float(np.abs(forward(linst, params) - base[lperm]).max()))
    report(5, worst <= 1e-9,
           f"permutation invariance/equivariance, worst deviation {worst:.2e}")


@pytest.mark.slow
def test_criterion_6_training_sanity(desk_model):
    # overfit: one instance, one label
    inst = generate(GenConfig(5, 5, seed=600))
    label = solve_exact(inst).opt_x.astype(float)
    cfg = TrainConfig(epochs=500, early_stop_patience=500, batch_size=8,
                      seed=6)
    result = train([inst], [LabeledSample(0, label)], [], PnaConfig(), cfg)
    overfit_bce = min(tr for tr, _ in result.history)

    desk, elapsed = desk_model
    reduction = 1.0 - desk.best_val_loss / desk.initial_val_loss
    ok = overfit_bce < 0.01 and reduction >= 0.30 and elapsed < 1800
    report(6, ok,
           f"overfit BCE {overfit_bce:.4f} < 0.01; validation loss "
           f"{desk.initial_val_loss:.3f} -> {desk.best_val_loss:.3f} "
           f"({100 * reduction:.1f}% reduction) in {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_7_desk_scale_gap(desk_model):
    desk, _ = desk_model
    gaps = []
    times = []
    for i in range(50):
        inst = desk_instance(i, 9000)
        exact = solve_exact(inst)
        t0 = time.perf_counter()
        res = solve_heuristic(inst, desk.params,
                              SearchConfig(theta=0.2, n_samples=10, seed=i))
        times.append(time.perf_counter() - t0)
        ev = evaluate_bilevel(inst, res.best_x, res.best_y)
        assert ev.bilevel_feasible and ev.rational_and_mode_consistent
        gaps.append(100.0 * (exact.opt_value - res.best_value) / exact.opt_value)
    avg_gap = float(np.mean(gaps))
    avg_time = float(np.mean(times))
    ok = avg_gap <= 5.0 and avg_time < 0.2
    report(7, ok,
           f"held-out avg gap {avg_gap:.2f}% (max {max(gaps):.2f}%), "
           f"avg time {avg_time * 1000:.1f}ms, all solutions feasible")


@pytest.mark.slow
def test_criterion_8_monotonicity_and_rounding(desk_model):
    desk, _ = desk_model
    for i in range(10):
        inst = desk_instance(i, 9500)
        values = forward(inst, desk.params)
        prev = None
        for n in (1, 5, 10, 30):
            res = solution_search(inst, values,
                                  SearchConfig(theta=0.2, n_samples=n, seed=42))
            if prev is not None:
                assert res.best_value >= prev
            prev = res.best_value
        det = solution_search(inst, values,
                              SearchConfig(theta=0.5, n_samples=1, seed=42,
                                           deterministic_rounding=True))
        ev = evaluate_bilevel(inst, det.best_x, det.best_y)
        assert ev.bilevel_feasible
        assert det.best_value <= solve_exact(inst).opt_value
    report(8, True, "best value non-decreasing in N; deterministic rounding "
                    "feasible with non-negative gap")


@pytest.mark.slow
def test_criterion_9_size_generalization(desk_model):
    desk, _ = desk_model
    details = []
    for n in (15, 20, 25):
        for i in range(2):
            inst = desk_instance(i, 9700 + 7 * n, n=n)
            res = solve_heuristic(inst, desk.params,
                                  SearchConfig(theta=0.2, n_samples=10, seed=n + i))
            ev = evaluate_bilevel(inst, res.best_x, res.best_y)
            assert ev.bilevel_feasible
            ref = solve_exact(inst)
            assert res.best_value <= ref.opt_value
            gap = 100.0 * (ref.opt_value - res.best_value) / ref.opt_value
            assert np.isfinite(gap)
            details.append(f"n={n}: gap {gap:.1f}%")
    report(9, True, "feasible with finite gaps without retraining: "
                    + "; ".join(details))


@pytest.mark.slow
def test_criterion_10_round_trip_integrity(tmp_path, desk_model):
    desk, _ = desk_model
    from blkp.graphrep import DEFAULT_NORM
    from blkp.instance import read_instance, write_instance

    inst = desk_instance(3, 9900)
    ipath = tmp_path / "inst.json"
    write_instance(inst, ipath)
    inst2 = read_instance(ipath)
    assert inst2 == inst

    cpath = tmp_path / "model.json"
    save_checkpoint(desk.params, DEFAULT_NORM, {"purpose": "acceptance"}, cpath)
    params2, norm2, _ = load_checkpoint(cpath)
    out1 = forward(inst, desk.params)
    out2 = forward(inst2, params2, norm=norm2)
    ok = np.array_equal(out1, out2)
    report(10, ok, "instance and checkpoint round-trips reproduce forward "
                   "outputs bit-exactly")
