"""Turn model predictions into feasible solutions, and measure the gap.

The network outputs a probability per leader item. The solution search
fixes confident predictions (probability within theta of 0 or 1) and
samples the uncertain rest, evaluating each candidate through the exact
follower response so every reported solution is bilevel feasible. More
samples can only help: the best value is non-decreasing in N.

Run demo 02 first to produce demo_model.json; without it this script
falls back to an untrained network, which still yields feasible
solutions but larger gaps — a nice ablation in itself.
"""

import os
import time

import numpy as np

from blkp import (GenConfig, ModelParams, PnaConfig, SearchConfig, generate,
                  load_checkpoint, solve_exact, solve_heuristic)

CHECKPOINT = "demo_model.json"


def main():
    if os.path.exists(CHECKPOINT):
        params, norm, meta = load_checkpoint(CHECKPOINT)
        print(f"loaded trained checkpoint {CHECKPOINT} ({meta})")
    else:
        params = ModelParams(PnaConfig(), seed=0)
        print(f"{CHECKPOINT} not found — using an untrained network "
              "(run demo 02 to fix that)")

    instances = [
        generate(GenConfig(10, 10, data_type="UC" if i % 2 else "C",
                           seed=5000 + i))
        for i in range(20)
    ]
    exact_values = [solve_exact(inst).opt_value for inst in instances]

    print("\n=== Effect of the sample budget N (theta = 0.2) ===")
    for n_samples in (1, 5, 10, 50):
        gaps, elapsed = [], 0.0
        for inst, opt in zip(instances, exact_values):
            t0 = time.perf_counter()
            res = solve_heuristic(inst, params,
                                  SearchConfig(theta=0.2, n_samples=n_samples,
                                               seed=123))
            elapsed += time.perf_counter() - t0
            gaps.append(100.0 * (opt - res.best_value) / opt)
        print(f"N = {n_samples:>3}: avg gap {np.mean(gaps):5.2f}%  "
              f"max gap {np.max(gaps):5.2f}%  "
              f"avg time {1000 * elapsed / len(instances):.1f}ms")

    print("\n=== Deterministic rounding (theta 0.5 fixes every item) ===")
    gaps = []
    for inst, opt in zip(instances, exact_values):
        res = solve_heuristic(inst, params,
                              SearchConfig(theta=0.5, n_samples=1, seed=0))
        gaps.append(100.0 * (opt - res.best_value) / opt)
    print(f"avg gap {np.mean(gaps):5.2f}%  max gap {np.max(gaps):5.2f}%")

    print("\n=== Size generalization (no retraining) ===")
    for n in (15, 20, 25):
        inst = generate(GenConfig(n, n, seed=6000 + n))
        res = solve_heuristic(inst, params,
                              SearchConfig(theta=0.2, n_samples=10, seed=n))
        ref = solve_exact(inst)
        gap = 100.0 * (ref.opt_value - res.best_value) / ref.opt_value
        print(f"n1 = n2 = {n}: heuristic {res.best_value}, "
              f"optimum {ref.opt_value}, gap {gap:.2f}%")


if __name__ == "__main__":
    main()
