"""Generate bilevel knapsack instances and solve them exactly.

The story: a leader and a follower share one knapsack of capacity b. The
leader commits to a subset of its items first; the follower then packs
its own items to maximize its profit c within the remaining capacity.
The leader's payoff depends on both selections (d1 for its own items,
d2 for the follower's), so a good leader choice anticipates the
follower's reaction.

This script generates a few random instances, shows what the follower
does in response to a fixed leader decision, and then computes the true
bilevel optimum with the two-phase dynamic program; with few items its
tables list every selection instead of filling a DP row.
"""

import time

import numpy as np

from blkp import (GenConfig, Mode, collect_labels, follower_response,
                  generate, solve_exact)


def main():
    print("=== 1. A single instance, up close ===")
    inst = generate(GenConfig(n1=5, n2=5, data_type="UC", seed=42))
    print(f"capacity b = {inst.b}")
    print(f"leader   items: weights {inst.a1.tolist()}, payoffs {inst.d1.tolist()}")
    print(f"follower items: weights {inst.a2.tolist()}, "
          f"leader payoffs {inst.d2.tolist()}, follower profits {inst.c.tolist()}")

    print("\n=== 2. The follower's reaction ===")
    # Suppose the leader takes nothing vs. its single densest item.
    for x in (np.zeros(5, dtype=np.int64),
              np.eye(5, dtype=np.int64)[int(np.argmax(inst.d1 / inst.a1))]):
        resp = follower_response(inst, x, Mode.OPTIMISTIC)
        print(f"leader x = {x.tolist()} -> follower y = {resp.y.tolist()}, "
              f"follower profit {resp.z_star}, leader payoff {resp.leader_value}")

    print("\n=== 3. The exact bilevel optimum ===")
    for mode in (Mode.OPTIMISTIC, Mode.PESSIMISTIC):
        res = solve_exact(inst, mode)
        print(f"{mode.name.lower():<12} optimum {res.opt_value}: "
              f"x = {res.opt_x.tolist()}, y = {res.opt_y.tolist()} "
              f"({res.node_count} table entries: at n = 5 each side lists "
              f"its 2^5 selections, cheaper here than a DP row)")

    print("\n=== 4. A batch, and the label pool used for training ===")
    for seed in range(3):
        inst = generate(GenConfig(n1=10, n2=10,
                                  data_type="C" if seed % 2 else "UC",
                                  seed=seed))
        res = solve_exact(inst)
        labels = collect_labels(res, k=5)
        print(f"seed {seed}: optimum {res.opt_value}, "
              f"{len(labels)} labels with values "
              f"{[v for _, v in labels]}")

    print("\n=== 5. A larger instance ===")
    big = generate(GenConfig(n1=25, n2=25, seed=7))
    t0 = time.perf_counter()
    res = solve_exact(big)
    elapsed = time.perf_counter() - t0
    print(f"n = 25: value {res.opt_value} (proven optimal, {res.node_count} DP cells, "
          f"each row capped at its items' total weight, in {elapsed * 1000:.1f} ms)")


if __name__ == "__main__":
    main()
