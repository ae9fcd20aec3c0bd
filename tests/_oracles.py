"""Independent brute-force oracles used to check the fast paths.

Everything here enumerates subsets explicitly (vectorized with numpy for
speed) and never calls the DP code under test.
"""

import numpy as np

from blkp.knapsack import Mode

_SUBSET_CACHE = {}


def all_subsets(n: int) -> np.ndarray:
    """(2^n, n) 0/1 matrix, row k = binary digits of k (LSB first)."""
    if n not in _SUBSET_CACHE:
        ks = np.arange(2 ** n, dtype=np.int64)
        _SUBSET_CACHE[n] = ((ks[:, None] >> np.arange(n)) & 1).astype(np.int64)
    return _SUBSET_CACHE[n]


def knapsack_brute(profits, weights, capacity):
    """Optimal 0/1 knapsack value by full enumeration."""
    profits = np.asarray(profits, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    subs = all_subsets(len(profits))
    feasible = subs @ weights <= capacity
    values = subs @ profits
    return int(values[feasible].max())


def follower_brute(inst, x_bar, mode):
    """Two-stage brute force: SP1-optimal filter, then the mode extreme.

    Returns (y, z_star, leader_value).
    """
    mode = Mode(mode)
    x_bar = np.asarray(x_bar, dtype=np.int64)
    residual = inst.b - int(inst.a1 @ x_bar)
    if residual < 0:
        raise ValueError("leader overweight")
    subs = all_subsets(inst.n2)
    feasible = subs @ inst.a2 <= residual
    follower_vals = subs @ inst.c
    z_star = int(follower_vals[feasible].max())
    tied = feasible & (follower_vals == z_star)
    leader_part = subs @ inst.d2
    masked = np.where(tied, leader_part,
                      -1 if mode is Mode.OPTIMISTIC else np.iinfo(np.int64).max)
    idx = int(np.argmax(masked)) if mode is Mode.OPTIMISTIC else int(np.argmin(masked))
    y = subs[idx]
    leader_value = int(inst.d1 @ x_bar) + int(inst.d2 @ y)
    return y, z_star, leader_value


def bilevel_brute(inst, mode):
    """Double enumeration over leader assignments; returns (x, y, value)."""
    best = None
    subs1 = all_subsets(inst.n1)
    for x in subs1:
        if int(inst.a1 @ x) > inst.b:
            continue
        _y, _z, value = follower_brute(inst, x, mode)
        if best is None or value > best[2]:
            best = (x, _y, value)
    return best


def pool_brute(inst, mode):
    """Best bilevel value per reachable leader weight, by double enumeration.

    Returns {leader weight a1 . x: max leader value over x of that weight}.
    """
    best = {}
    for x in all_subsets(inst.n1):
        weight = int(inst.a1 @ x)
        if weight > inst.b:
            continue
        value = follower_brute(inst, x, mode)[2]
        best[weight] = max(value, best.get(weight, value))
    return best


def search_brute(inst, final_values, cfg):
    """The sampling search by its written rule, each candidate scored by
    `follower_brute`.

    Sample k rounds the free items (theta < v < 1 - theta) with the k-th
    draw of rng.random over them; the all-zeros leader comes last, and the
    first candidate with the best value wins. Returns (best value, best x,
    samples evaluated, samples infeasible, distinct feasible x including
    the all-zeros leader).
    """
    values = np.asarray(final_values, dtype=np.float64)
    rng = np.random.default_rng(cfg.seed)
    fix1 = values >= 1.0 - cfg.theta
    free = (values > cfg.theta) & ~fix1
    samples = []
    for _ in range(cfg.n_samples):
        x = fix1.astype(np.int64)
        x[free] = rng.random(int(free.sum())) < values[free]
        samples.append(x)
    best, seen, infeasible = None, set(), 0
    for x in samples + [np.zeros(inst.n1, dtype=np.int64)]:
        if int(inst.a1 @ x) > inst.b:
            infeasible += 1
            continue
        seen.add(tuple(x.tolist()))
        value = follower_brute(inst, x, cfg.mode)[2]
        if best is None or value > best[0]:
            best = (value, x)
    return best[0], best[1], len(samples), infeasible, len(seen)


def random_instance(rng, n1, n2, value_max=30, alpha=(0.4, 0.9)):
    """Small random instance for oracle comparisons."""
    from blkp.instance import BlkpInstance
    a1 = rng.integers(1, value_max + 1, n1)
    d1 = rng.integers(1, value_max + 1, n1)
    a2 = rng.integers(1, value_max + 1, n2)
    d2 = rng.integers(1, value_max + 1, n2)
    c = rng.integers(1, value_max + 1, n2)
    total = int(a1.sum() + a2.sum())
    b = int(rng.uniform(*alpha) * total)
    return BlkpInstance(n1, n2, a1, d1, a2, d2, c, b)
