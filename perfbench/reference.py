"""Independent references the benchmark checks the program against.

Nothing here calls the code under test: the double enumeration and the
fractional bound read only the instance arrays.
"""

from fractions import Fraction

import numpy as np

INT64_MAX = np.iinfo(np.int64).max


def _subsets(n):
    """(2^n, n) 0/1 matrix; row k holds the binary digits of k."""
    ks = np.arange(2 ** n, dtype=np.int64)
    return (ks[:, None] >> np.arange(n)) & 1


def bilevel_optimum(inst, optimistic):
    """Optimal leader value by enumerating every leader and follower subset.

    For each leader subset that fits, the follower keeps the subsets of
    maximum follower profit within the residual capacity and, among those,
    the one of largest (optimistic) or smallest (pessimistic) leader profit.
    Meant for n1, n2 <= 8: it builds a 2^n1 x 2^n2 table.
    """
    xs = _subsets(inst.n1)
    residual = inst.b - xs @ inst.a1
    fits = residual >= 0
    xs, residual = xs[fits], residual[fits]
    ys = _subsets(inst.n2)
    y_weight, y_follower, y_leader = ys @ inst.a2, ys @ inst.c, ys @ inst.d2
    room = y_weight[None, :] <= residual[:, None]
    z_star = np.where(room, y_follower[None, :], -1).max(axis=1)
    tied = room & (y_follower[None, :] == z_star[:, None])
    if optimistic:
        reply = np.where(tied, y_leader[None, :], -1).max(axis=1)
    else:
        reply = np.where(tied, y_leader[None, :], INT64_MAX).min(axis=1)
    return int((xs @ inst.d1 + reply).max())


def fractional_bound(inst):
    """Upper bound on any leader value, as an exact Fraction.

    Greedy fractional knapsack over all leader and follower items valued
    at leader profit (d1, d2). It relaxes integrality and the follower's
    rationality, so every bilevel-feasible value lies at or below it.
    """
    weights = [int(w) for w in inst.a1] + [int(w) for w in inst.a2]
    profits = [int(p) for p in inst.d1] + [int(p) for p in inst.d2]
    order = sorted(range(len(weights)), key=lambda j: Fraction(profits[j], weights[j]),
                   reverse=True)
    room, total = inst.b, 0
    for j in order:
        if weights[j] > room:
            return Fraction(total) + Fraction(profits[j] * room, weights[j])
        room -= weights[j]
        total += profits[j]
    return Fraction(total)


def gap_pct(reference, value):
    """Percentage by which value falls short of a positive reference."""
    return 100.0 * float((Fraction(reference) - value) / Fraction(reference))
