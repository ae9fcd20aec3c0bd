"""Sampling-based solution search over the predicted final values.

Each of N samples rounds the leader vector from the per-item
probabilities: values in [0, theta] are fixed to 0, values in
[1 - theta, 1] are fixed to 1, the rest are Bernoulli draws, and the
all-zeros leader is always scored as a fallback, last. The candidates
fill one (N + 1, n1) array, and the rows for N samples are the first N
rows for N + 1. One `blkp.knapsack.reply_table` scores every feasible
candidate x, d1 . x + L(b - a1 . x), and gives the winner's reply; the
search worked out the residuals b - a1 . x itself, so it reads the table
without the range check its public readers make. Only the residuals
from b minus the heaviest feasible candidate's weight up to b are read,
so the table is asked for those alone, and `blkp.knapsack.table_form`
sizes it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .graphrep import DEFAULT_NORM, NormalizationScheme
from .instance import check_int, is_number
# follower_response stays bound here: perfbench/tracing.py's patch table wraps it by name
from .knapsack import Mode, follower_response, reply_table  # noqa: F401
from .pnanet import forward

_MODES = tuple(Mode)  # a member or its string value; a tuple compares without hashing


@dataclass(frozen=True)
class SearchConfig:
    theta: float = 0.2
    n_samples: int = 10
    mode: Mode = Mode.OPTIMISTIC
    seed: int = 0

    def __post_init__(self):
        if not (is_number(self.theta) and 0.0 <= self.theta <= 0.5):  # false would run as 0
            raise ValueError(f"theta must be a number in [0, 0.5], got {self.theta!r}")
        if self.mode not in _MODES:  # else refused only inside the search, after the forward
            raise ValueError(f"mode must be 'optimistic' or 'pessimistic', got {self.mode!r}")
        check_int("n_samples", self.n_samples, 1)
        check_int("seed", self.seed, 0)  # the seed True would run as 1

    def to_dict(self):
        return {**asdict(self), "mode": Mode(self.mode).value}


@dataclass
class SearchResult:
    best_x: np.ndarray
    best_y: np.ndarray
    best_value: int
    samples_evaluated: int = 0
    samples_infeasible: int = 0
    distinct_x_count: int = 0


def distinct_row_count(xs) -> int:
    """The number of distinct rows of a 2-D array, len(np.unique(xs, axis=0))."""
    return len({row.tobytes() for row in xs})


def _candidates(final_values, cfg: SearchConfig) -> np.ndarray:
    """The (N + 1, n1) int64 leaders a search scores: N rounded samples, then all zeros.

    Each sample draws its free items from one generator seeded by
    cfg.seed, row by row, so the rows for N samples are the first N rows
    for N + 1.
    """
    # the fix-to-1 interval is checked first, so a value of exactly 0.5 at
    # theta = 0.5 rounds to 1: theta = 0.5 leaves no item free and every
    # sample is the deterministic rounding at 0.5
    fix1 = final_values >= 1.0 - cfg.theta
    free = ~fix1 & (final_values > cfg.theta)
    # the all-zeros leader goes last: it always fits, and argmax keeps the
    # first best row, so earlier samples win ties and it wins only when
    # strictly better than every sample
    xs = np.zeros((cfg.n_samples + 1, len(final_values)), dtype=np.int64)
    samples = xs[:-1]
    samples[:] = fix1
    rng = np.random.default_rng(cfg.seed)
    samples[:, free] = rng.random((cfg.n_samples, int(free.sum()))) < final_values[free]
    return xs


def solution_search(inst, final_values, cfg: SearchConfig) -> SearchResult:
    """Best of the rounded samples and the all-zeros leader.

    The scoring table is read from the lowest candidate residual, and a
    table `blkp.knapsack.table_form` refuses raises DpTooLarge. Final
    values that are not a 1-D array of n1 finite numbers raise
    ValueError.
    """
    final_values = np.asarray(final_values, dtype=np.float64)
    if final_values.shape != (inst.n1,):
        raise ValueError(f"final_values must have length {inst.n1}, as a 1-D array")
    if not np.isfinite(final_values).all():
        raise ValueError("final_values must be finite")
    xs = _candidates(final_values, cfg)
    weights = xs @ inst.a1
    feasible = weights <= inst.b
    xs, weights = xs[feasible], weights[feasible]
    follower = reply_table(inst, cfg.mode, inst.b - int(weights.max()))
    # every residual lies in the table's [lowest, b]: the scores skip its range check
    scores = xs @ inst.d1 + follower._leader_profit(inst.b - weights)
    best = int(np.argmax(scores))
    return SearchResult(
        best_x=xs[best], best_y=follower.reply(inst.b - int(weights[best])),
        best_value=int(scores[best]), samples_evaluated=cfg.n_samples,
        samples_infeasible=cfg.n_samples + 1 - len(xs),  # the all-zeros leader always fits
        distinct_x_count=distinct_row_count(xs),
    )


def solve_heuristic(inst, params, cfg: SearchConfig,
                    norm: NormalizationScheme = DEFAULT_NORM) -> SearchResult:
    """Forward pass plus sampling search; the end-to-end entry point."""
    values = forward(inst, params, norm=norm)
    return solution_search(inst, values, cfg)
