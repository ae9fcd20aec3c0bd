"""Sampling-based solution search over the predicted final values.

Each of N samples rounds the leader vector from the per-item
probabilities: values in [0, theta] are fixed to 0, values in
[1 - theta, 1] are fixed to 1, the rest are Bernoulli draws. Every
feasible candidate x scores d1 . x + L(b - a1 . x); L and the winner's
reply come from one `follower_response` to the all-zeros leader, which
is always scored as a fallback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .knapsack import Mode, follower_response
from .pnanet import forward


@dataclass(frozen=True)
class SearchConfig:
    theta: float = 0.2
    n_samples: int = 10
    mode: Mode = Mode.OPTIMISTIC
    seed: int = 0
    deterministic_rounding: bool = False

    def __post_init__(self):
        if not (0.0 <= self.theta <= 0.5):
            raise ValueError("theta must lie in [0, 0.5]")
        if self.n_samples < 1:
            raise ValueError("need at least one sample")

    def to_dict(self):
        return {
            "theta": self.theta,
            "n_samples": self.n_samples,
            "mode": Mode(self.mode).value,
            "seed": self.seed,
            "deterministic_rounding": self.deterministic_rounding,
        }


@dataclass
class SearchResult:
    best_x: np.ndarray
    best_y: np.ndarray
    best_value: int
    samples_evaluated: int = 0
    samples_infeasible: int = 0
    distinct_x_count: int = 0
    elapsed: float = 0.0


def solution_search(inst, final_values, cfg: SearchConfig) -> SearchResult:
    """Best of the rounded samples and the all-zeros leader.

    The scoring row's DP size guard checks n2 * (b + 1) cells, whatever
    the candidates' residuals. Non-finite final values raise ValueError.
    """
    final_values = np.asarray(final_values, dtype=np.float64).ravel()
    if final_values.shape != (inst.n1,):
        raise ValueError(f"final_values must have length {inst.n1}")
    if not np.isfinite(final_values).all():
        raise ValueError("final_values must be finite")
    start = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)

    # the fix-to-1 interval is checked first, so a value of exactly 0.5 at
    # theta = 0.5 rounds to 1; deterministic rounding sends free values to 0
    fix1 = final_values >= 1.0 - cfg.theta
    n_samples = 1 if cfg.deterministic_rounding else cfg.n_samples
    samples = np.tile(fix1.astype(np.int64), (n_samples, 1))
    if not cfg.deterministic_rounding:
        free = ~fix1 & (final_values > cfg.theta)
        samples[:, free] = rng.random((n_samples, int(free.sum()))) < final_values[free]

    # the all-zeros leader goes last: it always fits, and argmax keeps the
    # first best row, so earlier samples win ties and it wins only when
    # strictly better than every sample
    xs = np.vstack([samples, np.zeros((1, inst.n1), dtype=np.int64)])
    weights = xs @ inst.a1
    feasible = weights <= inst.b
    xs, weights = xs[feasible], weights[feasible]
    follower = follower_response(inst, np.zeros(inst.n1, dtype=np.int64), cfg.mode)
    scores = xs @ inst.d1 + follower.leader_profits[inst.b - weights]
    best = int(np.argmax(scores))
    return SearchResult(
        best_x=xs[best], best_y=follower.reply(inst.b - int(weights[best])),
        best_value=int(scores[best]), samples_evaluated=len(samples),
        samples_infeasible=int((~feasible).sum()),
        distinct_x_count=len(np.unique(xs, axis=0)),
        elapsed=time.perf_counter() - start,
    )


def solve_heuristic(inst, params, cfg: SearchConfig, norm=None) -> SearchResult:
    """Forward pass plus sampling search; the end-to-end entry point."""
    from .graphrep import DEFAULT_NORM
    values = forward(inst, params, norm=norm or DEFAULT_NORM)
    return solution_search(inst, values, cfg)
