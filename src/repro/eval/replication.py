"""Multi-seed replication statistics: are the headline results seed-robust?

Every experiment in this repo is deterministic in its seed; these helpers
rerun a configuration across several seeds and report mean ± sample
standard deviation, so claims like "discontinuity gives 1.46× on DB" can
be qualified with their sensitivity to the synthetic-trace randomness.
The ``replication-check`` catalog entry
(:mod:`repro.eval.catalog.replication`) builds its panels on top of
:func:`summarize`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.eval.profiles import ExperimentScale
from repro.eval.runner import run_system_cached
from repro.eval.runspec import RunSpec

#: default replication seeds (arbitrary, fixed for reproducibility).
DEFAULT_SEEDS = (1337, 2024, 31415, 27182, 16180)

#: the headline schemes the replication check replicates.
REPLICATION_SCHEMES = ("next-4-line", "discontinuity")


@dataclass(frozen=True)
class Replicate:
    """Mean and sample standard deviation of one metric across seeds."""

    mean: float
    std: float
    n: int

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.std:.3f} (n={self.n})"


def summarize(values: Sequence[float]) -> Replicate:
    """Mean ± sample standard deviation of *values*."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return Replicate(mean, 0.0, 1)
    variance = sum((value - mean) ** 2 for value in values) / (n - 1)
    return Replicate(mean, math.sqrt(variance), n)


def replicate_metric(
    metric: Callable[[int], float],
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> Replicate:
    """Evaluate ``metric(seed)`` across *seeds* and summarize."""
    return summarize([metric(seed) for seed in seeds])


def replicate_speedup(
    workload: str,
    n_cores: int,
    prefetcher: str,
    scale: Optional[ExperimentScale] = None,
    l2_policy: str = "bypass",
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> Replicate:
    """Speedup of *prefetcher* over no-prefetch, replicated across seeds."""

    def one(seed: int) -> float:
        base = run_system_cached(
            RunSpec.create(workload, n_cores, "none", scale=scale, seed=seed)
        )
        result = run_system_cached(
            RunSpec.create(
                workload, n_cores, prefetcher, scale=scale, l2_policy=l2_policy, seed=seed
            )
        )
        return result.aggregate_ipc / base.aggregate_ipc

    return replicate_metric(one, seeds)
