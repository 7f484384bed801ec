"""Experiment scale profiles.

A scale sets how many instructions are warmed and measured per core.  The
cache geometry is never scaled — only simulation length — so miss-rate
*regimes* match the paper at every scale; longer runs tighten confidence
intervals and deepen L2 warm-up.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.envvars import REPRO_PROFILE


@dataclass(frozen=True)
class ExperimentScale:
    """Instruction budgets for one experiment run."""

    name: str
    #: warm-up instructions per core (stats discarded).
    warm_instructions: int
    #: measured instructions per core (single-core runs).
    measure_instructions: int
    #: measured instructions per core in CMP runs (kept smaller because the
    #: CMP simulates n_cores × this amount of work).
    cmp_measure_instructions: int

    @property
    def cmp_warm_instructions(self) -> int:
        """Per-core warm-up for CMP runs.

        Four cores co-warm the one shared L2, so per-core warm-up is scaled
        down to keep the *total* warm-up work on the shared L2 comparable
        to the single-core configuration (private L1s warm within a few
        tens of thousands of instructions regardless).
        """
        return max(40_000, self.warm_instructions // 3)

    @property
    def single_total(self) -> int:
        return self.warm_instructions + self.measure_instructions

    @property
    def cmp_total_per_core(self) -> int:
        return self.cmp_warm_instructions + self.cmp_measure_instructions


SCALES = {
    "smoke": ExperimentScale(
        name="smoke",
        warm_instructions=60_000,
        measure_instructions=150_000,
        cmp_measure_instructions=80_000,
    ),
    "default": ExperimentScale(
        name="default",
        warm_instructions=300_000,
        measure_instructions=1_200_000,
        cmp_measure_instructions=500_000,
    ),
    "full": ExperimentScale(
        name="full",
        warm_instructions=1_000_000,
        measure_instructions=4_000_000,
        cmp_measure_instructions=2_000_000,
    ),
}


def get_scale(name: str = "") -> ExperimentScale:
    """Return the requested scale, or the environment/default one.

    Resolution order: explicit *name* argument → ``REPRO_PROFILE``
    environment variable → ``"default"``.
    """
    resolved = name or os.environ.get(REPRO_PROFILE, "") or "default"
    try:
        return SCALES[resolved]
    except KeyError:
        raise KeyError(f"unknown scale {resolved!r}; available: {sorted(SCALES)}") from None
