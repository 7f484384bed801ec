"""Multi-seed replication of the headline CMP speedups.

The catalog entry reruns the two headline schemes across a fixed seed
set (ignoring the caller's seed, so the run set is the same no matter
how the experiment is invoked) and reports mean ± sample standard
deviation per workload.  The statistics helpers live in
:mod:`repro.eval.replication`.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.eval.catalog._util import BASE, workload_axis
from repro.eval.experiment import (
    Band,
    Compare,
    Experiment,
    ExperimentContext,
    Grid,
    PanelDef,
    Runs,
)
from repro.eval.replication import DEFAULT_SEEDS, REPLICATION_SCHEMES, summarize
from repro.eval.runspec import RunSpec

#: the seeds the replication check always spans (caller seed is ignored).
REPLICATION_SEEDS = DEFAULT_SEEDS[:3]


def _seeds_axis(ctx: ExperimentContext) -> Sequence[int]:
    return ctx.seeds


def _replication_build(
    ctx: ExperimentContext, seed: int, workload: str
) -> List[RunSpec]:
    return [ctx.spec(workload, 4, seed=seed)] + [
        ctx.spec(workload, 4, scheme, l2_policy="bypass", seed=seed)
        for scheme in REPLICATION_SCHEMES
    ]


def _speedups(runs: Runs, scheme: str, workload: str) -> List[float]:
    return [
        runs.speedup(workload, 4, scheme, l2_policy="bypass", seed=seed)
        for seed in runs.ctx.seeds
    ]


def _mean_cell(runs: Runs, scheme: Any, workload: Any) -> float:
    return summarize(_speedups(runs, scheme, workload)).mean


def _std_cell(runs: Runs, scheme: Any, workload: Any) -> float:
    return summarize(_speedups(runs, scheme, workload)).std


_ROWS = (
    ("Next-4-lines (tagged)", "next-4-line"),
    ("Discontinuity", "discontinuity"),
)

REPLICATION_CHECK = Experiment(
    name="replication-check",
    title="Headline CMP speedups with seed error bars",
    paper="§6 (headline CMP speedups), seed-robustness check",
    tags=("replication", "seeds"),
    grid=Grid(
        axes=(("seed", _seeds_axis), ("workload", BASE)),
        build=_replication_build,
    ),
    panels=(
        PanelDef(
            id="replication-mean",
            title=f"CMP speedup, mean over {len(REPLICATION_SEEDS)} seeds (bypass)",
            rows=_ROWS,
            cols=workload_axis(BASE),
            cell=_mean_cell,
            unit="speedup, X",
        ),
        PanelDef(
            id="replication-std",
            title=f"CMP speedup, sample std over {len(REPLICATION_SEEDS)} seeds",
            rows=_ROWS,
            cols=workload_axis(BASE),
            cell=_std_cell,
            unit="speedup, X",
        ),
    ),
    expectations=(
        Band(
            panel="replication-mean",
            row="Discontinuity",
            lo=1.02,
            note="discontinuity's mean speedup is real on every workload",
        ),
        Compare(
            panel="replication-mean",
            row="Discontinuity",
            other_row="Next-4-lines (tagged)",
            op=">",
            offset=-0.05,
            note="discontinuity keeps pace with the sequential scheme",
        ),
        Band(
            panel="replication-std",
            hi=0.2,
            note="seed noise stays far below the reported effects",
        ),
    ),
    seeds=REPLICATION_SEEDS,
)
