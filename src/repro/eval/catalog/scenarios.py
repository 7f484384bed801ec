"""New-workload-family scenarios: every prefetcher family on the three
post-paper synth profiles.

The paper's four commercial workloads date from 2005; these experiments
run the same head-to-head family comparison on three modern front-end
stress patterns (:data:`repro.trace.synth.workloads.SCENARIO_WORKLOADS`):
``microsvc`` (deep call chains over a flat service-handler footprint),
``interp`` (interpreter/JIT dispatch loops with megamorphic indirect
jumps) and ``osmix`` (trap-heavy OS-intensive mix with far user/kernel
jumps).  One experiment per family so each can gate independently in CI.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.eval.catalog._util import (
    cmp_accuracy,
    cmp_speedup,
    scheme_axis,
    workload_axis,
)
from repro.eval.experiment import (
    Band,
    Compare,
    Experiment,
    ExperimentContext,
    Grid,
    PanelDef,
)
from repro.eval.runspec import RunSpec

#: one representative per prefetcher family, head-to-head on each
#: scenario workload (same set as the budget-matched sweep plus target).
SCENARIO_SCHEMES: Tuple[str, ...] = (
    "next-4-line",
    "target",
    "markov",
    "fdp",
    "mana",
    "shadow",
    "discontinuity",
)

_SCENARIO_ROWS = scheme_axis(SCENARIO_SCHEMES)


def _scenario_build(ctx: ExperimentContext, workload: str) -> List[RunSpec]:
    return [ctx.spec(workload, 4)] + [
        ctx.spec(workload, 4, scheme, l2_policy="bypass")
        for scheme in SCENARIO_SCHEMES
    ]


SCENARIO_MICROSVC = Experiment(
    name="scenario-microsvc",
    title="Prefetcher families on microservice call chains (4-way CMP)",
    paper="extension: post-paper workload families",
    tags=("scenario", "styles"),
    grid=Grid(axes=(("workload", ("microsvc",)),), build=_scenario_build),
    panels=(
        PanelDef(
            id="scenario-microsvc-speedup",
            title="Family speedup on microservice call chains (CMP, bypass)",
            rows=_SCENARIO_ROWS,
            cols=workload_axis(("microsvc",)),
            cell=cmp_speedup(),
            unit="speedup, X",
            notes=(
                "deep call chains over a flat service-handler footprint; "
                "discontinuity-style call/return capture is the paper's bet",
            ),
        ),
        PanelDef(
            id="scenario-microsvc-accuracy",
            title="Family accuracy on microservice call chains (CMP)",
            rows=_SCENARIO_ROWS,
            cols=workload_axis(("microsvc",)),
            cell=cmp_accuracy(),
            unit="% useful/issued",
            fmt=".1f",
        ),
    ),
    expectations=(
        Band(
            panel="scenario-microsvc-speedup",
            row="Discontinuity",
            lo=1.05,
            hi=3.0,
            note="the paper's scheme keeps paying off on deep call chains",
        ),
        Compare(
            panel="scenario-microsvc-speedup",
            row="Discontinuity",
            other_row="Next-4-lines (tagged)",
            op=">=",
            offset=-0.02,
            note="call-chain discontinuities defeat purely sequential "
            "prefetch",
        ),
        Compare(
            panel="scenario-microsvc-speedup",
            row="Discontinuity",
            other_row="MANA record/replay",
            op=">=",
            offset=-0.02,
        ),
    ),
)

SCENARIO_INTERP = Experiment(
    name="scenario-interp",
    title="Prefetcher families on interpreter dispatch loops (4-way CMP)",
    paper="extension: post-paper workload families",
    tags=("scenario", "styles"),
    grid=Grid(axes=(("workload", ("interp",)),), build=_scenario_build),
    panels=(
        PanelDef(
            id="scenario-interp-speedup",
            title="Family speedup on interpreter dispatch loops (CMP, bypass)",
            rows=_SCENARIO_ROWS,
            cols=workload_axis(("interp",)),
            cell=cmp_speedup(),
            unit="speedup, X",
            notes=(
                "megamorphic indirect dispatch: single-target entries "
                "(target, discontinuity) fight the switch fan-out",
            ),
        ),
        PanelDef(
            id="scenario-interp-accuracy",
            title="Family accuracy on interpreter dispatch loops (CMP)",
            rows=_SCENARIO_ROWS,
            cols=workload_axis(("interp",)),
            cell=cmp_accuracy(),
            unit="% useful/issued",
            fmt=".1f",
        ),
    ),
    expectations=(
        Band(
            panel="scenario-interp-speedup",
            row="Discontinuity",
            lo=1.0,
            hi=3.0,
            note="never harmful on dispatch loops",
        ),
        Compare(
            panel="scenario-interp-speedup",
            row="Discontinuity",
            other_row="Target prefetcher",
            op=">=",
            offset=-0.02,
            note="probe-ahead keeps discontinuity at least even with the "
            "plain target table",
        ),
    ),
)

SCENARIO_OSMIX = Experiment(
    name="scenario-osmix",
    title="Prefetcher families on a trap-heavy OS-intensive mix (4-way CMP)",
    paper="extension: post-paper workload families",
    tags=("scenario", "styles"),
    grid=Grid(axes=(("workload", ("osmix",)),), build=_scenario_build),
    panels=(
        PanelDef(
            id="scenario-osmix-speedup",
            title="Family speedup on the OS-intensive mix (CMP, bypass)",
            rows=_SCENARIO_ROWS,
            cols=workload_axis(("osmix",)),
            cell=cmp_speedup(),
            unit="speedup, X",
            notes=(
                "frequent traps and far user/kernel jumps break sequential "
                "runs the way the paper's §3 characterization describes",
            ),
        ),
        PanelDef(
            id="scenario-osmix-accuracy",
            title="Family accuracy on the OS-intensive mix (CMP)",
            rows=_SCENARIO_ROWS,
            cols=workload_axis(("osmix",)),
            cell=cmp_accuracy(),
            unit="% useful/issued",
            fmt=".1f",
        ),
    ),
    expectations=(
        Band(
            panel="scenario-osmix-speedup",
            row="Discontinuity",
            lo=1.05,
            hi=3.0,
            note="trap-driven discontinuities are exactly the table's prey",
        ),
        Compare(
            panel="scenario-osmix-speedup",
            row="Discontinuity",
            other_row="Next-4-lines (tagged)",
            op=">=",
            offset=-0.02,
        ),
    ),
)
