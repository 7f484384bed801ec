"""Beyond-the-paper comparisons against the alternative prefetching
styles the paper's §2 surveys, plus two sensitivity extensions.

Six experiments, in catalog order: every prefetching style head-to-head
on the 4-way CMP, an off-chip bandwidth sweep exposing the §7 accuracy
crossover, a core-count scaling extension, the fetch-directed prefetcher
across BTB sizes (the §2.2 predictor-state argument), the §2.3
cooperative software split vs. the all-hardware scheme, and all six
prefetcher families at matched storage budgets
(``repro.prefetch.budget``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

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
from repro.eval.runspec import RunSpec
from repro.prefetch.budget import matched_overrides
from repro.prefetch.registry import prefetcher_display_name

# --------------------------------------------------------------------------
# all prefetching styles head-to-head

#: head-to-head variant set: (label, scheme or None for software, overrides).
ALTERNATIVE_VARIANTS: Tuple[Tuple[str, Optional[str], Dict[str, Any]], ...] = (
    ("Next-4-lines (tagged)", "next-4-line", {}),
    ("Target prefetcher", "target", {}),
    ("Markov (multi-target)", "markov", {}),
    ("Fetch-directed (1K BTB)", "fdp", {"btb_entries": 1024}),
    ("Software + next-4-line", None, {}),  # §2.3 software prefetcher
    ("Discontinuity (paper)", "discontinuity", {}),
)


def _alternatives_build(ctx: ExperimentContext, workload: str) -> List[RunSpec]:
    return [ctx.spec(workload, 4)] + [
        ctx.spec(
            workload,
            4,
            scheme or "none",
            l2_policy="bypass",
            prefetcher_overrides=overrides,
            software_prefetch=scheme is None,
        )
        for _, scheme, overrides in ALTERNATIVE_VARIANTS
    ]


def _alternative_result(runs: Runs, key: Any, workload: Any) -> Any:
    scheme, overrides = key
    return runs.result(
        workload,
        4,
        scheme or "none",
        l2_policy="bypass",
        prefetcher_overrides=overrides,
        software_prefetch=scheme is None,
    )


def _alternative_speedup(runs: Runs, key: Any, workload: Any) -> float:
    scheme, overrides = key
    return runs.speedup(
        workload,
        4,
        scheme or "none",
        l2_policy="bypass",
        prefetcher_overrides=overrides,
        software_prefetch=scheme is None,
    )


def _alternative_coverage(runs: Runs, key: Any, workload: Any) -> float:
    return 100.0 * _alternative_result(runs, key, workload).l1i_coverage


def _alternative_accuracy(runs: Runs, key: Any, workload: Any) -> float:
    return 100.0 * _alternative_result(runs, key, workload).prefetch_accuracy


_ALTERNATIVE_ROWS = tuple(
    (label, (scheme, overrides)) for label, scheme, overrides in ALTERNATIVE_VARIANTS
)


def _alternatives_margin(rival: str) -> Compare:
    return Compare(
        panel="comparison-alternatives-speedup",
        row="Discontinuity (paper)",
        other_row=rival,
        op=">=",
        offset=-0.02,
        note=f"discontinuity stays competitive with {rival}",
    )


COMPARISON_ALTERNATIVES = Experiment(
    name="comparison-alternatives",
    title="All prefetching styles head-to-head (4-way CMP, bypass)",
    paper="§2 (prefetching-style survey)",
    tags=("comparison", "styles"),
    grid=Grid(axes=(("workload", BASE),), build=_alternatives_build),
    panels=(
        PanelDef(
            id="comparison-alternatives-speedup",
            title="All prefetching styles: speedup (4-way CMP, bypass)",
            rows=_ALTERNATIVE_ROWS,
            cols=workload_axis(BASE),
            cell=_alternative_speedup,
            unit="speedup, X",
        ),
        PanelDef(
            id="comparison-alternatives-coverage",
            title="All prefetching styles: L1 coverage (4-way CMP)",
            rows=_ALTERNATIVE_ROWS,
            cols=workload_axis(BASE),
            cell=_alternative_coverage,
            unit="% coverage",
            fmt=".1f",
        ),
        PanelDef(
            id="comparison-alternatives-accuracy",
            title="All prefetching styles: accuracy (4-way CMP)",
            rows=_ALTERNATIVE_ROWS,
            cols=workload_axis(BASE),
            cell=_alternative_accuracy,
            unit="% useful/issued",
            fmt=".1f",
        ),
    ),
    expectations=(
        _alternatives_margin("Next-4-lines (tagged)"),
        _alternatives_margin("Target prefetcher"),
        _alternatives_margin("Fetch-directed (1K BTB)"),
        Compare(
            panel="comparison-alternatives-coverage",
            row="Discontinuity (paper)",
            other_row="Target prefetcher",
            op=">",
            note="discontinuity covers more misses than the target prefetcher",
        ),
    ),
)

# --------------------------------------------------------------------------
# §7 — off-chip bandwidth sensitivity (DB)

#: off-chip bandwidth sweep (GB/s); 20 is the paper's CMP default.
BANDWIDTH_SWEEP_GBPS = (20.0, 10.0, 6.0, 4.0)

#: the accuracy-ordered schemes whose crossover the sweep exposes.
BANDWIDTH_SCHEMES = ("next-4-line", "discontinuity", "discontinuity-2nl")


def _bandwidth_build(ctx: ExperimentContext, gbps: float) -> List[RunSpec]:
    return [ctx.spec("db", 4, offchip_gbps=gbps)] + [
        ctx.spec("db", 4, scheme, l2_policy="bypass", offchip_gbps=gbps)
        for scheme in BANDWIDTH_SCHEMES
    ]


def _bandwidth_speedup(runs: Runs, scheme: Any, gbps: Any) -> float:
    return runs.speedup(
        "db",
        4,
        scheme,
        base={"offchip_gbps": gbps},
        l2_policy="bypass",
        offchip_gbps=gbps,
    )


COMPARISON_BANDWIDTH = Experiment(
    name="comparison-bandwidth",
    title="Speedup vs off-chip bandwidth (DB, 4-way CMP, bypass)",
    paper="§7 (bandwidth-constrained operating point)",
    tags=("comparison", "bandwidth"),
    grid=Grid(axes=(("gbps", BANDWIDTH_SWEEP_GBPS),), build=_bandwidth_build),
    panels=(
        PanelDef(
            id="comparison-bandwidth",
            title="Speedup vs off-chip bandwidth (DB, 4-way CMP, bypass)",
            rows=tuple(
                (prefetcher_display_name(s), s) for s in BANDWIDTH_SCHEMES
            ),
            cols=tuple(
                (f"{gbps:g} GB/s", gbps) for gbps in BANDWIDTH_SWEEP_GBPS
            ),
            cell=_bandwidth_speedup,
            unit="speedup, X",
            notes=(
                "paper §7: under constrained bandwidth the 2NL discontinuity "
                "prefetcher is the better choice — the crossover appears as "
                "the link tightens",
            ),
        ),
    ),
    expectations=(
        Compare(
            panel="comparison-bandwidth",
            row="Discontinuity",
            other_row="Discont (2NL)",
            op=">=",
            offset=-0.02,
            col="20 GB/s",
            note="at full bandwidth the 4-line variant is at least as good",
        ),
        Compare(
            panel="comparison-bandwidth",
            row="Discont (2NL)",
            other_row="Discontinuity",
            op=">",
            col="6 GB/s",
            note="the crossover: 2NL wins once the link tightens",
        ),
        Compare(
            panel="comparison-bandwidth",
            row="Discont (2NL)",
            other_row="Next-4-lines (tagged)",
            op=">",
            col="6 GB/s",
        ),
    ),
    bench_scale="default",
)

# --------------------------------------------------------------------------
# extension — core-count scaling (DB)

#: core counts for the scaling extension (paper evaluates 1 and 4).
CORE_SCALING = (1, 2, 4, 8)


def _core_scaling_build(ctx: ExperimentContext, n_cores: int) -> List[RunSpec]:
    return [
        ctx.spec("db", n_cores),
        ctx.spec("db", n_cores, "discontinuity", l2_policy="bypass"),
    ]


def _core_scaling_cell(runs: Runs, metric: Any, n_cores: Any) -> float:
    if metric == "speedup":
        return runs.speedup("db", n_cores, "discontinuity", l2_policy="bypass")
    base = runs.result("db", n_cores)
    rate = base.l2i_miss_rate if metric == "l2i" else base.l2d_miss_rate
    return 100.0 * rate


COMPARISON_CORE_SCALING = Experiment(
    name="comparison-core-scaling",
    title="Baseline L2 miss rates and discontinuity speedup vs cores (DB)",
    paper="extension beyond the paper's 1/4-core points",
    tags=("comparison", "scaling"),
    grid=Grid(axes=(("n_cores", CORE_SCALING),), build=_core_scaling_build),
    panels=(
        PanelDef(
            id="comparison-core-scaling",
            title="Baseline L2 miss rates and discontinuity speedup vs cores (DB)",
            rows=(
                ("Baseline L2I (% per instr)", "l2i"),
                ("Baseline L2D (% per instr)", "l2d"),
                ("Discontinuity speedup (X)", "speedup"),
            ),
            cols=tuple(
                (f"{n} core{'s' if n > 1 else ''}", n) for n in CORE_SCALING
            ),
            cell=_core_scaling_cell,
            notes=(
                "extension beyond the paper's 1/4-core points; bandwidth "
                "scaled per SystemConfig.resolve_bandwidth",
            ),
        ),
    ),
    expectations=(
        Compare(
            panel="comparison-core-scaling",
            row="Baseline L2I (% per instr)",
            col="4 cores",
            other_col="1 core",
            op=">",
            note="shared-L2 instruction pressure grows with core count",
        ),
        Compare(
            panel="comparison-core-scaling",
            row="Baseline L2I (% per instr)",
            col="8 cores",
            other_col="2 cores",
            op=">",
        ),
        Compare(
            panel="comparison-core-scaling",
            row="Baseline L2D (% per instr)",
            col="8 cores",
            other_col="4 cores",
            op=">",
        ),
        Compare(
            panel="comparison-core-scaling",
            row="Baseline L2D (% per instr)",
            col="4 cores",
            other_col="1 core",
            op=">",
        ),
        Band(
            panel="comparison-core-scaling",
            row="Discontinuity speedup (X)",
            lo=1.1,
            note="the prefetcher pays off at every core count",
        ),
    ),
    bench_scale="default",
)

# --------------------------------------------------------------------------
# §2.2 — fetch-directed prefetching vs BTB size

#: BTB sweep for the execution-based comparison.
FDP_BTB_SIZES = (1024, 4096, 16384, 65536)

_FDP_NOTE = (
    "paper §2.2: execution-based prefetching needs impractically large "
    "predictor state on commercial footprints"
)


def _fdp_build(ctx: ExperimentContext, workload: str) -> List[RunSpec]:
    return (
        [ctx.spec(workload, 4)]
        + [
            ctx.spec(
                workload,
                4,
                "fdp",
                l2_policy="bypass",
                prefetcher_overrides={"btb_entries": btb},
            )
            for btb in FDP_BTB_SIZES
        ]
        + [ctx.spec(workload, 4, "discontinuity", l2_policy="bypass")]
    )


def _fdp_result(runs: Runs, btb: Any, workload: Any) -> Any:
    if btb is None:
        return runs.result(workload, 4, "discontinuity", l2_policy="bypass")
    return runs.result(
        workload, 4, "fdp", l2_policy="bypass", prefetcher_overrides={"btb_entries": btb}
    )


def _fdp_coverage(runs: Runs, btb: Any, workload: Any) -> float:
    return 100.0 * _fdp_result(runs, btb, workload).l1i_coverage


def _fdp_speedup(runs: Runs, btb: Any, workload: Any) -> float:
    if btb is None:
        return runs.speedup(workload, 4, "discontinuity", l2_policy="bypass")
    return runs.speedup(
        workload, 4, "fdp", l2_policy="bypass", prefetcher_overrides={"btb_entries": btb}
    )


_FDP_ROWS = tuple((f"FDP {btb}-entry BTB", btb) for btb in FDP_BTB_SIZES) + (
    ("Discontinuity 8K (paper)", None),
)

COMPARISON_EXECUTION_BASED = Experiment(
    name="comparison-execution-based",
    title="Fetch-directed prefetching vs BTB size (4-way CMP)",
    paper="§2.2 (execution-based prefetching)",
    tags=("comparison", "fdp"),
    grid=Grid(axes=(("workload", BASE),), build=_fdp_build),
    panels=(
        PanelDef(
            id="comparison-fdp-coverage",
            title="Fetch-directed prefetching: L1 coverage vs BTB size (CMP)",
            rows=_FDP_ROWS,
            cols=workload_axis(BASE),
            cell=_fdp_coverage,
            unit="% coverage",
            fmt=".1f",
            notes=(_FDP_NOTE,),
        ),
        PanelDef(
            id="comparison-fdp-speedup",
            title="Fetch-directed prefetching: speedup vs BTB size (CMP)",
            rows=_FDP_ROWS,
            cols=workload_axis(BASE),
            cell=_fdp_speedup,
            unit="speedup, X",
            notes=(_FDP_NOTE,),
        ),
    ),
    expectations=(
        Compare(
            panel="comparison-fdp-coverage",
            row="FDP 65536-entry BTB",
            other_row="FDP 1024-entry BTB",
            op=">=",
            offset=-2.0,
            note="coverage grows (or holds) with predictor state",
        ),
        Compare(
            panel="comparison-fdp-coverage",
            row="Discontinuity 8K (paper)",
            other_row="FDP 65536-entry BTB",
            op=">",
            offset=5.0,
            note="an 8K-entry discontinuity table beats even a 64K-entry BTB",
        ),
    ),
)

# --------------------------------------------------------------------------
# §2.3 — cooperative software prefetching vs the hardware scheme

_SWPF_VARIANTS = (
    ("Software + next-4-line", ("none", True)),
    ("Next-4-line only", ("next-4-line", False)),
    ("Discontinuity (paper)", ("discontinuity", False)),
)


def _swpf_build(ctx: ExperimentContext, workload: str) -> List[RunSpec]:
    return [ctx.spec(workload, 4)] + [
        ctx.spec(
            workload, 4, scheme, l2_policy="bypass", software_prefetch=software
        )
        for _, (scheme, software) in _SWPF_VARIANTS
    ]


def _swpf_speedup(runs: Runs, key: Any, workload: Any) -> float:
    scheme, software = key
    return runs.speedup(
        workload, 4, scheme, l2_policy="bypass", software_prefetch=software
    )


def _swpf_coverage(runs: Runs, key: Any, workload: Any) -> float:
    scheme, software = key
    result = runs.result(
        workload, 4, scheme, l2_policy="bypass", software_prefetch=software
    )
    return 100.0 * result.l1i_coverage


COMPARISON_SOFTWARE_PREFETCH = Experiment(
    name="comparison-software-prefetch",
    title="Software vs hardware non-sequential prefetching (4-way CMP)",
    paper="§2.3 (software prefetching)",
    tags=("comparison", "software"),
    grid=Grid(axes=(("workload", BASE),), build=_swpf_build),
    panels=(
        PanelDef(
            id="comparison-swpf-speedup",
            title="Software vs hardware non-sequential prefetching (CMP)",
            rows=_SWPF_VARIANTS,
            cols=workload_axis(BASE),
            cell=_swpf_speedup,
            unit="speedup, X",
            notes=(
                "software plan uses perfect profile feedback (generous to §2.3)",
            ),
        ),
        PanelDef(
            id="comparison-swpf-coverage",
            title="Software vs hardware: L1 coverage (CMP)",
            rows=_SWPF_VARIANTS,
            cols=workload_axis(BASE),
            cell=_swpf_coverage,
            unit="% coverage",
            fmt=".1f",
        ),
    ),
    expectations=(
        Compare(
            panel="comparison-swpf-speedup",
            row="Software + next-4-line",
            other_row="Next-4-line only",
            op=">",
            offset=-0.02,
            note="adding software hints to the sequential scheme helps",
        ),
        Compare(
            panel="comparison-swpf-speedup",
            row="Discontinuity (paper)",
            other_row="Software + next-4-line",
            op=">",
            offset=-0.08,
            note="all-hardware discontinuity matches the cooperative split",
        ),
    ),
)

# --------------------------------------------------------------------------
# all six prefetcher families at matched storage budgets

#: the six families of the budget-matched sweep: one representative per
#: style (sequential is the ~stateless floor every budget admits).
BUDGET_FAMILIES: Tuple[str, ...] = (
    "next-4-line",
    "discontinuity",
    "markov",
    "fdp",
    "mana",
    "shadow",
)

#: storage budgets (bytes).  16 KiB forces every table-based family well
#: below its paper-default sizing; 96 KiB admits the discontinuity
#: table's paper default (8192 entries = 66 KB) with headroom for the
#: predictor-directed families' gshare arrays.
BUDGET_POINTS: Tuple[Tuple[str, int], ...] = (
    ("16KiB", 16 * 1024),
    ("96KiB", 96 * 1024),
)

_BUDGET_ROWS = tuple(
    (prefetcher_display_name(name), name) for name in BUDGET_FAMILIES
)


def _budget_build(ctx: ExperimentContext, workload: str) -> List[RunSpec]:
    return [ctx.spec(workload, 4)] + [
        ctx.spec(
            workload,
            4,
            name,
            l2_policy="bypass",
            prefetcher_overrides=matched_overrides(name, budget_bytes),
        )
        for _, budget_bytes in BUDGET_POINTS
        for name in BUDGET_FAMILIES
    ]


def _budget_result(runs: Runs, name: str, workload: Any, budget_bytes: int) -> Any:
    return runs.result(
        workload,
        4,
        name,
        l2_policy="bypass",
        prefetcher_overrides=matched_overrides(name, budget_bytes),
    )


def _budget_speedup(budget_bytes: int):
    def cell(runs: Runs, name: Any, workload: Any) -> float:
        return runs.speedup(
            workload,
            4,
            name,
            l2_policy="bypass",
            prefetcher_overrides=matched_overrides(name, budget_bytes),
        )

    return cell


def _budget_coverage(budget_bytes: int):
    def cell(runs: Runs, name: Any, workload: Any) -> float:
        return 100.0 * _budget_result(runs, name, workload, budget_bytes).l1i_coverage

    return cell


def _budget_accuracy(budget_bytes: int):
    def cell(runs: Runs, name: Any, workload: Any) -> float:
        return 100.0 * _budget_result(
            runs, name, workload, budget_bytes
        ).prefetch_accuracy

    return cell


COMPARISON_BUDGET_MATCHED = Experiment(
    name="comparison-budget-matched",
    title="Six prefetcher families at matched storage budgets (4-way CMP)",
    paper="§2 + §4 (storage-matched family comparison)",
    tags=("comparison", "budget"),
    grid=Grid(axes=(("workload", BASE),), build=_budget_build),
    panels=(
        PanelDef(
            id="comparison-budget-speedup-16k",
            title="Family speedup at a 16 KiB storage budget (CMP, bypass)",
            rows=_BUDGET_ROWS,
            cols=workload_axis(BASE),
            cell=_budget_speedup(16 * 1024),
            unit="speedup, X",
            notes=("largest power-of-two sizing fitting 16 KiB per family",),
        ),
        PanelDef(
            id="comparison-budget-speedup-96k",
            title="Family speedup at a 96 KiB storage budget (CMP, bypass)",
            rows=_BUDGET_ROWS,
            cols=workload_axis(BASE),
            cell=_budget_speedup(96 * 1024),
            unit="speedup, X",
            notes=("96 KiB admits the paper-default discontinuity table",),
        ),
        PanelDef(
            id="comparison-budget-coverage-96k",
            title="Family L1 coverage at 96 KiB (CMP)",
            rows=_BUDGET_ROWS,
            cols=workload_axis(BASE),
            cell=_budget_coverage(96 * 1024),
            unit="% coverage",
            fmt=".1f",
        ),
        PanelDef(
            id="comparison-budget-accuracy-96k",
            title="Family accuracy at 96 KiB (CMP)",
            rows=_BUDGET_ROWS,
            cols=workload_axis(BASE),
            cell=_budget_accuracy(96 * 1024),
            unit="% useful/issued",
            fmt=".1f",
        ),
    ),
    expectations=(
        Compare(
            panel="comparison-budget-speedup-96k",
            row="Discontinuity",
            other_row="MANA record/replay",
            op=">",
            note="region replay alone trails the discontinuity table",
        ),
        Compare(
            panel="comparison-budget-speedup-96k",
            row="Discontinuity",
            other_row="Fetch-directed",
            op=">=",
            offset=-0.02,
            note="discontinuity stays competitive with run-ahead at 96 KiB",
        ),
        Compare(
            panel="comparison-budget-speedup-16k",
            row="Discontinuity",
            other_row="Markov (multi-target)",
            op=">=",
            offset=-0.02,
            note="single-target entries win when storage is tight (§4)",
        ),
        Band(
            panel="comparison-budget-speedup-96k",
            row="Shadow-branch FTQ",
            lo=1.05,
            hi=2.5,
            note="shadow predecode delivers real speedup at 96 KiB",
        ),
        Band(
            panel="comparison-budget-speedup-96k",
            row="MANA record/replay",
            lo=0.95,
            hi=2.0,
            note="record/replay alone is neutral-to-positive, never harmful",
        ),
        Band(
            panel="comparison-budget-coverage-96k",
            row="Discontinuity",
            lo=55.0,
            hi=100.0,
            note="paper-default discontinuity coverage stays high",
        ),
    ),
)
