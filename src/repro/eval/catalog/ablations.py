"""The paper's design-choice ablations as catalog declarations.

These isolate individual mechanisms beyond the paper's figures: the §4.1
queue filters and LIFO discipline, the discontinuity table's 2-bit
eviction counter, the prefetch-ahead distance, probe-ahead timing, the
single- vs multi-target table design, the §2.4 used-bit re-prefetch
filter, and two substrate-sensitivity checks (L2 inclusion, replacement
policy).
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.eval.catalog._util import BASE, cmp_speedup, workload_axis
from repro.eval.experiment import (
    Band,
    Compare,
    Experiment,
    ExperimentContext,
    Grid,
    PanelDef,
    Runs,
    Spread,
)
from repro.eval.runspec import RunSpec

# --------------------------------------------------------------------------
# §4.1 — prefetch-queue filtering on/off


def _filtering_build(ctx: ExperimentContext, workload: str) -> List[RunSpec]:
    return [ctx.spec(workload, 4)] + [
        ctx.spec(
            workload, 4, "discontinuity", l2_policy="bypass", queue_filtering=filtering
        )
        for filtering in (True, False)
    ]


def _filtering_speedup(runs: Runs, filtering: Any, workload: Any) -> float:
    return runs.speedup(
        workload, 4, "discontinuity", l2_policy="bypass", queue_filtering=filtering
    )


def _filtering_probe_waste(runs: Runs, filtering: Any, workload: Any) -> float:
    result = runs.result(
        workload, 4, "discontinuity", l2_policy="bypass", queue_filtering=filtering
    )
    probes = sum(
        core.prefetch.probe_found_present + core.prefetch.issued
        for core in result.cores
    )
    found = sum(core.prefetch.probe_found_present for core in result.cores)
    return 100.0 * found / probes if probes else 0.0


_FILTERING_ROWS = (("Filtering on", True), ("Filtering off", False))

ABLATION_FILTERING = Experiment(
    name="ablation-filtering",
    title="Prefetch-queue filtering on vs. off (discontinuity, CMP)",
    paper="§4.1 (queue filters)",
    tags=("ablation", "queue"),
    grid=Grid(axes=(("workload", BASE),), build=_filtering_build),
    panels=(
        PanelDef(
            id="ablation-filtering-speedup",
            title="Discontinuity speedup with/without queue filtering (CMP)",
            rows=_FILTERING_ROWS,
            cols=workload_axis(BASE),
            cell=_filtering_speedup,
            unit="speedup, X",
        ),
        PanelDef(
            id="ablation-filtering-probes",
            title="Prefetch tag probes finding the line already present",
            rows=_FILTERING_ROWS,
            cols=workload_axis(BASE),
            cell=_filtering_probe_waste,
            unit="% of probes",
            fmt=".1f",
            notes=(
                "paper: after filtering, for up to 90% of probes the line is absent",
            ),
        ),
    ),
    expectations=(
        Compare(
            panel="ablation-filtering-speedup",
            row="Filtering on",
            other_row="Filtering off",
            op=">",
            offset=-0.05,
            note="filtering's performance cost is extremely minor, never harmful",
        ),
        Compare(
            panel="ablation-filtering-probes",
            row="Filtering on",
            other_row="Filtering off",
            op="<=",
            offset=2.0,
            note="filtering reduces probes that find the line already resident",
        ),
    ),
)

# --------------------------------------------------------------------------
# §4 — the discontinuity table's 2-bit eviction counter

_EVICTION_OVERRIDES = {"table_entries": 256}


def _eviction_build(
    ctx: ExperimentContext, counter_max: int, workload: str
) -> RunSpec:
    return ctx.spec(
        workload,
        4,
        "discontinuity",
        l2_policy="bypass",
        prefetcher_overrides=dict(_EVICTION_OVERRIDES, counter_max=counter_max),
    )


def _eviction_coverage(runs: Runs, counter_max: Any, workload: Any) -> float:
    result = runs.result(
        workload,
        4,
        "discontinuity",
        l2_policy="bypass",
        prefetcher_overrides=dict(_EVICTION_OVERRIDES, counter_max=counter_max),
    )
    return 100.0 * result.l1i_coverage


ABLATION_EVICTION_COUNTER = Experiment(
    name="ablation-eviction-counter",
    title="2-bit eviction counter vs. always-replace, 256-entry table (CMP)",
    paper="§4 (table thrash protection)",
    tags=("ablation", "table"),
    grid=Grid(
        axes=(("counter_max", (3, 0)), ("workload", BASE)), build=_eviction_build
    ),
    panels=(
        PanelDef(
            id="ablation-eviction-counter",
            title="L1 coverage, 256-entry table: eviction counter vs always-replace",
            rows=(("2-bit counter", 3), ("always replace", 0)),
            cols=workload_axis(BASE),
            cell=_eviction_coverage,
            unit="% coverage",
            fmt=".1f",
        ),
    ),
    expectations=(
        Compare(
            panel="ablation-eviction-counter",
            row="2-bit counter",
            other_row="always replace",
            op=">=",
            offset=-1.0,
            note="the counter helps (or never materially hurts) everywhere",
        ),
    ),
)

# --------------------------------------------------------------------------
# §4 — prefetch-ahead distance sweep

AHEAD_DISTANCES = (1, 2, 3, 4, 6, 8)


def _ahead_build(ctx: ExperimentContext, workload: str) -> List[RunSpec]:
    return [ctx.spec(workload, 4)] + [
        ctx.spec(
            workload,
            4,
            "discontinuity",
            l2_policy="bypass",
            prefetcher_overrides={"prefetch_ahead": distance},
        )
        for distance in AHEAD_DISTANCES
    ]


def _ahead_result(runs: Runs, distance: Any, workload: Any) -> Any:
    return runs.result(
        workload,
        4,
        "discontinuity",
        l2_policy="bypass",
        prefetcher_overrides={"prefetch_ahead": distance},
    )


def _ahead_speedup(runs: Runs, distance: Any, workload: Any) -> float:
    return runs.speedup(
        workload,
        4,
        "discontinuity",
        l2_policy="bypass",
        prefetcher_overrides={"prefetch_ahead": distance},
    )


def _ahead_accuracy(runs: Runs, distance: Any, workload: Any) -> float:
    return 100.0 * _ahead_result(runs, distance, workload).prefetch_accuracy


_AHEAD_ROWS = tuple((f"ahead={distance}", distance) for distance in AHEAD_DISTANCES)

ABLATION_PREFETCH_AHEAD = Experiment(
    name="ablation-prefetch-ahead",
    title="Prefetch-ahead distance sweep (discontinuity, CMP, bypass)",
    paper="§4 (prefetch-ahead distance)",
    tags=("ablation", "distance"),
    grid=Grid(axes=(("workload", BASE),), build=_ahead_build),
    panels=(
        PanelDef(
            id="ablation-prefetch-ahead-speedup",
            title="Discontinuity speedup vs prefetch-ahead distance (CMP, bypass)",
            rows=_AHEAD_ROWS,
            cols=workload_axis(BASE),
            cell=_ahead_speedup,
            unit="speedup, X",
            notes=("paper: 4 lines balances timeliness against accuracy/bandwidth",),
        ),
        PanelDef(
            id="ablation-prefetch-ahead-accuracy",
            title="Discontinuity accuracy vs prefetch-ahead distance (CMP, bypass)",
            rows=_AHEAD_ROWS,
            cols=workload_axis(BASE),
            cell=_ahead_accuracy,
            unit="% useful/issued",
            fmt=".1f",
        ),
    ),
    expectations=(
        Compare(
            panel="ablation-prefetch-ahead-accuracy",
            row="ahead=1",
            other_row="ahead=8",
            op=">",
            note="accuracy falls with distance",
        ),
        Compare(
            panel="ablation-prefetch-ahead-speedup",
            row="ahead=4",
            other_row="ahead=1",
            op=">",
            note="timeliness: ahead=4 beats ahead=1 on performance",
        ),
    ),
)

# --------------------------------------------------------------------------
# §4 — probe-ahead vs probe-current-line timing

_PROBE_AHEAD_VARIANTS = (
    ("Probe-ahead (paper)", "discontinuity"),
    ("Probe current line", "discontinuity-noprobeahead"),
)


def _probe_ahead_build(ctx: ExperimentContext, workload: str) -> List[RunSpec]:
    return [ctx.spec(workload, 4)] + [
        ctx.spec(workload, 4, scheme, l2_policy="bypass")
        for scheme in ("discontinuity", "discontinuity-noprobeahead")
    ]


def _late_fraction(runs: Runs, scheme: Any, workload: Any) -> float:
    result = runs.result(workload, 4, scheme, l2_policy="bypass")
    useful = sum(core.prefetch.useful for core in result.cores)
    late = sum(core.prefetch.useful_late for core in result.cores)
    return 100.0 * late / useful if useful else 0.0


_PROBE_AHEAD_ROWS = tuple((label, scheme) for label, scheme in _PROBE_AHEAD_VARIANTS)

ABLATION_PROBE_AHEAD = Experiment(
    name="ablation-probe-ahead",
    title="Probe-ahead vs probe-current-line discontinuity timing (CMP)",
    paper="§4 (probe-ahead window)",
    tags=("ablation", "timing"),
    grid=Grid(axes=(("workload", BASE),), build=_probe_ahead_build),
    panels=(
        PanelDef(
            id="ablation-probe-ahead-speedup",
            title="Discontinuity speedup: probe-ahead vs probe-current (CMP)",
            rows=_PROBE_AHEAD_ROWS,
            cols=workload_axis(BASE),
            cell=cmp_speedup(),
            unit="speedup, X",
        ),
        PanelDef(
            id="ablation-probe-ahead-late",
            title="Late useful prefetches: probe-ahead vs probe-current (CMP)",
            rows=_PROBE_AHEAD_ROWS,
            cols=workload_axis(BASE),
            cell=_late_fraction,
            unit="% of useful prefetches arriving late",
            fmt=".1f",
        ),
    ),
    expectations=(
        Compare(
            panel="ablation-probe-ahead-late",
            row="Probe current line",
            other_row="Probe-ahead (paper)",
            op=">=",
            offset=-1.0,
            note="probing only the current line makes more useful prefetches late",
        ),
        Compare(
            panel="ablation-probe-ahead-speedup",
            row="Probe-ahead (paper)",
            other_row="Probe current line",
            op=">=",
            offset=-0.03,
            note="probe-current never performs better",
        ),
    ),
)

# --------------------------------------------------------------------------
# §4.1 — LIFO vs FIFO prefetch queue


def _queue_build(ctx: ExperimentContext, workload: str) -> List[RunSpec]:
    return [ctx.spec(workload, 4)] + [
        ctx.spec(workload, 4, "discontinuity", l2_policy="bypass", queue_lifo=lifo)
        for lifo in (True, False)
    ]


def _queue_speedup(runs: Runs, lifo: Any, workload: Any) -> float:
    return runs.speedup(
        workload, 4, "discontinuity", l2_policy="bypass", queue_lifo=lifo
    )


ABLATION_QUEUE_DISCIPLINE = Experiment(
    name="ablation-queue-discipline",
    title="LIFO vs FIFO prefetch queue (discontinuity, CMP, bypass)",
    paper="§4.1 (queue discipline)",
    tags=("ablation", "queue"),
    grid=Grid(axes=(("workload", BASE),), build=_queue_build),
    panels=(
        PanelDef(
            id="ablation-queue-discipline",
            title="Discontinuity speedup: LIFO vs FIFO prefetch queue (CMP)",
            rows=(("LIFO (paper)", True), ("FIFO", False)),
            cols=workload_axis(BASE),
            cell=_queue_speedup,
            unit="speedup, X",
        ),
    ),
    expectations=(
        Compare(
            panel="ablation-queue-discipline",
            row="LIFO (paper)",
            other_row="FIFO",
            op=">",
            offset=-0.05,
            note="LIFO de-emphasizes stale prefetches, never materially worse",
        ),
    ),
)

# --------------------------------------------------------------------------
# §4 — single-target table vs multi-target Markov predictor

#: §4 equal-storage comparison: (label, scheme, overrides).
TABLE_DESIGN_VARIANTS: Tuple[Tuple[str, str, Any], ...] = (
    ("Discontinuity 4096x1", "discontinuity", {"table_entries": 4096}),
    ("Markov 2048x2", "markov", {"table_entries": 2048, "targets_per_entry": 2}),
    (
        "Markov 4096x2 (2x storage)",
        "markov",
        {"table_entries": 4096, "targets_per_entry": 2},
    ),
)


def _table_design_build(ctx: ExperimentContext, workload: str) -> List[RunSpec]:
    return [ctx.spec(workload, 4)] + [
        ctx.spec(workload, 4, scheme, l2_policy="bypass", prefetcher_overrides=overrides)
        for _, scheme, overrides in TABLE_DESIGN_VARIANTS
    ]


def _table_design_coverage(runs: Runs, key: Any, workload: Any) -> float:
    scheme, overrides = key
    result = runs.result(
        workload, 4, scheme, l2_policy="bypass", prefetcher_overrides=overrides
    )
    return 100.0 * result.l1i_coverage


def _table_design_speedup(runs: Runs, key: Any, workload: Any) -> float:
    scheme, overrides = key
    return runs.speedup(
        workload, 4, scheme, l2_policy="bypass", prefetcher_overrides=overrides
    )


_TABLE_DESIGN_ROWS = tuple(
    (label, (scheme, overrides)) for label, scheme, overrides in TABLE_DESIGN_VARIANTS
)

ABLATION_TABLE_DESIGN = Experiment(
    name="ablation-table-design",
    title="Single-target discontinuity table vs multi-target Markov (CMP)",
    paper="§4 (table design, cf. Markov [8])",
    tags=("ablation", "table"),
    grid=Grid(axes=(("workload", BASE),), build=_table_design_build),
    panels=(
        PanelDef(
            id="ablation-table-design-coverage",
            title="L1 coverage: single-target vs multi-target tables (CMP)",
            rows=_TABLE_DESIGN_ROWS,
            cols=workload_axis(BASE),
            cell=_table_design_coverage,
            unit="% coverage",
            fmt=".1f",
            notes=("paper §4: one target per entry suffices at half the storage",),
        ),
        PanelDef(
            id="ablation-table-design-speedup",
            title="Speedup: single-target vs multi-target tables (CMP)",
            rows=_TABLE_DESIGN_ROWS,
            cols=workload_axis(BASE),
            cell=_table_design_speedup,
            unit="speedup, X",
        ),
    ),
    expectations=(
        Compare(
            panel="ablation-table-design-coverage",
            row="Discontinuity 4096x1",
            other_row="Markov 2048x2",
            op=">",
            offset=-3.0,
            note="at equal storage the single-target design is at least as good",
        ),
        Compare(
            panel="ablation-table-design-coverage",
            row="Markov 4096x2 (2x storage)",
            other_row="Discontinuity 4096x1",
            op="<",
            offset=6.0,
            note="even doubling the Markov storage buys little over single-target",
        ),
    ),
)

# --------------------------------------------------------------------------
# §2.4 — the used-bit re-prefetch filter [Luk & Mowry]


def _hint_build(ctx: ExperimentContext, workload: str) -> List[RunSpec]:
    return [ctx.spec(workload, 4)] + [
        ctx.spec(
            workload,
            4,
            "discontinuity",
            l2_policy="bypass",
            useless_hint_filter=hint_filter,
        )
        for hint_filter in (False, True)
    ]


def _hint_result(runs: Runs, hint_filter: Any, workload: Any) -> Any:
    return runs.result(
        workload,
        4,
        "discontinuity",
        l2_policy="bypass",
        useless_hint_filter=hint_filter,
    )


def _hint_accuracy(runs: Runs, hint_filter: Any, workload: Any) -> float:
    return 100.0 * _hint_result(runs, hint_filter, workload).prefetch_accuracy


def _hint_speedup(runs: Runs, hint_filter: Any, workload: Any) -> float:
    return runs.speedup(
        workload,
        4,
        "discontinuity",
        l2_policy="bypass",
        useless_hint_filter=hint_filter,
    )


_HINT_ROWS = (("No re-prefetch filter", False), ("Used-bit filter (§2.4)", True))

ABLATION_USELESS_HINT = Experiment(
    name="ablation-useless-hint",
    title="The §2.4 used-bit re-prefetch filter on/off (CMP)",
    paper="§2.4 (used-bit filter)",
    tags=("ablation", "filter"),
    grid=Grid(axes=(("workload", BASE),), build=_hint_build),
    panels=(
        PanelDef(
            id="ablation-useless-hint-accuracy",
            title="Prefetch accuracy with the used-bit re-prefetch filter (CMP)",
            rows=_HINT_ROWS,
            cols=workload_axis(BASE),
            cell=_hint_accuracy,
            unit="% useful/issued",
            fmt=".1f",
        ),
        PanelDef(
            id="ablation-useless-hint-speedup",
            title="Speedup with the used-bit re-prefetch filter (CMP)",
            rows=_HINT_ROWS,
            cols=workload_axis(BASE),
            cell=_hint_speedup,
            unit="speedup, X",
        ),
    ),
    expectations=(
        Compare(
            panel="ablation-useless-hint-accuracy",
            row="Used-bit filter (§2.4)",
            other_row="No re-prefetch filter",
            op=">=",
            offset=-1.0,
            note="dropping known-useless re-prefetches never hurts accuracy",
        ),
        Compare(
            panel="ablation-useless-hint-speedup",
            row="Used-bit filter (§2.4)",
            other_row="No re-prefetch filter",
            op=">",
            offset=-0.05,
            note="performance stays competitive",
        ),
    ),
)

# --------------------------------------------------------------------------
# substrate sensitivity — inclusive vs non-inclusive shared L2


def _inclusion_build(
    ctx: ExperimentContext, inclusive: bool, workload: str
) -> List[RunSpec]:
    return [
        ctx.spec(workload, 4, l2_inclusive=inclusive),
        ctx.spec(
            workload, 4, "discontinuity", l2_policy="bypass", l2_inclusive=inclusive
        ),
    ]


def _inclusion_speedup(runs: Runs, inclusive: Any, workload: Any) -> float:
    return runs.speedup(
        workload,
        4,
        "discontinuity",
        base={"l2_inclusive": inclusive},
        l2_policy="bypass",
        l2_inclusive=inclusive,
    )


def _inclusion_l1i(runs: Runs, inclusive: Any, workload: Any) -> float:
    return 100.0 * runs.result(workload, 4, l2_inclusive=inclusive).l1i_miss_rate


_INCLUSION_ROWS = (("Non-inclusive (default)", False), ("Inclusive", True))

ABLATION_INCLUSION = Experiment(
    name="ablation-inclusion",
    title="Inclusive vs non-inclusive shared L2 (substrate sensitivity)",
    paper="beyond the paper (inclusion policy unstated)",
    tags=("ablation", "substrate"),
    grid=Grid(
        axes=(("inclusive", (False, True)), ("workload", BASE)),
        build=_inclusion_build,
    ),
    panels=(
        PanelDef(
            id="ablation-inclusion-speedup",
            title="Discontinuity speedup: non-inclusive vs inclusive L2 (CMP)",
            rows=_INCLUSION_ROWS,
            cols=workload_axis(BASE),
            cell=_inclusion_speedup,
            unit="speedup, X",
        ),
        PanelDef(
            id="ablation-inclusion-l1i",
            title="Baseline L1I miss rate: non-inclusive vs inclusive L2 (CMP)",
            rows=_INCLUSION_ROWS,
            cols=workload_axis(BASE),
            cell=_inclusion_l1i,
            unit="% per instruction",
        ),
    ),
    expectations=(
        Band(
            panel="ablation-inclusion-speedup",
            lo=1.05,
            note="the discontinuity prefetcher pays off under either policy",
        ),
        Spread(
            panel="ablation-inclusion-speedup",
            rows=("Non-inclusive (default)", "Inclusive"),
            hi=0.15,
            note="the policy choice moves the result only modestly",
        ),
        Compare(
            panel="ablation-inclusion-l1i",
            row="Inclusive",
            other_row="Non-inclusive (default)",
            op=">=",
            offset=-0.01,
            note="back-invalidation can only add baseline L1I misses",
        ),
    ),
)

# --------------------------------------------------------------------------
# substrate sensitivity — cache replacement policy

REPLACEMENT_POLICIES = ("lru", "plru", "fifo", "random")


def _replacement_build(
    ctx: ExperimentContext, policy: str, workload: str
) -> List[RunSpec]:
    matched = {"l1_replacement": policy, "l2_replacement": policy}
    return [
        ctx.spec(workload, 4, **matched),
        ctx.spec(workload, 4, "discontinuity", l2_policy="bypass", **matched),
    ]


def _replacement_l1i(runs: Runs, policy: Any, workload: Any) -> float:
    base = runs.result(workload, 4, l1_replacement=policy, l2_replacement=policy)
    return 100.0 * base.l1i_miss_rate


def _replacement_speedup(runs: Runs, policy: Any, workload: Any) -> float:
    matched = {"l1_replacement": policy, "l2_replacement": policy}
    return runs.speedup(
        workload, 4, "discontinuity", base=matched, l2_policy="bypass", **matched
    )


def _replacement_rows() -> Tuple[Tuple[str, str], ...]:
    return tuple((policy.upper(), policy) for policy in REPLACEMENT_POLICIES)


ABLATION_REPLACEMENT = Experiment(
    name="ablation-replacement",
    title="Cache replacement policy sensitivity (substrate check)",
    paper="beyond the paper (simulator uses LRU)",
    tags=("ablation", "substrate"),
    grid=Grid(
        axes=(("policy", REPLACEMENT_POLICIES), ("workload", BASE)),
        build=_replacement_build,
    ),
    panels=(
        PanelDef(
            id="ablation-replacement-l1i",
            title="Baseline L1I miss rate by replacement policy (CMP)",
            rows=_replacement_rows(),
            cols=workload_axis(BASE),
            cell=_replacement_l1i,
            unit="% per instruction",
        ),
        PanelDef(
            id="ablation-replacement-speedup",
            title="Discontinuity speedup by replacement policy (CMP)",
            rows=_replacement_rows(),
            cols=workload_axis(BASE),
            cell=_replacement_speedup,
            unit="speedup, X",
        ),
    ),
    expectations=(
        Band(
            panel="ablation-replacement-speedup",
            lo=1.05,
            note="the discontinuity prefetcher pays off under every policy",
        ),
        Spread(
            panel="ablation-replacement-speedup",
            rows=("LRU", "PLRU", "FIFO", "RANDOM"),
            hi=0.2,
            note="only modest spread between policies",
        ),
        Compare(
            panel="ablation-replacement-l1i",
            row="PLRU",
            other_row="LRU",
            op="<=",
            factor=1.15,
            note="PLRU tracks LRU closely on baseline miss rate",
        ),
        Compare(
            panel="ablation-replacement-l1i",
            row="PLRU",
            other_row="LRU",
            op=">=",
            factor=0.85,
        ),
    ),
)
