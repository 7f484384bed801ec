"""Figures 1-10 of the paper as catalog declarations.

Each :class:`Experiment` below replaces one hand-written ``figNN.py``
driver: the grid declares exactly the runs the old ``specs()`` emitted
(the spec-parity golden test pins this), the panels reproduce the old
``run()`` tables, and the expectations encode the shape assertions the
benchmark suite used to hand-code.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.caches.config import DEFAULT_HIERARCHY
from repro.eval.catalog._util import BASE, CMP, scheme_axis, workload_axis
from repro.eval.experiment import (
    Band,
    Compare,
    Expectation,
    Experiment,
    ExperimentContext,
    Extremum,
    Grid,
    PanelDef,
    Runs,
)
from repro.eval.runspec import RunSpec
from repro.isa.classify import MissClass, kind_label
from repro.isa.kinds import TransitionKind
from repro.util.units import KB, MB

# --------------------------------------------------------------------------
# Figure 1 — L1I miss rate vs. cache geometry (§3.1)

#: the paper's sweep points: (label, per-core L1I config overrides).
FIG01_CONFIGS: Tuple[Tuple[str, Dict[str, int]], ...] = (
    ("Default", {}),
    ("Direct-mapped", {"associativity": 1}),
    ("2-way", {"associativity": 2}),
    ("8-way", {"associativity": 8}),
    ("32B line size", {"line_size": 32}),
    ("128B line size", {"line_size": 128}),
    ("256B line size", {"line_size": 256}),
    ("16KB", {"capacity_bytes": 16 * KB}),
    ("64KB", {"capacity_bytes": 64 * KB}),
    ("128KB", {"capacity_bytes": 128 * KB}),
)


def _l1i_hierarchy(overrides: Dict[str, int]) -> Any:
    return DEFAULT_HIERARCHY.with_l1i(**overrides) if overrides else DEFAULT_HIERARCHY


def _fig01_build(ctx: ExperimentContext, config: Any, workload: str) -> RunSpec:
    _, overrides = config
    return ctx.spec(workload, 1, hierarchy=_l1i_hierarchy(overrides))


def _fig01_cell(runs: Runs, overrides: Any, workload: Any) -> float:
    result = runs.result(workload, 1, hierarchy=_l1i_hierarchy(overrides))
    return 100.0 * result.l1i_miss_rate


FIG01 = Experiment(
    name="fig01",
    title="I$ miss rate vs. associativity / line size / capacity",
    paper="Figure 1 (§3.1)",
    tags=("figure", "baseline", "miss-rate"),
    grid=Grid(
        axes=(("config", FIG01_CONFIGS), ("workload", BASE)),
        build=_fig01_build,
    ),
    panels=(
        PanelDef(
            id="fig01",
            title="I$ miss rate vs. associativity / line size / capacity",
            rows=tuple((label, overrides) for label, overrides in FIG01_CONFIGS),
            cols=workload_axis(BASE),
            cell=_fig01_cell,
            unit="% per instruction",
            notes=(
                "paper band for the default config: 1.32-3.16%, jApp highest",
                "default = 32KB, 4-way, 64B lines",
            ),
        ),
    ),
    expectations=(
        Band(
            panel="fig01",
            row="Default",
            lo=0.3,
            hi=5.0,
            note="default-config miss rate lands in the paper's (loose) band",
        ),
        Extremum(
            panel="fig01",
            row="Default",
            col="jApp",
            note="jApp has the highest default-config miss rate (§3.1)",
        ),
        Compare(
            panel="fig01",
            row="256B line size",
            other_row="Default",
            op="<",
            note="larger lines are highly effective",
        ),
        Compare(panel="fig01", row="32B line size", other_row="Default", op=">"),
        Compare(
            panel="fig01",
            row="128KB",
            other_row="Default",
            op="<",
            note="capacity helps strongly",
        ),
        Compare(panel="fig01", row="16KB", other_row="Default", op=">"),
        Compare(
            panel="fig01",
            row="Direct-mapped",
            other_row="Default",
            op=">",
            note="direct-mapped is the worst associativity",
        ),
    ),
)

# --------------------------------------------------------------------------
# Figure 2 — L2 instruction miss rate vs. capacity, single core vs CMP (§3.1)

#: the paper's L2 capacity sweep.
L2_SIZES_MB = (1, 2, 4)


def _l2_hierarchy(size_mb: int) -> Any:
    return DEFAULT_HIERARCHY.with_l2(capacity_bytes=size_mb * MB)


def _fig02_build(
    ctx: ExperimentContext, size_mb: int, n_cores: int, workload: str
) -> Optional[RunSpec]:
    if workload == "mix" and n_cores == 1:
        return None
    return ctx.spec(workload, n_cores, hierarchy=_l2_hierarchy(size_mb))


def _fig02_cell(runs: Runs, key: Any, workload: Any) -> float:
    size_mb, n_cores = key
    if workload == "mix" and n_cores == 1:
        return float("nan")
    result = runs.result(workload, n_cores, hierarchy=_l2_hierarchy(size_mb))
    return 100.0 * result.l2i_miss_rate


FIG02 = Experiment(
    name="fig02",
    title="L2 instruction miss rate vs. capacity (single core / CMP)",
    paper="Figure 2 (§3.1)",
    tags=("figure", "baseline", "miss-rate"),
    grid=Grid(
        axes=(("size_mb", L2_SIZES_MB), ("n_cores", (1, 4)), ("workload", CMP)),
        build=_fig02_build,
    ),
    panels=(
        PanelDef(
            id="fig02",
            title="L2 instruction miss rate vs. capacity (single core / CMP)",
            rows=tuple(
                (f"{size_mb}MB {tag}", (size_mb, n_cores))
                for size_mb in L2_SIZES_MB
                for n_cores, tag in ((1, "single core"), (4, "4-way CMP"))
            ),
            cols=workload_axis(CMP),
            cell=_fig02_cell,
            unit="% per instruction",
            notes=(
                "paper band, 2MB 4-way CMP: 0.07-0.44%; 1MB CMP: 0.24-0.81%",
                "Mix runs only on the CMP (nan for single core)",
            ),
        ),
    ),
    expectations=(
        Compare(
            panel="fig02",
            row="2MB 4-way CMP",
            other_row="2MB single core",
            op=">",
            cols=("DB", "TPC-W", "jApp"),
            note="CMP rates exceed single core at the default 2MB",
        ),
        Compare(
            panel="fig02",
            row="1MB 4-way CMP",
            other_row="2MB 4-way CMP",
            op=">",
            cols=("DB", "TPC-W", "jApp"),
            note="capacity has a large effect",
        ),
        Compare(
            panel="fig02",
            row="2MB 4-way CMP",
            other_row="4MB 4-way CMP",
            op=">",
            cols=("DB", "TPC-W", "jApp"),
        ),
        Compare(
            panel="fig02",
            row="2MB 4-way CMP",
            col="Mixed",
            other_col="DB",
            op=">",
            note="the multiprogrammed mix is among the highest CMP rates",
        ),
        Compare(panel="fig02", row="2MB 4-way CMP", col="Mixed", other_col="TPC-W", op=">"),
        Compare(panel="fig02", row="2MB 4-way CMP", col="Mixed", other_col="Web", op=">"),
    ),
    # Capacity effects need the longer measurement windows: at smoke
    # scale a 1-4MB L2 never fills, so the sweep is compulsory-miss flat.
    bench_scale="default",
)

# --------------------------------------------------------------------------
# Figure 3 — instruction-miss breakdown by transition category (§3.2)


def _fig03_build(
    ctx: ExperimentContext, n_cores: int, workload: str
) -> Optional[RunSpec]:
    if workload == "mix" and n_cores == 1:
        return None
    return ctx.spec(workload, n_cores)


_KIND_ROWS = tuple((kind_label(kind), kind) for kind in TransitionKind)


def _breakdown_cell(n_cores: int, level: str) -> Callable[[Runs, Any, Any], float]:
    def cell(runs: Runs, kind: Any, workload: Any) -> float:
        result = runs.result(workload, n_cores)
        breakdown = result.l1i_breakdown if level == "l1i" else result.l2i_breakdown
        return 100.0 * breakdown.fractions()[kind]

    return cell


_FIG03_NOTES = ("paper: sequential only 40-60%; branches 20-40%; calls 15-20%",)


def _sequential_band(panel: str, lo: float, hi: float) -> Expectation:
    return Band(
        panel=panel,
        row="Sequential",
        lo=lo,
        hi=hi,
        note="sequential misses are only part of the story (§3.2)",
    )


FIG03 = Experiment(
    name="fig03",
    title="Instruction-miss breakdown by transition category",
    paper="Figure 3 (§3.2)",
    tags=("figure", "baseline", "breakdown"),
    grid=Grid(axes=(("n_cores", (1, 4)), ("workload", CMP)), build=_fig03_build),
    panels=(
        PanelDef(
            id="fig03i",
            title="I$ miss breakdown (single core)",
            rows=_KIND_ROWS,
            cols=workload_axis(BASE),
            cell=_breakdown_cell(1, "l1i"),
            unit="% of misses",
            fmt=".1f",
            notes=_FIG03_NOTES,
        ),
        PanelDef(
            id="fig03ii",
            title="L2$ instruction miss breakdown (single core)",
            rows=_KIND_ROWS,
            cols=workload_axis(BASE),
            cell=_breakdown_cell(1, "l2i"),
            unit="% of misses",
            fmt=".1f",
            notes=_FIG03_NOTES,
        ),
        PanelDef(
            id="fig03iii",
            title="L2$ instruction miss breakdown (4-way CMP)",
            rows=_KIND_ROWS,
            cols=workload_axis(CMP),
            cell=_breakdown_cell(4, "l2i"),
            unit="% of misses",
            fmt=".1f",
            notes=_FIG03_NOTES,
        ),
    ),
    expectations=(
        _sequential_band("fig03i", 30.0, 70.0),
        Band(panel="fig03i", row="Trap", hi=2.0, note="traps are negligible"),
        Compare(
            panel="fig03i",
            row="Cond branch (tf)",
            other_row="Cond branch (tb)",
            op=">=",
            note="taken-forward conditionals dominate the branch misses",
        ),
        Compare(
            panel="fig03i",
            row="Call",
            other_row="Jump",
            op=">=",
            note="direct calls dominate the function-call misses",
        ),
        _sequential_band("fig03ii", 25.0, 75.0),
        _sequential_band("fig03iii", 25.0, 75.0),
    ),
)

# --------------------------------------------------------------------------
# Figure 4 — potential of eliminating instruction misses (§3.3)

#: the paper's six elimination sets, in legend order.
ELIMINATIONS: Tuple[Tuple[str, FrozenSet[MissClass]], ...] = (
    ("Sequential only", frozenset({MissClass.SEQUENTIAL})),
    ("Branch only", frozenset({MissClass.BRANCH})),
    ("Function only", frozenset({MissClass.FUNCTION})),
    ("Sequential + Branch", frozenset({MissClass.SEQUENTIAL, MissClass.BRANCH})),
    ("Sequential + Function", frozenset({MissClass.SEQUENTIAL, MissClass.FUNCTION})),
    (
        "Seq + Branch + Function",
        frozenset({MissClass.SEQUENTIAL, MissClass.BRANCH, MissClass.FUNCTION}),
    ),
)


def _fig04_build(
    ctx: ExperimentContext, n_cores: int, workload: str
) -> Optional[List[RunSpec]]:
    if workload == "mix" and n_cores == 1:
        return None
    return [ctx.spec(workload, n_cores)] + [
        ctx.spec(workload, n_cores, free_miss_classes=free_set)
        for _, free_set in ELIMINATIONS
    ]


def _elimination_cell(n_cores: int) -> Callable[[Runs, Any, Any], float]:
    def cell(runs: Runs, free_set: Any, workload: Any) -> float:
        return runs.speedup(workload, n_cores, "none", free_miss_classes=free_set)

    return cell


_FIG04_ROWS = tuple((label, free_set) for label, free_set in ELIMINATIONS)


def _fig04_expectations(panel: str) -> Tuple[Expectation, ...]:
    return (
        Compare(
            panel=panel,
            row="Sequential only",
            other_row="Branch only",
            op=">=",
            offset=-0.02,
            note="sequential-only beats branch-only (§3.3)",
        ),
        Compare(
            panel=panel,
            row="Sequential only",
            other_row="Function only",
            op=">=",
            offset=-0.02,
        ),
        Compare(
            panel=panel,
            row="Seq + Branch + Function",
            other_row="Sequential only",
            op=">=",
            note="eliminating everything beats any single class",
        ),
        Compare(
            panel=panel,
            row="Seq + Branch + Function",
            other_row="Sequential + Branch",
            op=">=",
            offset=-1e-9,
        ),
        Band(
            panel=panel,
            row="Branch only",
            lo=0.99,
            note="every elimination is a (weak) improvement",
        ),
        Band(panel=panel, row="Function only", lo=0.99),
    )


FIG04 = Experiment(
    name="fig04",
    title="Performance potential of eliminating instruction misses",
    paper="Figure 4 (§3.3)",
    tags=("figure", "limit-study", "speedup"),
    grid=Grid(axes=(("n_cores", (1, 4)), ("workload", CMP)), build=_fig04_build),
    panels=(
        PanelDef(
            id="fig04i",
            title="Miss-elimination potential (single core)",
            rows=_FIG04_ROWS,
            cols=workload_axis(BASE),
            cell=_elimination_cell(1),
            unit="speedup, X",
            notes=("paper: up to ~1.6X when all three classes are eliminated",),
        ),
        PanelDef(
            id="fig04ii",
            title="Miss-elimination potential (4-way CMP)",
            rows=_FIG04_ROWS,
            cols=workload_axis(CMP),
            cell=_elimination_cell(4),
            unit="speedup, X",
            notes=("paper: up to ~1.6X when all three classes are eliminated",),
        ),
    ),
    expectations=_fig04_expectations("fig04i")
    + _fig04_expectations("fig04ii")
    + (
        Band(
            panel="fig04ii",
            row="Seq + Branch + Function",
            agg="max",
            lo=1.25,
            note="vast improvements are available (paper: up to ~1.6X)",
        ),
    ),
)

# --------------------------------------------------------------------------
# Figures 5/6/7 — the shared normal-install prefetcher sweep (§6)

#: the paper's Figure 5/6/7 scheme set, legend order.
SCHEMES = ("next-line-on-miss", "next-line-tagged", "next-4-line", "discontinuity")


def _fig05_build(
    ctx: ExperimentContext, n_cores: int, workload: str, scheme: str
) -> Optional[RunSpec]:
    if workload == "mix" and n_cores == 1:
        return None
    return ctx.spec(workload, n_cores, scheme)


#: Figures 5, 6 and 7 read the same normal-install runs: one shared grid,
#: deduplicated across the three experiments by the batch submission path.
FIG05_GRID = Grid(
    axes=(("n_cores", (1, 4)), ("workload", CMP), ("scheme", ("none",) + SCHEMES)),
    build=_fig05_build,
)


def _miss_ratio(
    n_cores: int, metric: str, zero: float = 0.0
) -> Callable[[Runs, Any, Any], float]:
    def cell(runs: Runs, scheme: Any, workload: Any) -> float:
        base = getattr(runs.result(workload, n_cores), metric)
        rate = getattr(runs.result(workload, n_cores, scheme), metric)
        return rate / base if base > 0 else zero

    return cell


def _perf_cell(n_cores: int, l2_policy: str) -> Callable[[Runs, Any, Any], float]:
    def cell(runs: Runs, scheme: Any, workload: Any) -> float:
        return runs.speedup(workload, n_cores, scheme, l2_policy=l2_policy)

    return cell


def _fig05_ordering(panel: str) -> Tuple[Expectation, ...]:
    return (
        Compare(
            panel=panel,
            row="Next-line (on miss)",
            other_row="Next-line (tagged)",
            op=">",
            note="aggressiveness ordering: on-miss leaves the most misses",
        ),
        Compare(
            panel=panel,
            row="Next-line (tagged)",
            other_row="Next-4-lines (tagged)",
            op=">",
        ),
        Compare(
            panel=panel,
            row="Next-4-lines (tagged)",
            other_row="Discontinuity",
            op=">=",
            factor=0.85,
        ),
        Band(
            panel=panel,
            row="Next-line (on miss)",
            hi=0.9,
            note="every scheme removes misses",
        ),
    )


FIG05 = Experiment(
    name="fig05",
    title="Residual instruction miss rates under the HW prefetchers",
    paper="Figure 5 (§6)",
    tags=("figure", "prefetch", "miss-rate"),
    grid=FIG05_GRID,
    panels=(
        PanelDef(
            id="fig05i",
            title="I$ miss rate under prefetching (single core)",
            rows=scheme_axis(SCHEMES),
            cols=workload_axis(BASE),
            cell=_miss_ratio(1, "l1i_miss_rate"),
            unit="normalized to no prefetch",
            notes=("paper: discontinuity residual miss rate is 10-16% of baseline",),
        ),
        PanelDef(
            id="fig05ii",
            title="L2$ instruction miss rate under prefetching (single core)",
            rows=scheme_axis(SCHEMES),
            cols=workload_axis(BASE),
            cell=_miss_ratio(1, "l2i_miss_rate"),
            unit="normalized to no prefetch",
            notes=("paper: discontinuity residual miss rate is 10-16% of baseline",),
        ),
        PanelDef(
            id="fig05iii",
            title="L2$ instruction miss rate under prefetching (4-way CMP)",
            rows=scheme_axis(SCHEMES),
            cols=workload_axis(CMP),
            cell=_miss_ratio(4, "l2i_miss_rate"),
            unit="normalized to no prefetch",
            notes=("paper: discontinuity residual miss rate is 10-16% of baseline",),
        ),
    ),
    expectations=_fig05_ordering("fig05i")
    + _fig05_ordering("fig05ii")
    + _fig05_ordering("fig05iii")
    + (
        Band(
            panel="fig05i",
            row="Discontinuity",
            hi=0.30,
            note="discontinuity eliminates the vast majority of L1I misses",
        ),
    ),
)

_FIG06_NOTE = "normal L2 install: pollution limits the gains (paper: <= ~1.28X)"


def _fig06_expectations(panel: str) -> Tuple[Expectation, ...]:
    return (
        Band(panel=panel, lo=0.97, note="all schemes improve on no-prefetch"),
        Compare(
            panel=panel,
            row="Discontinuity",
            other_row="Next-line (on miss)",
            op=">=",
            note="aggressiveness ordering holds for the main pair",
        ),
    )


FIG06 = Experiment(
    name="fig06",
    title="Prefetcher speedups under the normal (polluting) L2 install",
    paper="Figure 6 (§6)",
    tags=("figure", "prefetch", "speedup"),
    grid=FIG05_GRID,
    panels=(
        PanelDef(
            id="fig06i",
            title="Prefetcher speedups, normal L2 install (single core)",
            rows=scheme_axis(SCHEMES),
            cols=workload_axis(BASE),
            cell=_perf_cell(1, "normal"),
            unit="speedup, X",
            notes=(_FIG06_NOTE,),
        ),
        PanelDef(
            id="fig06ii",
            title="Prefetcher speedups, normal L2 install (4-way CMP)",
            rows=scheme_axis(SCHEMES),
            cols=workload_axis(CMP),
            cell=_perf_cell(4, "normal"),
            unit="speedup, X",
            notes=(_FIG06_NOTE,),
        ),
    ),
    expectations=_fig06_expectations("fig06i")
    + _fig06_expectations("fig06ii")
    + (
        Band(
            panel="fig06ii",
            row="Discontinuity",
            agg="max",
            lo=1.05,
            hi=1.8,
            note="gains are real but below the Figure 4 potential (pollution)",
        ),
    ),
    bench_scale="default",
)

FIG07 = Experiment(
    name="fig07",
    title="L2 data-miss pollution from instruction prefetching",
    paper="Figure 7 (§6)",
    tags=("figure", "prefetch", "pollution"),
    grid=FIG05_GRID,
    panels=(
        PanelDef(
            id="fig07i",
            title="L2$ data miss rate under prefetching (single core, normal install)",
            rows=scheme_axis(SCHEMES),
            cols=workload_axis(BASE),
            cell=_miss_ratio(1, "l2d_miss_rate", zero=1.0),
            unit="normalized to no prefetch",
            notes=("paper: aggressive schemes reach ~1.35X on the CMP",),
        ),
        PanelDef(
            id="fig07ii",
            title="L2$ data miss rate under prefetching (4-way CMP, normal install)",
            rows=scheme_axis(SCHEMES),
            cols=workload_axis(CMP),
            cell=_miss_ratio(4, "l2d_miss_rate", zero=1.0),
            unit="normalized to no prefetch",
            notes=("paper: aggressive schemes reach ~1.35X on the CMP",),
        ),
    ),
    expectations=(
        Band(
            panel="fig07ii",
            row="Discontinuity",
            lo=1.01,
            note="aggressive prefetching inflates the CMP L2 data miss rate",
        ),
        Band(panel="fig07ii", row="Next-4-lines (tagged)", lo=1.01),
        Compare(
            panel="fig07ii",
            row="Discontinuity",
            other_row="Next-line (on miss)",
            op=">=",
            offset=-0.05,
            note="the gentle next-line schemes pollute less",
        ),
        Band(
            panel="fig07i",
            row="Discontinuity",
            agg="max",
            lo=1.005,
            note="the single core shows the effect too, if less strongly",
        ),
    ),
    bench_scale="default",
)

# --------------------------------------------------------------------------
# Figure 8 — speedups with L2-bypass installation (§7)


def _fig08_build(
    ctx: ExperimentContext, n_cores: int, workload: str, scheme: str
) -> Optional[RunSpec]:
    if workload == "mix" and n_cores == 1:
        return None
    if scheme == "none":
        return ctx.spec(workload, n_cores)
    return ctx.spec(workload, n_cores, scheme, l2_policy="bypass")


_FIG08_NOTE = "bypass install (§7): pollution removed; paper: 1.08-1.37X on CMP"

FIG08 = Experiment(
    name="fig08",
    title="Prefetcher speedups with L2-bypass installation",
    paper="Figure 8 (§7)",
    tags=("figure", "prefetch", "speedup", "bypass"),
    grid=Grid(
        axes=(("n_cores", (1, 4)), ("workload", CMP), ("scheme", ("none",) + SCHEMES)),
        build=_fig08_build,
    ),
    panels=(
        PanelDef(
            id="fig08i",
            title="Prefetcher speedups, L2-bypass install (single core)",
            rows=scheme_axis(SCHEMES),
            cols=workload_axis(BASE),
            cell=_perf_cell(1, "bypass"),
            unit="speedup, X",
            notes=(_FIG08_NOTE,),
        ),
        PanelDef(
            id="fig08ii",
            title="Prefetcher speedups, L2-bypass install (4-way CMP)",
            rows=scheme_axis(SCHEMES),
            cols=workload_axis(CMP),
            cell=_perf_cell(4, "bypass"),
            unit="speedup, X",
            notes=(_FIG08_NOTE,),
        ),
    ),
    expectations=(
        Band(panel="fig08i", lo=0.97, note="all schemes improve on no-prefetch"),
        Band(panel="fig08ii", lo=0.97),
        Band(
            panel="fig08ii",
            row="Discontinuity",
            agg="max",
            lo=1.15,
            note="paper headline: discontinuity with bypass reaches 1.08-1.37X",
        ),
        Band(panel="fig08ii", row="Discontinuity", agg="min", lo=1.02),
    ),
    bench_scale="default",
)

# --------------------------------------------------------------------------
# Figure 9 — accuracy and the next-2-line discontinuity variant (§7)

#: Figure 9 scheme set: Figure 5's four plus the 2NL discontinuity.
SCHEMES_9 = SCHEMES + ("discontinuity-2nl",)


def _fig09_build(
    ctx: ExperimentContext, workload: str, scheme: str
) -> RunSpec:
    if scheme == "none":
        return ctx.spec(workload, 4)
    return ctx.spec(workload, 4, scheme, l2_policy="bypass")


def _fig09_accuracy(runs: Runs, scheme: Any, workload: Any) -> float:
    result = runs.result(workload, 4, scheme, l2_policy="bypass")
    return 100.0 * result.prefetch_accuracy


FIG09 = Experiment(
    name="fig09",
    title="Prefetch accuracy and the next-2-line discontinuity variant",
    paper="Figure 9 (§7)",
    tags=("figure", "prefetch", "accuracy"),
    grid=Grid(
        axes=(("workload", CMP), ("scheme", ("none",) + SCHEMES_9)),
        build=_fig09_build,
    ),
    panels=(
        PanelDef(
            id="fig09i",
            title="Prefetch accuracy (4-way CMP)",
            rows=scheme_axis(SCHEMES_9),
            cols=workload_axis(CMP),
            cell=_fig09_accuracy,
            unit="% useful/issued",
            fmt=".1f",
            notes=("paper: discont (2NL) ~50% more accurate than discontinuity (4NL)",),
        ),
        PanelDef(
            id="fig09ii",
            title="Speedups including discont (2NL) (4-way CMP, bypass)",
            rows=scheme_axis(SCHEMES_9),
            cols=workload_axis(CMP),
            cell=_perf_cell(4, "bypass"),
            unit="speedup, X",
            notes=("paper: discont (2NL) outperforms next-4-lines",),
        ),
    ),
    expectations=(
        Compare(
            panel="fig09i",
            row="Next-line (on miss)",
            other_row="Next-4-lines (tagged)",
            op=">",
            note="accuracy falls with aggressiveness",
        ),
        Compare(
            panel="fig09i",
            row="Next-4-lines (tagged)",
            other_row="Discontinuity",
            op=">",
        ),
        Compare(
            panel="fig09i",
            row="Next-line (tagged)",
            other_row="Next-4-lines (tagged)",
            op=">",
        ),
        Compare(
            panel="fig09i",
            row="Discont (2NL)",
            other_row="Discontinuity",
            op=">",
            factor=1.25,
            note="the 2NL variant is ~50% more accurate (loose: >= 25%)",
        ),
        Compare(
            panel="fig09ii",
            row="Discont (2NL)",
            other_row="Next-4-lines (tagged)",
            op=">",
            factor=0.9,
            note="2NL stays competitive despite the shorter reach",
        ),
    ),
)

# --------------------------------------------------------------------------
# Figure 10 — miss coverage vs. discontinuity-table size (§7)

#: the paper's sweep, largest first (legend order).
TABLE_SIZES = (8192, 4096, 2048, 1024, 512, 256)

_FIG10_VARIANTS: Tuple[Union[int, str], ...] = TABLE_SIZES + ("next-4-line",)


def _fig10_build(ctx: ExperimentContext, workload: str, variant: Any) -> RunSpec:
    if variant == "next-4-line":
        return ctx.spec(workload, 4, "next-4-line", l2_policy="bypass")
    return ctx.spec(
        workload,
        4,
        "discontinuity",
        l2_policy="bypass",
        prefetcher_overrides={"table_entries": variant},
    )


def _fig10_cell(metric: str) -> Callable[[Runs, Any, Any], float]:
    def cell(runs: Runs, variant: Any, workload: Any) -> float:
        if variant == "next-4-line":
            result = runs.result(workload, 4, "next-4-line", l2_policy="bypass")
        else:
            result = runs.result(
                workload,
                4,
                "discontinuity",
                l2_policy="bypass",
                prefetcher_overrides={"table_entries": variant},
            )
        return 100.0 * getattr(result, metric)

    return cell


_FIG10_ROWS = tuple((f"{size}-entries", size) for size in TABLE_SIZES) + (
    ("Next-4lines (tagged)", "next-4-line"),
)

_FIG10_NOTES = (
    "paper: 4x table reduction costs minimal coverage; all sizes beat next-4-line",
)


def _fig10_expectations(panel: str) -> Tuple[Expectation, ...]:
    return (
        Compare(
            panel=panel,
            row="2048-entries",
            other_row="8192-entries",
            op=">",
            offset=-8.0,
            note="a 4x smaller table loses minimal coverage",
        ),
        Compare(
            panel=panel,
            row="8192-entries",
            other_row="256-entries",
            op=">=",
            offset=-3.0,
            note="larger tables never cover (much) less",
        ),
        Compare(
            panel=panel,
            row="256-entries",
            other_row="Next-4lines (tagged)",
            op=">",
            note="every table size beats the next-4-line prefetcher",
        ),
    )


FIG10 = Experiment(
    name="fig10",
    title="Miss coverage vs. discontinuity-table size",
    paper="Figure 10 (§7)",
    tags=("figure", "prefetch", "coverage"),
    grid=Grid(
        axes=(("variant", _FIG10_VARIANTS), ("workload", CMP)),
        build=_fig10_build,
    ),
    panels=(
        PanelDef(
            id="fig10i",
            title="L1 miss coverage vs. discontinuity table size (4-way CMP)",
            rows=_FIG10_ROWS,
            cols=workload_axis(CMP),
            cell=_fig10_cell("l1i_coverage"),
            unit="% coverage",
            fmt=".1f",
            notes=_FIG10_NOTES,
        ),
        PanelDef(
            id="fig10ii",
            title="L2 miss coverage vs. discontinuity table size (4-way CMP)",
            rows=_FIG10_ROWS,
            cols=workload_axis(CMP),
            cell=_fig10_cell("l2i_coverage"),
            unit="% coverage",
            fmt=".1f",
            notes=_FIG10_NOTES,
        ),
    ),
    expectations=_fig10_expectations("fig10i") + _fig10_expectations("fig10ii"),
)
