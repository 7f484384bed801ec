"""Declarative experiment catalog: experiments as data, not drivers.

An :class:`Experiment` fully describes one paper figure, ablation or
comparison: an axis grid that expands to the :class:`RunSpec` set the
experiment reads, per-panel metric extractors over the completed
:class:`SystemResult` runs, and the paper's expected bands as declarative
:class:`Expectation` objects.  One generic :func:`run_experiment` executes
any of them: it batch-submits the grid through the executor/diskcache/
trace-store stack, assembles :class:`ExperimentResult` panels, and
evaluates the expectations into structured :class:`Verdict` objects.

The catalog of concrete declarations lives in :mod:`repro.eval.catalog`;
:mod:`repro.eval.registry` exposes it by name.  Declaring a module-level
experiment there registers it; the catalog rejects duplicate names and
entries without panels or expectations when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.eval.figures import ExperimentResult
from repro.eval.profiles import ExperimentScale, get_scale
from repro.eval.runspec import DEFAULT_SEED, RunSpec, dedupe_specs

#: ordering used to gate expectations on the running scale; scales not in
#: this table (ad-hoc test scales) rank below everything, so qualitative
#: bands are skipped rather than spuriously failed on tiny runs.
SCALE_RANK: Dict[str, int] = {"smoke": 0, "default": 1, "full": 2}


def scale_rank(name: str) -> int:
    return SCALE_RANK.get(name, -1)


@dataclass(frozen=True)
class ExperimentContext:
    """Resolved run parameters one experiment execution is keyed by."""

    scale: ExperimentScale
    seed: int = DEFAULT_SEED
    #: replication experiments span these seeds; empty for everything else.
    seeds: Tuple[int, ...] = ()

    def spec(
        self, workload: str, n_cores: int, prefetcher: str = "none", **kwargs: Any
    ) -> RunSpec:
        """Build a RunSpec with this context's scale/seed defaults."""
        kwargs.setdefault("scale", self.scale)
        kwargs.setdefault("seed", self.seed)
        return RunSpec.create(workload, n_cores, prefetcher, **kwargs)


#: a grid axis: (name, values) where values is a sequence or a callable
#: evaluated against the context (e.g. replication seeds).
AxisValues = Union[Sequence[Any], Callable[[ExperimentContext], Sequence[Any]]]

#: a grid point builder: maps the context plus one value per axis to the
#: spec(s) that point contributes (None skips the point).
GridBuilder = Callable[..., Union[RunSpec, Sequence[RunSpec], None]]


@dataclass(frozen=True)
class Grid:
    """Cartesian axis grid expanded through a per-point RunSpec builder.

    Experiments that read the same runs (Figures 5, 6 and 7) share one
    ``Grid`` instance; the registry's cross-experiment dedupe then
    simulates the overlap once.
    """

    axes: Tuple[Tuple[str, AxisValues], ...]
    build: GridBuilder

    def specs(self, ctx: ExperimentContext) -> List[RunSpec]:
        """Expand the grid to the deduplicated RunSpec list it declares."""
        names = [name for name, _ in self.axes]
        values = [
            list(axis(ctx)) if callable(axis) else list(axis)
            for _, axis in self.axes
        ]
        out: List[RunSpec] = []
        for point in product(*values):
            built = self.build(ctx, **dict(zip(names, point)))
            if built is None:
                continue
            if isinstance(built, RunSpec):
                out.append(built)
            else:
                out.extend(built)
        return dedupe_specs(out)


class Runs:
    """Completed results of one experiment's sweep, keyed ergonomically.

    Panel extractors never simulate: every lookup must hit a spec the
    experiment's grid declared, so a missing key is a declaration bug and
    raises ``KeyError`` naming the spec.
    """

    def __init__(
        self, ctx: ExperimentContext, results: Mapping[RunSpec, Any]
    ) -> None:
        self.ctx = ctx
        self._results = dict(results)

    def __len__(self) -> int:
        return len(self._results)

    def result(
        self, workload: str, n_cores: int, prefetcher: str = "none", **kwargs: Any
    ) -> Any:
        spec = self.ctx.spec(workload, n_cores, prefetcher, **kwargs)
        try:
            return self._results[spec]
        except KeyError:
            raise KeyError(
                f"run {spec.describe()} is not part of this experiment's grid"
            ) from None

    def speedup(
        self,
        workload: str,
        n_cores: int,
        prefetcher: str,
        base: Optional[Dict[str, Any]] = None,
        **kwargs: Any,
    ) -> float:
        """IPC of the configured run over the matching no-prefetch baseline."""
        base_kwargs = dict(base or {})
        if "seed" in kwargs and "seed" not in base_kwargs:
            base_kwargs["seed"] = kwargs["seed"]
        baseline = self.result(workload, n_cores, "none", **base_kwargs)
        result = self.result(workload, n_cores, prefetcher, **kwargs)
        return result.aggregate_ipc / baseline.aggregate_ipc


#: one panel axis: (display label, extractor key) pairs.
PanelAxis = Tuple[Tuple[str, Any], ...]

#: a cell extractor: (runs, row key, col key) -> value.
CellFn = Callable[[Runs, Any, Any], float]


@dataclass(frozen=True)
class PanelDef:
    """Declarative panel: labelled row/col axes plus one cell extractor."""

    id: str
    title: str
    rows: PanelAxis
    cols: PanelAxis
    cell: CellFn
    unit: str = ""
    fmt: str = ".3f"
    notes: Tuple[str, ...] = ()

    def build(self, runs: Runs) -> ExperimentResult:
        values = [
            [float(self.cell(runs, row_key, col_key)) for _, col_key in self.cols]
            for _, row_key in self.rows
        ]
        return ExperimentResult(
            experiment=self.id,
            title=self.title,
            row_labels=[label for label, _ in self.rows],
            col_labels=[label for label, _ in self.cols],
            values=values,
            unit=self.unit,
            fmt=self.fmt,
            notes=list(self.notes),
        )


@dataclass(frozen=True)
class Verdict:
    """Structured outcome of evaluating one expectation."""

    experiment: str
    panel: str
    kind: str
    description: str
    status: str  #: "pass" | "fail" | "skip"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def format(self) -> str:
        text = f"{self.status.upper():4s} [{self.kind}] {self.panel}: {self.description}"
        if self.detail:
            text += f" — {self.detail}"
        return text

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "panel": self.panel,
            "kind": self.kind,
            "description": self.description,
            "status": self.status,
            "detail": self.detail,
        }


def _selected_cols(
    panel: ExperimentResult, cols: Optional[Sequence[str]]
) -> List[str]:
    return list(cols) if cols is not None else list(panel.col_labels)


@dataclass(frozen=True)
class Expectation:
    """Base class: a paper-derived check over one experiment's panels.

    ``min_scale`` names the smallest scale the check is meaningful at;
    ``None`` inherits the experiment's ``bench_scale``.  Below that (or at
    an unrecognised ad-hoc scale) the check reports ``skip``, not ``fail``.
    """

    panel: str
    note: str = ""
    min_scale: Optional[str] = None

    kind = "expectation"

    def describe(self) -> str:
        return self.note or self.kind

    def check(self, panel: ExperimentResult) -> Tuple[bool, str]:
        raise NotImplementedError

    def evaluate(
        self, experiment_name: str, panels: Mapping[str, ExperimentResult]
    ) -> Verdict:
        panel = panels.get(self.panel)
        if panel is None:
            return Verdict(
                experiment_name,
                self.panel,
                self.kind,
                self.describe(),
                "fail",
                f"panel {self.panel!r} not produced (have: {sorted(panels)})",
            )
        ok, detail = self.check(panel)
        return Verdict(
            experiment_name,
            self.panel,
            self.kind,
            self.describe(),
            "pass" if ok else "fail",
            detail,
        )


def _fmt(value: float) -> str:
    return f"{value:.4g}"


@dataclass(frozen=True)
class Band(Expectation):
    """Row values (or their min/max aggregate) lie strictly inside a band."""

    row: Optional[str] = None  #: None checks every row
    lo: Optional[float] = None
    hi: Optional[float] = None
    cols: Optional[Tuple[str, ...]] = None
    agg: Optional[str] = None  #: None per-cell, or "max"/"min" over the row

    kind = "band"

    def describe(self) -> str:
        if self.note:
            return self.note
        target = self.row if self.row is not None else "every row"
        prefix = f"{self.agg} of " if self.agg else ""
        band = f"({_fmt(self.lo) if self.lo is not None else '-inf'}, "
        band += f"{_fmt(self.hi) if self.hi is not None else 'inf'})"
        return f"{prefix}{target} in {band}"

    def check(self, panel: ExperimentResult) -> Tuple[bool, str]:
        rows = [self.row] if self.row is not None else list(panel.row_labels)
        failures: List[str] = []
        checked = 0
        for row in rows:
            cells = [
                (col, panel.value(row, col))
                for col in _selected_cols(panel, self.cols)
            ]
            cells = [(col, v) for col, v in cells if not math.isnan(v)]
            if self.agg:
                reducer = max if self.agg == "max" else min
                cells = [(self.agg, reducer(v for _, v in cells))] if cells else []
            for col, value in cells:
                checked += 1
                if self.lo is not None and not value > self.lo:
                    failures.append(f"{row}/{col}={_fmt(value)} <= {_fmt(self.lo)}")
                elif self.hi is not None and not value < self.hi:
                    failures.append(f"{row}/{col}={_fmt(value)} >= {_fmt(self.hi)}")
        if failures:
            return False, "; ".join(failures)
        return True, f"{checked} cell(s) in band"


_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


@dataclass(frozen=True)
class Compare(Expectation):
    """``value(row, col)  op  factor * value(other_row, other_col) + offset``.

    With ``col`` unset the comparison runs across every selected column
    (same column on both sides unless ``other_col`` pins one); with ``col``
    set it compares a single cell pair.  ``allow_failures`` tolerates that
    many failing columns before the verdict fails.
    """

    row: str = ""
    other_row: Optional[str] = None  #: defaults to ``row``
    op: str = ">"
    factor: float = 1.0
    offset: float = 0.0
    col: Optional[str] = None
    other_col: Optional[str] = None
    cols: Optional[Tuple[str, ...]] = None
    allow_failures: int = 0

    kind = "compare"

    def _rhs(self) -> str:
        rhs = f"{self.other_row if self.other_row is not None else self.row}"
        if self.factor != 1.0:
            rhs = f"{_fmt(self.factor)}*{rhs}"
        if self.offset:
            rhs += f" {'+' if self.offset > 0 else '-'} {_fmt(abs(self.offset))}"
        return rhs

    def describe(self) -> str:
        if self.note:
            return self.note
        lhs = self.row + (f"[{self.col}]" if self.col else "")
        return f"{lhs} {self.op} {self._rhs()}"

    def check(self, panel: ExperimentResult) -> Tuple[bool, str]:
        other_row = self.other_row if self.other_row is not None else self.row
        if self.col is not None:
            pairs = [(self.col, self.other_col or self.col)]
        else:
            pairs = [
                (col, self.other_col or col)
                for col in _selected_cols(panel, self.cols)
            ]
        failures: List[str] = []
        checked = 0
        for col, other_col in pairs:
            lhs = panel.value(self.row, col)
            rhs = self.factor * panel.value(other_row, other_col) + self.offset
            if math.isnan(lhs) or math.isnan(rhs):
                continue
            checked += 1
            if not _OPS[self.op](lhs, rhs):
                failures.append(
                    f"{self.row}/{col}={_fmt(lhs)} !{self.op} {_fmt(rhs)}"
                )
        if len(failures) > self.allow_failures:
            return False, "; ".join(failures)
        detail = f"{checked} column(s) satisfy {self.op} {self._rhs()}"
        if failures:
            detail += f" (tolerated: {'; '.join(failures)})"
        return True, detail


@dataclass(frozen=True)
class Spread(Expectation):
    """Per column, max minus min across *rows* stays under ``hi``."""

    rows: Tuple[str, ...] = ()
    hi: float = 0.0
    cols: Optional[Tuple[str, ...]] = None

    kind = "spread"

    def describe(self) -> str:
        return self.note or f"spread across {list(self.rows)} < {_fmt(self.hi)}"

    def check(self, panel: ExperimentResult) -> Tuple[bool, str]:
        failures: List[str] = []
        for col in _selected_cols(panel, self.cols):
            values = [panel.value(row, col) for row in self.rows]
            values = [v for v in values if not math.isnan(v)]
            if not values:
                continue
            spread = max(values) - min(values)
            if not spread < self.hi:
                failures.append(f"{col}: spread {_fmt(spread)} >= {_fmt(self.hi)}")
        if failures:
            return False, "; ".join(failures)
        return True, f"spread < {_fmt(self.hi)} everywhere"


@dataclass(frozen=True)
class Extremum(Expectation):
    """The cell at (row, col) is the max (or min) of its whole row."""

    row: str = ""
    col: str = ""
    extremum: str = "max"

    kind = "extremum"

    def describe(self) -> str:
        return self.note or f"{self.col} is the {self.extremum} of row {self.row!r}"

    def check(self, panel: ExperimentResult) -> Tuple[bool, str]:
        values = [v for v in panel.row(self.row) if not math.isnan(v)]
        reducer = max if self.extremum == "max" else min
        target = panel.value(self.row, self.col)
        best = reducer(values)
        if target == best:
            return True, f"{self.col}={_fmt(target)} is the row {self.extremum}"
        return False, f"{self.col}={_fmt(target)} but row {self.extremum} is {_fmt(best)}"


@dataclass(frozen=True)
class Experiment:
    """One declared experiment: grid, panels, expectations, metadata."""

    name: str
    title: str
    paper: str  #: paper reference, e.g. "Figure 5 (§6)"
    tags: Tuple[str, ...]
    grid: Grid
    panels: Tuple[PanelDef, ...]
    expectations: Tuple[Expectation, ...]
    #: smallest scale whose benchmark asserts the expectations; also the
    #: default ``min_scale`` for each of this experiment's expectations.
    bench_scale: str = "smoke"
    #: replication seed set (empty: single-seed experiment).
    seeds: Tuple[int, ...] = ()

    def context(
        self,
        scale: Union[ExperimentScale, str, None] = None,
        seed: Optional[int] = None,
    ) -> ExperimentContext:
        if scale is None or isinstance(scale, str):
            scale = get_scale(scale or "")
        return ExperimentContext(
            scale=scale,
            seed=DEFAULT_SEED if seed is None else seed,
            seeds=self.seeds,
        )

    def specs(
        self,
        scale: Union[ExperimentScale, str, None] = None,
        seed: Optional[int] = None,
    ) -> List[RunSpec]:
        """The deduplicated RunSpec set this experiment reads."""
        return self.grid.specs(self.context(scale, seed))

    def evaluate(
        self, panels: Sequence[ExperimentResult], ctx: ExperimentContext
    ) -> List[Verdict]:
        """Evaluate every declared expectation against built panels."""
        by_id = {panel.experiment: panel for panel in panels}
        verdicts = []
        for expectation in self.expectations:
            min_scale = expectation.min_scale or self.bench_scale
            if scale_rank(ctx.scale.name) < scale_rank(min_scale):
                verdicts.append(
                    Verdict(
                        self.name,
                        expectation.panel,
                        expectation.kind,
                        expectation.describe(),
                        "skip",
                        f"scale {ctx.scale.name!r} below {min_scale!r}",
                    )
                )
                continue
            verdicts.append(self.evaluate_one(expectation, by_id))
        return verdicts

    def evaluate_one(
        self, expectation: Expectation, panels: Mapping[str, ExperimentResult]
    ) -> Verdict:
        try:
            return expectation.evaluate(self.name, panels)
        except KeyError as error:
            return Verdict(
                self.name,
                expectation.panel,
                expectation.kind,
                expectation.describe(),
                "fail",
                f"lookup error: {error}",
            )


@dataclass
class ExperimentOutcome:
    """Everything one :func:`run_experiment` call produced."""

    experiment: Experiment
    ctx: ExperimentContext
    panels: List[ExperimentResult]
    verdicts: List[Verdict]
    report: Optional[Any] = None  #: the executor's SweepReport, if captured

    @property
    def name(self) -> str:
        return self.experiment.name

    def panel(self, panel_id: str) -> ExperimentResult:
        for panel in self.panels:
            if panel.experiment == panel_id:
                return panel
        raise KeyError(
            f"{self.name}: no panel {panel_id!r}; available: "
            f"{[p.experiment for p in self.panels]}"
        )

    @property
    def failed_verdicts(self) -> List[Verdict]:
        return [verdict for verdict in self.verdicts if verdict.failed]

    @property
    def passed(self) -> bool:
        return not self.failed_verdicts

    def verdict_summary(self) -> str:
        counts = {"pass": 0, "fail": 0, "skip": 0}
        for verdict in self.verdicts:
            counts[verdict.status] += 1
        return (
            f"expectations: {counts['pass']} pass, {counts['fail']} fail, "
            f"{counts['skip']} skipped"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.name,
            "title": self.experiment.title,
            "paper": self.experiment.paper,
            "scale": self.ctx.scale.name,
            "seed": self.ctx.seed,
            "panels": [panel.to_dict() for panel in self.panels],
            "verdicts": [verdict.to_dict() for verdict in self.verdicts],
        }


def run_experiment(
    experiment: Experiment,
    scale: Union[ExperimentScale, str, None] = None,
    seed: Optional[int] = None,
    jobs: Optional[int] = None,
    progress: Optional[Callable[..., None]] = None,
) -> ExperimentOutcome:
    """The single generic pathway every catalog experiment runs through.

    Batch-submits the declared grid (executor fans out across workers and
    persists to the disk cache), builds every declared panel from the
    completed runs, and evaluates the declared expectations.
    """
    from repro.eval.executor import run_specs_report

    ctx = experiment.context(scale, seed)
    specs = experiment.grid.specs(ctx)
    results, report = run_specs_report(
        specs, jobs=jobs, progress=progress, label=experiment.name
    )
    runs = Runs(ctx, results)
    panels = [panel.build(runs) for panel in experiment.panels]
    verdicts = experiment.evaluate(panels, ctx)
    return ExperimentOutcome(experiment, ctx, panels, verdicts, report)


def estimate_experiment(
    experiment: Experiment,
    scale: Union[ExperimentScale, str, None] = None,
    seed: Optional[int] = None,
) -> Dict[str, Any]:
    """Dry-run cost estimate: spec count plus a disk-cache hit probe.

    Nothing is simulated or loaded; the probe only checks which declared
    specs already have an entry in the on-disk result cache.
    """
    from repro.eval import diskcache

    specs = experiment.specs(scale, seed)
    cached = 0
    if diskcache.enabled():
        cached = sum(1 for spec in specs if diskcache.path_for(spec).is_file())
    return {
        "experiment": experiment.name,
        "specs": len(specs),
        "cached": cached,
        "to_simulate": len(specs) - cached,
        "panels": len(experiment.panels),
        "expectations": len(experiment.expectations),
    }


__all__ = [
    "Band",
    "Compare",
    "Experiment",
    "ExperimentContext",
    "ExperimentOutcome",
    "Expectation",
    "Extremum",
    "Grid",
    "PanelDef",
    "Runs",
    "Spread",
    "Verdict",
    "estimate_experiment",
    "run_experiment",
    "scale_rank",
]
