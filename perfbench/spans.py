"""In-memory span tracer for the benchmark's traced run.

The simulator carries no tracing of its own, so the traced run wraps the
public entry point of each layer from outside (:data:`LAYER_PATCHES`) and
records one :class:`Span` per call: name, start, end, parent, plus a few
counts taken from the call's arguments and result.  Spans stay in memory
until the run ends; :func:`layer_metrics` then turns them into per-layer
self times (a span's duration minus the part of it its child spans cover)
and the counts and ratios declared as ``per_layer`` metrics in
``BENCHMARK.json``.

The traced run is serial, so every span opens and closes on one stack in
one process; no span is lost inside a pool worker.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: the prefetcher families the CMP sweep runs; each gets its engine time.
PREFETCHERS = (
    "none",
    "next-4-line",
    "target",
    "markov",
    "fdp",
    "mana",
    "shadow",
    "discontinuity",
)

#: ``(args, kwargs, result) -> span attributes`` for one traced call.
Annotate = Callable[[tuple, dict, Any], Dict[str, Any]]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    #: index of the enclosing span in the tracer's list (None for a root).
    parent: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans on one stack; patches layer functions in place."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable, annotate: Optional[Annotate] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if annotate is not None:
                self.spans[index].attrs.update(annotate(args, kwargs, result))
            return result

        return traced

    def patch(
        self, owner: Any, attr: str, name: str, annotate: Optional[Annotate] = None
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone by :meth:`unpatch`)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self.wrap(name, original.__func__, annotate))
        else:
            replacement = self.wrap(name, original, annotate)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def install(self, patches: Sequence[Tuple[str, str, str, Optional[Annotate]]]) -> None:
        """Apply ``(module, "attr" or "Class.attr", span name, annotate)`` patches."""
        for module_name, target, name, annotate in patches:
            owner: Any = importlib.import_module(module_name)
            *path, attr = target.split(".")
            for part in path:
                owner = getattr(owner, part)
            self.patch(owner, attr, name, annotate)

    def unpatch(self) -> None:
        while self._undo:
            self._undo.pop()()


# --------------------------------------------------------------------- #
# The layers, and what each span counts
# --------------------------------------------------------------------- #


def _synth_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    # traces_for(workload, n_cores, seed, n_instructions), called positionally
    # by the runner.
    return {"instructions": args[1] * args[3]}


def _compile_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"visits": len(result)}


def _hit_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"hit": result is not None}


def _run_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    system = args[0]
    return {
        "n_cores": len(result.cores),
        "prefetcher": system.config.prefetcher,
        # Line visits stepped, warm-up included (compiled traces: one
        # entry per visit).
        "visits": sum(len(engine.trace) for engine in system.engines),
    }


#: (module, attribute, span name, annotate): each layer's public entry
#: point, patched where its callers look it up — ``traces_for`` in the
#: runner, which imports it by name.
LAYER_PATCHES: Tuple[Tuple[str, str, str, Optional[Annotate]], ...] = (
    ("repro.eval.runner", "traces_for", "trace.synth", _synth_attrs),
    ("repro.trace.compiled", "CompiledTrace.compile", "trace.compile", _compile_attrs),
    ("repro.trace.store", "load", "store.load", _hit_attrs),
    ("repro.trace.store", "store", "store.write", None),
    ("repro.core.jitted", "jit_available", "jit.kernel", None),
    ("repro.cmp.system", "System.__init__", "system.construct", None),
    ("repro.cmp.system", "System.run", "system.run", _run_attrs),
    ("repro.eval.diskcache", "load", "cache.load", _hit_attrs),
    ("repro.eval.diskcache", "store", "cache.write", None),
    ("repro.eval.executor", "run_specs_report", "executor", None),
    ("repro.eval.experiment", "run_experiment", "experiment", None),
)


# --------------------------------------------------------------------- #
# Self time and per-layer metrics
# --------------------------------------------------------------------- #


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its direct children cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        inner = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(index, ())
        ]
        out.append(span.duration - _covered(inner))
    return out


def _root_names(spans: Sequence[Span]) -> List[str]:
    """The name of each span's root ancestor (parents precede children)."""
    roots: List[str] = []
    for span in spans:
        roots.append(span.name if span.parent is None else roots[span.parent])
    return roots


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced run (self times in seconds).

    Times cover the whole run, set-up included; ``*.sweep_calls`` counts
    only calls inside the ``sweep`` root span, which shows whether a layer
    worked in the sweep or only in set-up.
    """
    selfs = self_times(spans)
    roots = _root_names(spans)

    def pick(name: str) -> List[int]:
        return [i for i, span in enumerate(spans) if span.name == name]

    def self_s(name: str) -> float:
        return sum((selfs[i] for i in pick(name)), 0.0)

    def total(name: str, attr: str) -> float:
        return sum(spans[i].attrs.get(attr, 0) for i in pick(name))

    def sweep_calls(name: str) -> int:
        return sum(1 for i in pick(name) if roots[i] == "sweep")

    def engine_s(key: str, value: Any) -> float:
        runs = pick("system.run")
        return sum((selfs[i] for i in runs if spans[i].attrs.get(key) == value), 0.0)

    metrics: Dict[str, float] = {
        "synth.s": self_s("trace.synth"),
        "synth.calls": len(pick("trace.synth")),
        "synth.sweep_calls": sweep_calls("trace.synth"),
        "synth.minstr_per_s": _ratio(
            total("trace.synth", "instructions") / 1e6, self_s("trace.synth")
        ),
        "compile.s": self_s("trace.compile"),
        "compile.calls": len(pick("trace.compile")),
        "compile.sweep_calls": sweep_calls("trace.compile"),
        "compile.kvisits_per_s": _ratio(
            total("trace.compile", "visits") / 1e3, self_s("trace.compile")
        ),
        "store.load_s": self_s("store.load"),
        "store.loads": len(pick("store.load")),
        "store.hit_ratio": _ratio(total("store.load", "hit"), len(pick("store.load"))),
        "store.write_s": self_s("store.write"),
        "store.writes": len(pick("store.write")),
        "jit.kernel_s": self_s("jit.kernel"),
        "system.construct_s": self_s("system.construct"),
        "engine.s": self_s("system.run"),
        "engine.runs": len(pick("system.run")),
        "engine.kvisits_per_s": _ratio(
            total("system.run", "visits") / 1e3, self_s("system.run")
        ),
        "engine.1c.s": engine_s("n_cores", 1),
        "engine.4c.s": engine_s("n_cores", 4),
    }
    for prefetcher in PREFETCHERS:
        metrics[f"engine.pf.{prefetcher}.s"] = engine_s("prefetcher", prefetcher)
    metrics.update(
        {
            "cache.load_s": self_s("cache.load"),
            "cache.loads": len(pick("cache.load")),
            "cache.hit_ratio": _ratio(total("cache.load", "hit"), len(pick("cache.load"))),
            "cache.write_s": self_s("cache.write"),
            "cache.writes": len(pick("cache.write")),
            "executor.self_s": self_s("executor"),
            "experiment.self_s": self_s("experiment"),
            "traced.setup_s": sum(spans[i].duration for i in pick("setup")),
            "traced.sweep_s": sum(spans[i].duration for i in pick("sweep")),
            # Time inside the root spans that no layer claims: the
            # benchmark's own bookkeeping and code between layer calls.
            "other.self_s": self_s("setup") + self_s("sweep"),
        }
    )
    return metrics
