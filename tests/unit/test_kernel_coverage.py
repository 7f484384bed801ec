"""Which smoke-catalog specs the jit kernel runs, and why the rest fall back.

Every spec of the smoke catalog is built as a real system (through the
executor's own spec → ``run_system`` path, software-prefetch factory
included) on tiny traces — eligibility depends on the configuration,
never on trace length or on the software prefetcher's plan, which is
left empty here — and each engine is asked
:meth:`~repro.core.jitted.JittedCoreEngine.kernel_fallback_reason`.  The
count pins kernel coverage: porting a family lowers it, and a family that
silently drops out of the kernel raises it.  The kernel binds construction
state only, so an engine touched before it binds would count under its own
reason ("... touched before the kernel bound"): none of the catalog's is.
The executor's spec-side check (:func:`repro.eval.runner.kernel_fallback_reason`),
which picks a batch's pool before any system exists, must give each spec
the reason its engines give.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.cmp.system import System
from repro.core import jitted
from repro.eval import executor
from repro.eval.catalog import CATALOG
from repro.eval.profiles import ExperimentScale, get_scale
from repro.eval.runner import kernel_fallback_reason
from repro.swpf import prefetcher as swpf
from repro.swpf.analysis import PrefetchPlan

pytestmark = pytest.mark.skipif(
    not jitted.jit_available(), reason="no C compiler: jit kernel unbuildable"
)

#: instruction budgets just large enough to build every spec's system.
TINY = ExperimentScale(
    name="tiny",
    warm_instructions=1_000,
    measure_instructions=1_000,
    cmp_measure_instructions=1_000,
)

#: reason prefix -> the category the assertions below count.
CATEGORIES = (
    ("prefetcher SoftwarePrefetcher ", "software prefetch"),
    ("non-LRU replacement", "non-LRU"),
    ("inclusive L2", "inclusive L2"),
)

#: fallbacks per category over the 440-spec smoke union.
EXPECTED = {
    "software prefetch": 4,
    "non-LRU": 24,
    "inclusive L2": 8,
}


def _category(reason: str) -> str:
    for prefix, category in CATEGORIES:
        if reason.startswith(prefix):
            return category
    return reason


def _smoke_union() -> list:
    scale = get_scale("smoke")
    union = {}
    for experiment in CATALOG.values():
        for spec in experiment.specs(scale=scale):
            union[spec.content_hash()] = spec
    return list(union.values())


def test_smoke_catalog_fallbacks_are_pinned(monkeypatch) -> None:
    def fallback_reasons(system: System):
        return [engine.kernel_fallback_reason() for engine in system.engines]

    # Build each system, ask its engines, and skip the simulation (and
    # the software prefetcher's program analysis).
    monkeypatch.setattr(System, "run", fallback_reasons)
    monkeypatch.setattr(
        swpf,
        "software_prefetcher_for",
        lambda workload, seed, core: swpf.SoftwarePrefetcher(PrefetchPlan(6, {})),
    )
    specs = _smoke_union()
    assert len(specs) == 440
    fallbacks: Counter = Counter()
    for spec in specs:
        jit_spec = dataclasses.replace(spec, scale=TINY, engine_backend="jit")
        reasons = executor._simulate(jit_spec)
        assert len(set(reasons)) == 1, f"{spec.describe()}: cores disagree {reasons}"
        if spec.software_prefetch:
            assert kernel_fallback_reason(jit_spec) is not None
        else:
            assert kernel_fallback_reason(jit_spec) == reasons[0], spec.describe()
        if reasons[0] is not None:
            fallbacks[_category(reasons[0])] += 1
    assert dict(fallbacks) == EXPECTED
    assert sum(fallbacks.values()) == 36
