"""Jit-backend specifics the parity sweep doesn't cover.

The bit-identity of results is proven by ``test_backend_parity`` (full
CoreStats repr equality across 15 prefetchers × 1/4 cores) and by
``profile_engine.py --verify`` (per-visit lockstep).  This module covers
the machinery around the kernel instead: the on-disk compile cache, the
graceful degradation ladder (no compiler → reference stepping inside the
same engine object), the multi-core batch runner's eligibility guard, the
step()-driven path staying usable alongside run(), and the exact cache
contents a finished kernel run leaves behind.
"""

from __future__ import annotations

import gc
import logging
import weakref

import pytest

from repro.caches.cache import LazySets
from repro.caches.line import LineState
from repro.cmp.system import System, SystemConfig
from repro.core import jitted
from repro.core.jitted import JittedCoreEngine
from repro.eval.profiles import get_scale
from repro.eval.runner import get_compiled_traces, run_system
from repro.eval.runspec import RunSpec
from repro.prefetch.registry import PREFETCHER_NAMES, create_prefetcher
from repro.prefetch.sequential import NextLineTagged
from repro.util import ccompile

SMOKE = get_scale("smoke")

pytestmark = pytest.mark.skipif(
    not jitted.jit_available(), reason="no C compiler: jit kernel unbuildable"
)


def _build_system(n_cores: int = 1, backend: str = "jit", **overrides) -> System:
    total = SMOKE.warm_instructions + (
        SMOKE.measure_instructions if n_cores == 1 else SMOKE.cmp_measure_instructions
    )
    config = SystemConfig(
        n_cores=n_cores,
        prefetcher=overrides.pop("prefetcher", "discontinuity"),
        warm_instructions=SMOKE.warm_instructions,
        engine_backend=backend,
        **overrides,
    )
    return System(config, get_compiled_traces("db", n_cores, total))


# --------------------------------------------------------------------- #
# Kernel build + cache
# --------------------------------------------------------------------- #


def test_kernel_source_hash_is_stable() -> None:
    assert jitted.kernel_source_hash() == jitted.kernel_source_hash()
    assert len(jitted.kernel_source_hash()) == 16


def test_kernel_cached_on_disk(tmp_path, monkeypatch) -> None:
    """The compiled shared object lands in the cache dir under the source
    hash; a second build loads it without invoking the compiler."""
    from repro.envvars import REPRO_JIT_CACHE_DIR

    monkeypatch.setenv(REPRO_JIT_CACHE_DIR, str(tmp_path))
    assert jitted._build_kernel() is not None
    so_path = tmp_path / f"repro_jit_{jitted.kernel_source_hash(jitted.CORE)}.so"
    assert so_path.exists()

    def no_compiler(*args, **kwargs):
        raise AssertionError("cache hit must not invoke the compiler")

    monkeypatch.setattr(ccompile.subprocess, "run", no_compiler)
    assert jitted._build_kernel() is not None


def test_compile_seconds_reported() -> None:
    # Zero when this process loaded a cached kernel; positive when it
    # compiled.  Either way it is a number, queryable after the probe.
    assert jitted.kernel_compile_seconds() >= 0.0


# --------------------------------------------------------------------- #
# Eligibility / degradation
# --------------------------------------------------------------------- #


def test_c_path_engages_for_supported_config() -> None:
    system = _build_system(n_cores=1)
    engine = system.engines[0]
    assert isinstance(engine, JittedCoreEngine)
    assert engine._twin_ready()
    system.run()
    assert engine.finished


class _NoTwin(NextLineTagged):
    """A subclass of a kernel family: the kernel twins exact types only."""


def test_unsupported_prefetcher_uses_reference_stepping() -> None:
    """Prefetchers without a compiled twin run through the inherited
    reference implementation — same engine object, same results."""
    system = _build_system(n_cores=1, prefetcher_factory=lambda core: _NoTwin())
    engine = system.engines[0]
    assert isinstance(engine, JittedCoreEngine)
    assert not engine._twin_ready()
    system.run()
    assert engine.finished


def test_non_lru_replacement_uses_reference_stepping() -> None:
    system = _build_system(n_cores=1, l1_replacement="fifo")
    assert not system.engines[0]._twin_ready()


def test_l2_eviction_hook_disables_c_path() -> None:
    system = _build_system(n_cores=2, l2_inclusive=True)
    assert not any(engine._twin_ready() for engine in system.engines)


# --------------------------------------------------------------------- #
# Multi-core batch runner
# --------------------------------------------------------------------- #


def test_run_multicore_runs_all_cores() -> None:
    system = _build_system(n_cores=4)
    assert JittedCoreEngine.run_multicore(system.engines) is True
    assert all(engine.finished for engine in system.engines)
    assert all(engine.stats.instructions > 0 for engine in system.engines)


def test_run_multicore_declines_mixed_eligibility() -> None:
    """One ineligible sibling forces the whole system onto the Python
    interleave loop — a half-compiled system would let the C side mutate
    shared L2 state behind the reference engine's back."""
    system = _build_system(n_cores=2)
    system.engines[0]._twin_ok = False  # simulate an ineligible core
    assert JittedCoreEngine.run_multicore(system.engines) is False
    # The eligible sibling was pinned to reference stepping too.
    assert system.engines[1]._twin_ok is False


def test_system_run_falls_back_when_runner_declines() -> None:
    system = _build_system(n_cores=2, prefetcher_factory=lambda core: _NoTwin())
    result = system.run()  # run_multicore declines; Python loop finishes
    assert all(engine.finished for engine in system.engines)
    assert result.total_instructions > 0


def test_step_driving_matches_run() -> None:
    """Manually stepping jit engines (as System.run's Python loop or the
    --verify lockstep does) must finish and produce the same stats as the
    batch runner."""
    batch = _build_system(n_cores=2)
    batch.run()
    stepped = _build_system(n_cores=2)
    active = list(stepped.engines)
    while active:
        earliest = active[0]
        for engine in active[1:]:
            if engine.cycle < earliest.cycle:
                earliest = engine
        if not earliest.step():
            active.remove(earliest)
    from repro.eval.diskcache import _core_to_dict

    for ran, walked in zip(batch.engines, stepped.engines):
        assert repr(_core_to_dict(ran.stats)) == repr(_core_to_dict(walked.stats))


# --------------------------------------------------------------------- #
# Probe failure ladder
# --------------------------------------------------------------------- #


def test_probe_failure_warns_once_and_degrades(monkeypatch, caplog) -> None:
    monkeypatch.setattr(jitted, "_kernel_lib", None)
    monkeypatch.setattr(jitted, "_kernel_probed", False)
    monkeypatch.setattr(
        jitted, "_build_kernel", lambda: (_ for _ in ()).throw(OSError("no cc"))
    )
    with caplog.at_level(logging.WARNING, logger="repro.core.jitted"):
        assert jitted._kernel() is None
        assert jitted.jit_available() is False
    warnings = [
        record
        for record in caplog.records
        if "falling back to the reference backend" in record.message
    ]
    assert len(warnings) == 1
    # Second probe is silent.
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="repro.core.jitted"):
        assert jitted._kernel() is None
    assert not caplog.records


# --------------------------------------------------------------------- #
# Post-run cache contents
# --------------------------------------------------------------------- #

#: registered prefetchers whose semantics the kernel replicates.
JIT_PREFETCHERS = [
    name
    for name in PREFETCHER_NAMES
    if type(create_prefetcher(name)) in jitted._PF_MODES
]


def _caches(system: System) -> list:
    caches = [system.l2]
    for engine in system.engines:
        caches.extend((engine.l1i, engine.l1d))
    return caches


def _contents(system: System) -> list:
    """Every cache's resident lines: tag order and every LineState field
    (arrival by float repr, so a last-ulp divergence shows)."""
    return [
        (
            cache.name,
            [
                (
                    line,
                    repr(float(state.arrival)),
                    state.prefetched,
                    state.used,
                    state.bypass_pending,
                    state.from_memory,
                    state.useless_hint,
                    state.provenance,
                )
                for line, state in cache.resident_lines()
            ],
        )
        for cache in _caches(system)
    ]


@pytest.mark.parametrize("l2_policy", ["normal", "bypass"])
@pytest.mark.parametrize("n_cores", [1, 4])
@pytest.mark.parametrize("prefetcher", JIT_PREFETCHERS)
def test_post_run_contents_match_reference(prefetcher, n_cores, l2_policy) -> None:
    """After a kernel run every cache holds exactly what the reference
    engine leaves behind."""
    options = dict(prefetcher=prefetcher, l2_policy=l2_policy)
    reference = _build_system(n_cores, "reference", **options)
    reference.run()
    jit = _build_system(n_cores, **options)
    jit.run()
    assert all(engine._twin_ready() for engine in jit.engines)
    expected = _contents(reference)
    assert sum(len(lines) for _, lines in expected) > 0
    assert _contents(jit) == expected


def test_post_step_contents_match_reference() -> None:
    """Stepping a 1-core jit engine to completion leaves the same
    contents as the reference engine's run."""
    reference = _build_system(1, "reference")
    reference.run()
    jit = _build_system(1)
    engine = jit.engines[0]
    while engine.step():
        pass
    assert engine.finished
    assert _contents(jit) == _contents(reference)
    assert len(jit.l2) == len(reference.l2)
    assert len(engine.l1i) == len(reference.engines[0].l1i)


def _count_builds(monkeypatch) -> list:
    """Record every per-set list a :class:`LazySets` stand-in builds."""
    built = []
    build = LazySets._built

    def spy(self):
        built.append(self.build)
        return build(self)

    monkeypatch.setattr(LazySets, "_built", spy)
    return built


@pytest.mark.parametrize("n_cores", [1, 4])
def test_jit_sweep_builds_no_python_sets(monkeypatch, n_cores) -> None:
    """A jit run that nobody inspects binds every cache as a zeroed image
    and leaves each one decodable but unbuilt."""
    built = _count_builds(monkeypatch)
    spec = RunSpec.create(
        "db", n_cores, "discontinuity", scale="smoke", engine_backend="jit"
    )
    assert run_system(spec).total_instructions > 0
    system = _build_system(n_cores)
    system.run()
    assert built == []
    for cache in _caches(system):
        assert isinstance(cache._sets, LazySets)
        assert cache._sets.build is not None  # the kernel image's decoder


def test_jit_run_sets_built_on_first_read() -> None:
    """The first read decodes the kernel's image into a plain list, equal
    to the reference backend's contents."""
    reference = _build_system(4, "reference")
    reference.run()
    jit = _build_system(4)
    jit.run()
    assert all(isinstance(cache._sets, LazySets) for cache in _caches(jit))
    jit.l2.probe(0)
    assert type(jit.l2._sets) is list
    assert all(
        isinstance(engine.l1i._sets, LazySets) for engine in jit.engines
    )
    assert _contents(jit) == _contents(reference)
    assert all(type(cache._sets) is list for cache in _caches(jit))


def _preinstall(system: System) -> None:
    """Warm lines in the shared L2 and every L1I before any core steps."""
    for line in range(0, 4096, 7):
        system.l2.install(line, LineState(used=True, arrival=1.5))
    for engine in system.engines:
        for line in range(0, 512, 3):
            engine.l1i.install(line, LineState(prefetched=True, provenance=("seq",)))


@pytest.mark.parametrize("n_cores", [1, 4])
def test_caches_installed_before_binding_are_marshalled(n_cores) -> None:
    """A cache read before binding is not pristine: its lines reach the
    kernel, and the run ends where the reference backend's does."""
    reference = _build_system(n_cores, "reference")
    _preinstall(reference)
    expected = reference.run()
    jit = _build_system(n_cores)
    _preinstall(jit)
    assert type(jit.l2._sets) is list
    got = jit.run()
    assert all(engine._twin_ready() for engine in jit.engines)
    assert repr(got.aggregate_ipc) == repr(expected.aggregate_ipc)
    assert _contents(jit) == _contents(reference)


def test_finished_system_freed_without_cyclic_gc() -> None:
    """A finished jit system and its caches hold no reference cycle: they
    die as soon as the last reference drops, before any cyclic
    collection."""
    system = _build_system(4)
    system.run()
    refs = [weakref.ref(system)] + [weakref.ref(cache) for cache in _caches(system)]
    gc.disable()
    try:
        del system
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
