"""The jit kernel's L1D filter: a trace's L1D misses, computed once.

In the kernel only the core's own demand data reaches its L1D, so the
L1D's hits, misses and evictions depend only on the trace and the L1D
geometry.  ``repro_l1d_filter`` (``kernel/engine.c``) runs the data column
through an empty LRU L1D once per trace and geometry, and each run steps
only the listed misses.  These tests pin the filter against the reference
cache, its memo key, its sharing across pool threads, and the L1D that a
partial ``step()`` run leaves behind.
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro.caches.cache import SetAssociativeCache
from repro.caches.config import CacheConfig, HierarchyConfig
from repro.caches.line import LineState
from repro.cmp.system import System, SystemConfig
from repro.core import jitted
from repro.eval import executor, runner
from repro.eval.diskcache import _core_to_dict, result_to_payload
from repro.eval.profiles import ExperimentScale, get_scale
from repro.eval.runspec import RunSpec
from repro.trace.compiled import CompiledTrace

SMOKE = get_scale("smoke")

pytestmark = pytest.mark.skipif(
    not jitted.jit_available(), reason="no C compiler: jit kernel unbuildable"
)

#: (sets, ways, line size): one set, direct-mapped, 8 ways, and every line
#: size from 16 to 128 bytes.
GEOMETRIES = [
    (1, 1, 64),
    (1, 4, 32),
    (4, 1, 16),
    (2, 8, 128),
    (8, 2, 64),
    (16, 8, 16),
    (4, 4, 128),
]


def _data_trace(rng: random.Random, visits: int, line_size: int, lines: int) -> CompiledTrace:
    """A trace of *visits* visits whose data column is a random stream
    over *lines* lines; about a quarter of the visits have no data."""
    data = array("q")
    offsets = array("q", [0])
    for _ in range(visits):
        if rng.random() >= 0.25:
            for _ in range(rng.randint(1, 6)):
                data.append(rng.randrange(lines) * line_size + rng.randrange(line_size))
        offsets.append(len(data))
    return CompiledTrace(
        workload="stream",
        name="stream",
        seed=0,
        core=0,
        n_instructions=visits,
        line_size=line_size,
        lines=array("q", range(visits)),
        kinds=array("b", [0] * visits),
        ninstr=array("i", [1] * visits),
        data=data,
        offsets=offsets,
        disc=array("b", [0] * visits),
    )


def _reference_replay(trace: CompiledTrace, sets: int, ways: int):
    """The reference engine's L1D data path over *trace*: per visit, the
    missing lines with the evicted bit, and the cache left behind."""
    line_size = trace.line_size
    cache = SetAssociativeCache("l1d", CacheConfig(sets * ways * line_size, ways, line_size))
    shift = line_size.bit_length() - 1
    per_visit = []
    for v in range(trace.visit_count):
        misses = []
        for addr in trace.data[trace.offsets[v] : trace.offsets[v + 1]]:
            line = addr >> shift
            if cache.lookup(line) is None:
                evicted = cache.install(line, LineState(used=True)) is not None
                misses.append(line | jitted.L1D_EVICTED if evicted else line)
        per_visit.append(misses)
    return per_visit, cache


def _contents(cache) -> list:
    """Resident lines in LRU order with every LineState field."""
    return [
        (line, [getattr(state, name) for name in state.__slots__])
        for line, state in cache.resident_lines()
    ]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("sets,ways,line_size", GEOMETRIES)
def test_filter_matches_the_reference_cache(seed, sets, ways, line_size) -> None:
    """Per-visit misses, evicted bits and the final contents equal a
    replay through ``SetAssociativeCache.lookup``/``install``.  The
    stream spans twice the cache's lines, so it both hits and evicts."""
    rng = random.Random(seed * 1000 + sets * 10 + ways)
    trace = _data_trace(rng, 300, line_size, 2 * sets * ways)
    key = (sets - 1, ways, line_size.bit_length() - 1)
    misses, offsets = jitted.l1d_filter(trace, key)
    expected, cache = _reference_replay(trace, sets, ways)

    assert len(offsets) == trace.visit_count + 1
    got = [list(misses[offsets[v] : offsets[v + 1]]) for v in range(trace.visit_count)]
    assert got == expected
    assert any(miss & jitted.L1D_EVICTED for miss in misses)
    assert len(misses) < len(trace.data)

    decoded = SetAssociativeCache("decoded", cache.config)
    decoded._sets = jitted._l1d_sets(trace, key, trace.visit_count)
    assert _contents(decoded) == _contents(cache)


def _geometry_system(trace: CompiledTrace, ways: int, backend: str) -> System:
    """A one-core system over *trace* whose L1D has 64 sets of *ways*."""
    hierarchy = HierarchyConfig(
        l1i=CacheConfig(32 * 1024, 4, 64),
        l1d=CacheConfig(64 * ways * 64, ways, 64),
        l2=CacheConfig(1 << 20, 8, 64),
    )
    config = SystemConfig(
        n_cores=1,
        hierarchy=hierarchy,
        prefetcher="next-4-line",
        warm_instructions=SMOKE.warm_instructions,
        engine_backend=backend,
    )
    return System(config, [trace])


def _outcome(system: System) -> dict:
    result = system.run()
    engine = system.engines[0]
    return {
        "result": result_to_payload(result),
        "l1d": vars(engine.l1d.stats).copy(),
        "contents": _contents(engine.l1d),
    }


def test_memo_is_keyed_by_the_whole_geometry() -> None:
    """One trace through two L1Ds with the same sets and line size but
    different associativity: each jit run equals its reference run."""
    total = SMOKE.warm_instructions + SMOKE.measure_instructions
    trace = runner.get_compiled_traces("web", 1, total)[0]
    outcomes = {}
    for ways in (2, 4):
        jit = _geometry_system(trace, ways, "jit")
        outcomes[ways] = _outcome(jit)
        assert jit.engines[0].fallback_reason is None
        assert outcomes[ways] == _outcome(_geometry_system(trace, ways, "reference"))
    assert {(63, 2, 6), (63, 4, 6)} <= set(trace.l1d_filters)
    assert outcomes[2]["l1d"] != outcomes[4]["l1d"]


TINY = ExperimentScale(
    name="tiny",
    warm_instructions=2_000,
    measure_instructions=4_000,
    cmp_measure_instructions=4_000,
)


def test_pool_threads_share_each_filter(monkeypatch) -> None:
    """A thread-pool batch whose specs share one 4-core trace computes
    each core's filter once, and equals a serial batch."""
    calls = []
    compute = jitted._compute_l1d_filter

    def counting(trace, key):
        calls.append((id(trace), key))
        return compute(trace, key)

    monkeypatch.setattr(jitted, "_compute_l1d_filter", counting)
    runner.clear_trace_cache()
    specs = [
        RunSpec.create("db", 4, name, scale=TINY, l2_policy="bypass", engine_backend="jit")
        for name in ("none", "next-4-line", "discontinuity", "markov")
    ]
    executor.clear_memo()
    pooled, report = executor.run_specs_report(specs, jobs=2)
    assert report.pool == "threads"
    assert len(calls) == 4
    assert len(set(calls)) == 4

    executor.clear_memo()
    runner.clear_trace_cache()
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    serial, report = executor.run_specs_report(specs, jobs=1)
    assert report.pool == "serial"
    for spec in specs:
        assert result_to_payload(pooled[spec]) == result_to_payload(serial[spec])
    executor.clear_memo()


def test_clear_trace_cache_drops_the_filters() -> None:
    total = SMOKE.warm_instructions + SMOKE.measure_instructions
    system = System(
        SystemConfig(n_cores=1, engine_backend="jit"),
        runner.get_compiled_traces("db", 1, total),
    )
    system.run()
    assert system.engines[0].trace.l1d_filters
    runner.clear_trace_cache()
    assert not runner.get_compiled_traces("db", 1, total)[0].l1d_filters


@pytest.mark.parametrize("steps", [0, 1, 7, 250, 4000])
def test_partial_step_run_leaves_the_reference_l1d(steps) -> None:
    """After *steps* ``step()`` calls, the jit engine's L1D holds, and
    counts, exactly what the reference engine's does at that visit."""
    total = SMOKE.warm_instructions + SMOKE.measure_instructions
    traces = runner.get_compiled_traces("japp", 1, total)
    engines = []
    for backend in ("reference", "jit"):
        config = SystemConfig(n_cores=1, prefetcher="discontinuity", engine_backend=backend)
        system = System(config, traces)
        engine = system.engines[0]
        for _ in range(steps):
            assert engine.step()
        engines.append(engine)
    reference, jit = engines
    assert (jit._c is not None) == (steps > 0)
    assert _contents(jit.l1d) == _contents(reference.l1d)
    assert vars(jit.l1d.stats) == vars(reference.l1d.stats)
    # Reading the L1D mid-run does not disturb the rest of the run.
    while reference.step():
        assert jit.step()
    assert not jit.step()
    assert _contents(jit.l1d) == _contents(reference.l1d)
    assert _core_to_dict(jit.stats) == _core_to_dict(reference.stats)
