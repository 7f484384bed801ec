"""Raw-trace input vs compiled-trace input: bit-identical stats.

The engine steps one format, packed :class:`CompiledTrace` columns; a raw
:class:`Trace` handed to it is compiled once at construction.  These tests
pin that an engine handed a raw trace produces *identical* statistics to
one handed its compiled form — every counter and every float, not
approximately — on one core, on a CMP, and with the two mixed across cores.
"""

import dataclasses

import pytest

from repro.caches.missclass import MissBreakdown
from repro.cmp.system import System, SystemConfig
from repro.core.engine import CoreEngine, EngineConfig
from repro.trace.compiled import CompiledTrace, compile_traces
from repro.trace.synth.workloads import generate_trace


def core_dict(core):
    """Every CoreStats field as comparable plain data."""
    plain = dataclasses.asdict(core)
    for key, value in plain.items():
        if isinstance(value, MissBreakdown):
            plain[key] = value.counts()
    return plain


def system_stats(traces, prefetcher, n_cores=1, warm=2_000):
    config = SystemConfig(
        n_cores=n_cores, prefetcher=prefetcher, warm_instructions=warm
    )
    result = System(config, traces).run()
    return [core_dict(core) for core in result.cores]


@pytest.mark.parametrize("prefetcher", ["none", "next-line-tagged", "discontinuity"])
def test_compiled_path_is_bit_identical(prefetcher):
    raw = [generate_trace("db", 5, 40_000)]
    compiled = compile_traces(raw, 64, workload="db", seed=5, n_instructions=40_000)
    assert system_stats(compiled, prefetcher) == system_stats(raw, prefetcher)


def test_compiled_path_identical_on_cmp():
    raw = [generate_trace("web", 9, 12_000, core=core) for core in range(2)]
    config_raw = SystemConfig(n_cores=2, prefetcher="discontinuity")
    config_compiled = SystemConfig(n_cores=2, prefetcher="discontinuity")
    compiled = compile_traces(raw, 64, workload="web", seed=9, n_instructions=12_000)
    result_raw = System(config_raw, raw).run()
    result_compiled = System(config_compiled, compiled).run()
    assert [core_dict(c) for c in result_compiled.cores] == [
        core_dict(c) for c in result_raw.cores
    ]
    assert result_compiled.aggregate_ipc == result_raw.aggregate_ipc


def test_mixed_trace_kinds_per_core():
    """Cores may mix compiled and raw traces within one system."""
    raw = [generate_trace("japp", 3, 8_000, core=core) for core in range(2)]
    compiled0 = CompiledTrace.compile(
        raw[0], 64, workload="japp", seed=3, core=0, n_instructions=8_000
    )
    mixed = System(SystemConfig(n_cores=2), [compiled0, raw[1]]).run()
    pure = System(SystemConfig(n_cores=2), raw).run()
    assert [core_dict(c) for c in mixed.cores] == [
        core_dict(c) for c in pure.cores
    ]


def test_line_size_mismatch_rejected():
    raw = generate_trace("db", 5, 4_000)
    compiled = CompiledTrace.compile(
        raw, 128, workload="db", seed=5, core=0, n_instructions=4_000
    )
    with pytest.raises(ValueError, match="line_size"):
        System(SystemConfig(n_cores=1), [compiled]).run()


def _engine(trace):
    from repro.caches.cache import SetAssociativeCache
    from repro.caches.config import DEFAULT_HIERARCHY
    from repro.cmp.link import OffChipLink
    from repro.prefetch.queue import PrefetchQueue
    from repro.prefetch.registry import create_prefetcher
    from repro.timing.params import DEFAULT_TIMING

    hierarchy = DEFAULT_HIERARCHY
    return CoreEngine(
        EngineConfig(core_id=0),
        trace,
        64,
        SetAssociativeCache("L1I", hierarchy.l1i),
        SetAssociativeCache("L1D", hierarchy.l1d),
        SetAssociativeCache("L2", hierarchy.l2),
        OffChipLink(3.2, 64),
        create_prefetcher("none"),
        PrefetchQueue(),
        DEFAULT_TIMING,
    )


def test_raw_trace_is_compiled_at_construction():
    """A raw trace becomes a CompiledTrace carrying its own provenance."""
    raw = generate_trace("db", 5, 4_000)
    engine = _engine(raw)
    assert isinstance(engine.trace, CompiledTrace)
    assert engine.trace.name == raw.name
    assert engine.trace.seed == raw.seed
    assert engine.trace.core == 0
    assert engine.trace.n_instructions == raw.total_instructions
    assert list(engine.trace.iter_visits()) == list(
        CompiledTrace.compile(
            raw, 64, workload="db", seed=5, core=0, n_instructions=4_000
        ).iter_visits()
    )


def test_engine_step_counts_match():
    """step() yields the same number of visits for raw and compiled input."""
    raw = generate_trace("db", 5, 4_000)
    compiled = CompiledTrace.compile(
        raw, 64, workload="db", seed=5, core=0, n_instructions=4_000
    )

    def count_steps(trace):
        engine = _engine(trace)
        steps = 0
        while engine.step():
            steps += 1
        return steps

    assert count_steps(compiled) == count_steps(raw) == compiled.visit_count
