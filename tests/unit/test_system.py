"""Unit tests for the CMP system model (repro.cmp.system)."""

import math

import pytest

from repro.cmp.system import DEFAULT_BANDWIDTH_GBPS, System, SystemConfig
from repro.isa.kinds import TransitionKind
from repro.trace.record import BlockEvent
from repro.trace.stream import Trace

SEQ = int(TransitionKind.SEQUENTIAL)


def seq_trace(n_lines, start=0x10000, name="t", seed=0):
    events = [BlockEvent(start + i * 64, 16, SEQ, ()) for i in range(n_lines)]
    return Trace(name, seed, events)


class TestSystemConfig:
    def test_default_bandwidths_match_paper(self):
        assert SystemConfig(n_cores=1).resolve_bandwidth() == 10.0
        assert SystemConfig(n_cores=4).resolve_bandwidth() == 20.0
        assert DEFAULT_BANDWIDTH_GBPS == {1: 10.0, 4: 20.0}

    def test_explicit_bandwidth_wins(self):
        assert SystemConfig(n_cores=4, offchip_gbps=5.0).resolve_bandwidth() == 5.0

    def test_intermediate_core_counts_interpolate(self):
        assert 10.0 < SystemConfig(n_cores=2).resolve_bandwidth() < 20.0

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            SystemConfig(n_cores=0)


class TestSystem:
    def test_trace_count_must_match_cores(self):
        with pytest.raises(ValueError, match="traces"):
            System(SystemConfig(n_cores=2), [seq_trace(4)])

    def test_single_core_run(self):
        system = System(SystemConfig(n_cores=1), [seq_trace(8)])
        result = system.run()
        assert result.total_instructions == 8 * 16
        assert len(result.cores) == 1
        assert result.l1i_miss_rate == pytest.approx(8 / 128)

    def test_cores_share_l2(self):
        # Two cores walking the same lines: the second core's L2 accesses
        # should hit lines the first core installed.
        traces = [seq_trace(64, name="a"), seq_trace(64, name="b")]
        system = System(SystemConfig(n_cores=2), traces)
        result = system.run()
        total_l2_misses = sum(core.l2i_demand_misses for core in result.cores)
        # 64 distinct lines fetched by both cores: without sharing this
        # would be 128 L2 misses; with a shared L2 it is ~64.
        assert total_l2_misses < 90

    def test_interleaving_approximates_cycle_order(self):
        # A short trace and a long trace: both must complete.
        traces = [seq_trace(4, name="short"), seq_trace(40, start=0x90000, name="long")]
        system = System(SystemConfig(n_cores=2), traces)
        result = system.run()
        assert result.cores[0].instructions == 4 * 16
        assert result.cores[1].instructions == 40 * 16

    def test_aggregate_ipc_sums_cores(self):
        traces = [seq_trace(8), seq_trace(8, start=0x90000)]
        result = System(SystemConfig(n_cores=2), traces).run()
        assert result.aggregate_ipc == pytest.approx(
            result.cores[0].ipc + result.cores[1].ipc
        )

    def test_prefetcher_instantiated_per_core(self):
        traces = [seq_trace(8), seq_trace(8, start=0x90000)]
        system = System(SystemConfig(n_cores=2, prefetcher="discontinuity"), traces)
        assert system.engines[0].prefetcher is not system.engines[1].prefetcher

    def test_bad_policy_name_raises(self):
        with pytest.raises(KeyError):
            System(SystemConfig(n_cores=1, l2_policy="nope"), [seq_trace(4)])

    def test_bad_prefetcher_name_raises(self):
        # Validated eagerly at config construction (not at registry
        # lookup inside System), so typos fail before any sweep starts.
        with pytest.raises(ValueError, match="unknown prefetcher"):
            SystemConfig(n_cores=1, prefetcher="nope")

    def test_bad_engine_backend_raises(self):
        with pytest.raises(ValueError, match="unknown engine backend 'simd'"):
            SystemConfig(n_cores=1, engine_backend="simd")

    def test_prefetcher_factory_bypasses_name_validation(self):
        from repro.prefetch.base import NullPrefetcher

        config = SystemConfig(
            n_cores=1, prefetcher="custom", prefetcher_factory=lambda: NullPrefetcher()
        )
        assert config.prefetcher == "custom"


class TestSystemResult:
    def test_breakdowns_merged_across_cores(self):
        traces = [seq_trace(8), seq_trace(8, start=0x90000)]
        result = System(SystemConfig(n_cores=2), traces).run()
        merged = result.l1i_breakdown
        assert merged.total == sum(core.l1i_misses for core in result.cores)

    def test_prefetch_aggregates(self):
        result = System(
            SystemConfig(n_cores=1, prefetcher="next-line-tagged"), [seq_trace(32)]
        ).run()
        assert result.prefetch_issued > 0
        assert 0 < result.prefetch_accuracy <= 1.0
        assert 0 < result.l1i_coverage <= 1.0

    def test_coverage_zero_without_prefetch(self):
        result = System(SystemConfig(n_cores=1), [seq_trace(8)]).run()
        assert result.l1i_coverage == 0.0
        assert result.prefetch_accuracy == 0.0

    def test_summary_formats(self):
        result = System(
            SystemConfig(n_cores=1, prefetcher="next-line-tagged"), [seq_trace(16)]
        ).run()
        summary = result.summary()
        assert "aggregate IPC" in summary
        assert "prefetch accuracy" in summary

    def test_rates_are_finite(self):
        result = System(SystemConfig(n_cores=1), [seq_trace(8)]).run()
        for value in (result.l1i_miss_rate, result.l2i_miss_rate, result.l2d_miss_rate):
            assert math.isfinite(value)
