"""Unit tests for the workload registry and the mixed-workload helper."""

import pytest

from repro.trace.synth.mix import MIX_REGION_STRIDE, mixed_traces
from repro.trace.synth.workloads import (
    WORKLOADS,
    generate_trace,
    get_profile,
    workload_names,
)


class TestRegistry:
    def test_four_paper_workloads(self):
        assert workload_names() == ["db", "tpcw", "japp", "web"]

    def test_get_profile(self):
        assert get_profile("db") is WORKLOADS["db"]

    def test_get_profile_unknown(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_profile("oracle")

    def test_profiles_are_valid(self):
        # Construction runs __post_init__ validation; also sanity-check the
        # published qualitative ordering knobs.
        japp = get_profile("japp")
        web = get_profile("web")
        assert japp.block_mean_instr < web.block_mean_instr  # Java small blocks
        assert japp.p_poly_call > web.p_poly_call  # virtual dispatch
        assert japp.n_functions > web.n_functions  # biggest footprint


class TestGenerateTrace:
    def test_generates_requested_length(self):
        trace = generate_trace("web", seed=1, n_instructions=20_000)
        assert trace.total_instructions >= 20_000
        assert trace.name == "web"

    def test_deterministic_in_seed(self):
        a = generate_trace("web", seed=1, n_instructions=5_000)
        b = generate_trace("web", seed=1, n_instructions=5_000)
        assert list(a.events) == list(b.events)

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            generate_trace("nope", seed=1, n_instructions=100)


class TestMixedTraces:
    def test_default_is_four_apps(self):
        traces = mixed_traces(seed=3, n_instructions_per_core=5_000)
        assert [t.name for t in traces] == ["db", "tpcw", "japp", "web"]

    def test_regions_disjoint(self):
        traces = mixed_traces(seed=3, n_instructions_per_core=5_000)
        for core, trace in enumerate(traces):
            lo = core * MIX_REGION_STRIDE
            hi = (core + 1) * MIX_REGION_STRIDE
            for event in list(trace.events)[:200]:
                assert lo <= event.addr < hi
                for addr in event.data:
                    assert lo <= addr < hi

    def test_custom_names(self):
        traces = mixed_traces(seed=3, n_instructions_per_core=2_000, names=["web", "web"])
        assert len(traces) == 2
        assert all(t.name == "web" for t in traces)

    def test_cores_decorrelated(self):
        traces = mixed_traces(seed=3, n_instructions_per_core=2_000, names=["web", "web"])
        offsets = [
            [e.addr - core * MIX_REGION_STRIDE for e in list(t.events)[:100]]
            for core, t in enumerate(traces)
        ]
        assert offsets[0] != offsets[1]
