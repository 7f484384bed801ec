"""The pluggable trace-source registry: name → trace resolution.

The load-bearing property is bit-identity: routing the synthetic
profiles through :mod:`repro.trace.source` must produce exactly the
traces the pre-registry code paths produced, or every golden hash and
stored compiled trace silently goes stale.
"""

from __future__ import annotations

import pytest

from repro.eval.runspec import RunSpec
from repro.trace import source
from repro.trace.ingest import ingest_file
from repro.trace.synth.mix import mixed_traces
from repro.trace.synth.workloads import (
    SCENARIO_WORKLOADS,
    WORKLOADS,
    generate_trace,
    get_profile,
    synth_workload_names,
)

N = 5_000


@pytest.fixture
def external_loop(tmp_path, monkeypatch):
    """One ingested external trace named 'loop', in an isolated directory."""
    monkeypatch.setenv("REPRO_EXTERNAL_TRACES", str(tmp_path / "external"))
    stream = tmp_path / "loop.txt"
    stream.write_text(
        "\n".join(hex(0x1000 + 4 * (i % 64)) for i in range(640)) + "\n"
    )
    ingest_file(stream)
    return "loop"


class TestRegistry:
    def test_source_names_cover_every_profile_plus_mix(self):
        assert source.source_names() == synth_workload_names()[:4] + ["mix"] + list(
            SCENARIO_WORKLOADS
        )
        assert source.source_names() == [
            "db", "tpcw", "japp", "web", "mix", "microsvc", "interp", "osmix",
        ]

    def test_every_source_has_an_explicit_label(self):
        for name in source.source_names():
            label = source.resolve(name).label
            assert label, name

    def test_display_labels_come_from_profiles_plus_mix(self):
        profiles = list(WORKLOADS.values()) + list(SCENARIO_WORKLOADS.values())
        for profile in profiles:
            assert source.source_display_name(profile.name) == profile.display
        assert source.source_display_name("mix") == "Mixed"
        assert set(source.source_names()) == {p.name for p in profiles} | {"mix"}

    def test_every_profile_is_registered(self):
        for name in list(WORKLOADS) + list(SCENARIO_WORKLOADS):
            assert isinstance(source.resolve(name), source.SynthSource)

    def test_scenario_profiles_exist_and_generate(self):
        for name in SCENARIO_WORKLOADS:
            assert get_profile(name).name == name
            traces = source.traces_for(name, 1, 7, N)
            assert traces[0].total_instructions >= N

    def test_display_names(self):
        assert source.source_display_name("db") == "DB"
        assert source.source_display_name("mix") == "Mixed"
        assert source.source_display_name("microsvc") == "MicroSvc"
        assert source.source_display_name("external:foo") == "foo"


class TestBitIdentity:
    def test_synth_source_matches_direct_generation(self):
        via_source = source.traces_for("db", 2, 1337, N)
        for core, trace in enumerate(via_source):
            direct = generate_trace("db", 1337, N, core=core)
            assert trace.name == direct.name
            assert trace.seed == direct.seed
            assert list(trace.events) == list(direct.events)

    def test_mix_source_matches_mixed_traces(self):
        via_source = source.traces_for("mix", 4, 1337, N)
        direct = mixed_traces(1337, N, ())
        assert [list(t.events) for t in via_source] == [
            list(t.events) for t in direct
        ]

    def test_mix_cycles_base_workloads_off_four_cores(self):
        traces = source.traces_for("mix", 2, 1337, N)
        direct = mixed_traces(1337, N, ["db", "tpcw"])
        assert [list(t.events) for t in traces] == [list(t.events) for t in direct]


class TestResolution:
    def test_unknown_workload_lists_available_sources(self):
        with pytest.raises(ValueError, match="available sources.*'db'"):
            source.resolve("nope")

    def test_unknown_external_names_the_ingest_command(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EXTERNAL_TRACES", str(tmp_path / "empty"))
        with pytest.raises(ValueError, match="repro-trace ingest"):
            source.resolve("external:ghost")

    def test_external_resolves_after_ingest(self, external_loop):
        resolved = source.resolve("external:loop")
        assert isinstance(resolved, source.ExternalSource)
        assert resolved.external_name == "loop"
        assert "external:loop" in source.available_sources()

    def test_external_traces_meet_budget_every_seed(self, external_loop):
        for seed in (1, 1337):
            traces = source.traces_for("external:loop", 2, seed, 2_000)
            assert len(traces) == 2
            for trace in traces:
                assert trace.total_instructions >= 2_000


class TestEagerRunSpecValidation:
    def test_unknown_workload_fails_at_create(self):
        with pytest.raises(ValueError, match="available sources"):
            RunSpec.create("nope", 1)

    def test_uningested_external_fails_at_create(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EXTERNAL_TRACES", str(tmp_path / "empty"))
        with pytest.raises(ValueError, match="not ingested"):
            RunSpec.create("external:ghost", 1)

    def test_registered_workloads_pass(self):
        for workload in source.source_names():
            assert RunSpec.create(workload, 1).workload == workload

    def test_external_passes_once_ingested(self, external_loop):
        spec = RunSpec.create("external:loop", 2)
        assert spec.workload == "external:loop"
        # the workload rides canonical_dict/content_hash as a plain string
        assert spec.canonical_dict()["workload"] == "external:loop"
