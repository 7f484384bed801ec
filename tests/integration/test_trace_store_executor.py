"""Trace store × executor integration: workers load, only the parent compiles.

The tentpole claim of the trace store is that a pooled sweep synthesizes
and lowers each trace key **once, in the parent** — workers then load the
packed files.  ``REPRO_SYNTH_LOG`` records one JSON line per actual
synthesis with the synthesizing pid, which is exactly the observability
these tests need.
"""

import json
import os

import pytest

from repro.envvars import REPRO_JOBS, REPRO_SYNTH_LOG
from repro.eval import executor
from repro.eval.profiles import ExperimentScale
from repro.eval.runner import (
    clear_trace_cache,
    precompile_for_specs,
    synthesis_count,
)
from repro.eval.runspec import RunSpec
from repro.trace import store

TINY = ExperimentScale(
    name="tiny",
    warm_instructions=4_000,
    measure_instructions=12_000,
    cmp_measure_instructions=6_000,
)


def tiny_specs():
    # Three prefetchers over one trace key plus one second workload: the
    # batch needs 2 trace keys, not 4.
    return [
        RunSpec.create("db", 1, "none", scale=TINY),
        RunSpec.create("db", 1, "discontinuity", scale=TINY),
        RunSpec.create("db", 1, "next-2-line", scale=TINY),
        RunSpec.create("web", 1, "none", scale=TINY),
    ]


@pytest.fixture(autouse=True)
def fresh_state():
    executor.clear_memo()
    clear_trace_cache()
    yield
    executor.clear_memo()
    clear_trace_cache()


def read_synth_log(path):
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestPrecompile:
    def test_one_compile_per_trace_key(self):
        outcomes = precompile_for_specs(tiny_specs())
        assert len(outcomes) == 2
        assert set(outcomes.values()) == {"compiled"}
        assert store.entry_count() == 2

    def test_second_pass_is_memo_and_cleared_cache_hits_store(self):
        precompile_for_specs(tiny_specs())
        assert set(precompile_for_specs(tiny_specs()).values()) == {"memo"}
        clear_trace_cache()
        assert set(precompile_for_specs(tiny_specs()).values()) == {"store"}

    def test_synthesis_shared_across_line_sizes(self):
        from repro.caches.config import DEFAULT_HIERARCHY

        base = synthesis_count()
        specs = [
            RunSpec.create(
                "db",
                1,
                "none",
                scale=TINY,
                hierarchy=DEFAULT_HIERARCHY.with_l1i(line_size=size),
            )
            for size in (32, 64, 128)
        ]
        outcomes = precompile_for_specs(specs)
        assert len(outcomes) == 3  # one compiled trace per line size...
        # ...but a single raw synthesis served all of them.
        assert synthesis_count() - base == 1


class TestPooledSweep:
    def test_workers_load_from_store_parent_synthesizes(self, tmp_path, monkeypatch):
        log_path = str(tmp_path / "synth.jsonl")
        monkeypatch.setenv(REPRO_SYNTH_LOG, log_path)
        monkeypatch.setenv(REPRO_JOBS, "2")

        specs = tiny_specs()
        results = executor.run_specs(specs, jobs=2)
        assert len(results) == len(specs)
        assert store.entry_count() == 2

        records = read_synth_log(log_path)
        synth_pids = {record["pid"] for record in records}
        # Every synthesis happened in the parent (the precompile pass);
        # pool workers only loaded packed files.
        assert synth_pids == {os.getpid()}
        assert len(records) == 2

    def test_pooled_results_match_serial(self, monkeypatch):
        specs = tiny_specs()
        pooled = executor.run_specs(specs, jobs=2)
        executor.clear_memo()
        clear_trace_cache()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(store.trace_dir().parent / "serial"))
        serial = executor.run_specs(specs, jobs=1)
        for spec in specs:
            assert pooled[spec].aggregate_ipc == serial[spec].aggregate_ipc
            assert [c.cycles for c in pooled[spec].cores] == [
                c.cycles for c in serial[spec].cores
            ]
