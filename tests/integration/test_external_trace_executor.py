"""Ingested external traces × the sweep executor, end to end.

The tentpole claim of the trace-source layer: an ``external:<name>``
workload is a first-class citizen of the pipeline — it pre-compiles into
the trace store, sweeps through ``run_specs_report`` (serial and pooled,
identically), and lands ordinary :class:`SystemResult`\\ s.
"""

import pytest

from repro.envvars import REPRO_CACHE_DIR
from repro.eval import executor
from repro.eval.executor import run_specs_report
from repro.eval.profiles import ExperimentScale
from repro.eval.runner import clear_trace_cache, precompile_for_specs
from repro.eval.runspec import RunSpec
from repro.trace import store
from repro.trace.ingest import ingest_file

TINY = ExperimentScale(
    name="tiny",
    warm_instructions=4_000,
    measure_instructions=12_000,
    cmp_measure_instructions=6_000,
)


@pytest.fixture(autouse=True)
def fresh_state(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_EXTERNAL_TRACES", str(tmp_path / "external"))
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    executor.clear_memo()
    clear_trace_cache()
    yield
    executor.clear_memo()
    clear_trace_cache()


@pytest.fixture
def ingested(tmp_path):
    """A call-chain-shaped PC stream ingested under the name 'svc'."""
    # ~700 distinct handler blocks (≈ 44 KB of text) so the replayed
    # stream thrashes the L1I and the prefetchers have misses to cover.
    lines = []
    for i in range(1400):
        base = 0x10000 + 0x1000 * (i % 700)
        lines.extend(hex(base + 4 * j) for j in range(12))
        lines.extend(hex(0x800000 + 4 * j) for j in range(6))  # shared helper
    stream = tmp_path / "svc.txt"
    stream.write_text("\n".join(lines) + "\n")
    ingest_file(stream)
    return "external:svc"


def sweep_specs(workload):
    return [
        RunSpec.create(workload, 2, "none", scale=TINY),
        RunSpec.create(workload, 2, "next-4-line", scale=TINY),
        RunSpec.create(workload, 2, "discontinuity", scale=TINY),
    ]


def test_precompile_persists_external_entries(ingested):
    specs = sweep_specs(ingested)
    outcomes = precompile_for_specs(specs)
    assert list(outcomes.values()) == ["compiled"]
    assert store.entry_count() == 2  # one packed file per core
    clear_trace_cache()
    outcomes = precompile_for_specs(specs)
    assert list(outcomes.values()) == ["store"]


def test_external_sweep_end_to_end(ingested):
    results, report = run_specs_report(sweep_specs(ingested), jobs=1)
    assert report.total == 3 and report.failed == 0
    baseline = results[sweep_specs(ingested)[0]]
    prefetched = results[sweep_specs(ingested)[2]]
    assert baseline.total_instructions > 0
    assert baseline.aggregate_ipc > 0
    # the stream has real discontinuities, so the prefetcher must engage
    assert prefetched.prefetch_issued > 0


def metrics(result):
    return (
        result.aggregate_ipc,
        tuple(core.cycles for core in result.cores),
        tuple(core.l1i_misses for core in result.cores),
        result.link.stats.requests,
    )


def test_pooled_external_sweep_matches_serial(ingested, tmp_path, monkeypatch):
    monkeypatch.setenv(REPRO_CACHE_DIR, str(tmp_path / "serial"))
    serial, _ = run_specs_report(sweep_specs(ingested), jobs=1)

    executor.clear_memo()
    clear_trace_cache()
    monkeypatch.setenv(REPRO_CACHE_DIR, str(tmp_path / "pool"))
    pooled, _ = run_specs_report(sweep_specs(ingested), jobs=2)

    assert set(serial) == set(pooled)
    for spec in serial:
        assert metrics(serial[spec]) == metrics(pooled[spec])
