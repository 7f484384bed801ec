"""Integration tests for the parallel sweep executor.

The load-bearing property is *bit-identical determinism*: a batch executed
through worker threads or worker processes must reproduce, exactly, the
metrics of the same specs run serially in-process (the paper's figures are
regenerated from whichever path is available, so they must be
indistinguishable).
"""

import json
import multiprocessing
import os

import pytest

from repro.core import jitted
from repro.envvars import REPRO_CACHE_DIR, REPRO_JOBS
from repro.eval import diskcache, executor
from repro.eval.executor import (
    execute_spec,
    memo_size,
    resolve_jobs,
    run_specs,
    run_specs_report,
)
from repro.eval.profiles import ExperimentScale
from repro.eval.runner import run_system
from repro.eval.runspec import RunSpec

TINY = ExperimentScale(
    name="tiny",
    warm_instructions=4_000,
    measure_instructions=12_000,
    cmp_measure_instructions=6_000,
)


needs_kernel = pytest.mark.skipif(
    not jitted.jit_available(), reason="no C compiler: jit kernel unbuildable"
)


def tiny_specs(backend="auto"):
    def spec(workload, prefetcher, **kwargs):
        return RunSpec.create(
            workload, 1, prefetcher, scale=TINY, engine_backend=backend, **kwargs
        )

    return [
        spec("db", "none"),
        spec("db", "discontinuity", l2_policy="bypass"),
        spec("web", "next-2-line", l2_policy="bypass"),
    ]


def metrics(result):
    return (
        result.aggregate_ipc,
        tuple(core.cycles for core in result.cores),
        tuple(core.l1i_misses for core in result.cores),
        tuple(tuple(core.l1i_breakdown.counts()) for core in result.cores),
        result.link.stats.requests,
    )


def parallel_matches_serial(tmp_path, monkeypatch, specs, pool):
    """A jobs=2 batch of *specs* runs on *pool*, and its results equal a
    serial batch's exactly."""
    monkeypatch.setenv(REPRO_CACHE_DIR, str(tmp_path / "serial"))
    serial_results, serial_report = run_specs_report(specs, jobs=1)
    serial = {s: metrics(r) for s, r in serial_results.items()}
    assert serial_report.pool == "serial"

    executor.clear_memo()
    monkeypatch.setenv(REPRO_CACHE_DIR, str(tmp_path / "parallel"))
    results, report = run_specs_report(specs, jobs=2)
    parallel = {s: metrics(r) for s, r in results.items()}

    assert report.pool == pool
    assert (report.fallback_reason is None) == (pool == "threads")
    assert parallel == serial


@pytest.fixture(autouse=True)
def fresh_memo():
    executor.clear_memo()
    yield
    executor.clear_memo()


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(REPRO_JOBS, "8")
        assert resolve_jobs(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(REPRO_JOBS, "5")
        assert resolve_jobs() == 5
        monkeypatch.setenv(REPRO_JOBS, "not-a-number")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()

    def test_floor_of_one(self, monkeypatch):
        monkeypatch.delenv(REPRO_JOBS, raising=False)
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1


class TestCachingLayers:
    def test_execute_spec_memoizes(self):
        spec = tiny_specs()[0]
        first = execute_spec(spec)
        assert memo_size() == 1
        assert execute_spec(spec) is first  # same object: memo hit

    def test_disk_hit_survives_memo_clear(self):
        spec = tiny_specs()[1]
        first = execute_spec(spec)
        assert diskcache.entry_count() == 1
        executor.clear_memo()
        second = execute_spec(spec)
        assert second is not first  # rebuilt from disk, not the memo
        assert metrics(second) == metrics(first)

    def test_run_specs_collapses_duplicates(self):
        specs = tiny_specs()
        results = run_specs(specs + specs + [specs[0]], jobs=1)
        assert len(results) == len(specs)
        assert set(results) == set(specs)


class TestBitIdenticalDeterminism:
    def test_serial_batch_matches_direct_run_system(self):
        spec = tiny_specs()[1]
        direct = run_system(spec)
        batch = run_specs([spec], jobs=1)[spec]
        assert metrics(batch) == metrics(direct)

    def test_parallel_matches_serial_exactly(self, tmp_path, monkeypatch):
        """A kernel batch runs on threads (processes where the kernel does
        not build) and matches a serial run bit for bit."""
        pool = "threads" if jitted.jit_available() else "processes"
        parallel_matches_serial(tmp_path, monkeypatch, tiny_specs("jit"), pool)

    def test_reference_batch_matches_serial_on_processes(self, tmp_path, monkeypatch):
        specs = tiny_specs("reference")
        parallel_matches_serial(tmp_path, monkeypatch, specs, "processes")

    @needs_kernel
    def test_kernel_batch_starts_no_child_process(self, monkeypatch):
        """A batch whose every spec steps in the kernel runs on threads of
        this process: no pool process is created and every simulation
        runs here."""

        def no_processes(*args, **kwargs):
            raise AssertionError("a kernel batch created a process pool")

        pids = []
        real = executor._simulate

        def recording(spec):
            pids.append(os.getpid())
            return real(spec)

        monkeypatch.setattr(executor, "ProcessPoolExecutor", no_processes)
        monkeypatch.setattr(executor, "_simulate", recording)
        specs = tiny_specs("jit")
        results, report = run_specs_report(specs, jobs=2)
        assert set(results) == set(specs)
        assert report.pool == "threads"
        assert report.simulated == len(specs)
        assert pids == [os.getpid()] * len(specs)
        assert multiprocessing.active_children() == []

    def test_parallel_results_land_in_memo_and_disk(self, tmp_path, monkeypatch):
        specs = tiny_specs()
        monkeypatch.setenv(REPRO_CACHE_DIR, str(tmp_path / "pool"))
        run_specs(specs, jobs=2)
        assert memo_size() == len(specs)
        assert diskcache.entry_count() == len(specs)
        # A rerun is served without simulation (pure cache reads).
        again = run_specs(specs, jobs=2)
        assert set(again) == set(specs)

    def test_software_prefetch_round_trips_through_the_pool(self, tmp_path, monkeypatch):
        spec = RunSpec.create(
            "db", 1, "none", scale=TINY, l2_policy="bypass", software_prefetch=True
        )
        serial = metrics(execute_spec(spec))
        executor.clear_memo()
        monkeypatch.setenv(REPRO_CACHE_DIR, str(tmp_path / "swpf"))
        # Force the pool path by pairing it with a second pending spec.
        other = tiny_specs()[0]
        results, report = run_specs_report([spec, other], jobs=2)
        assert metrics(results[spec]) == serial
        # The software prefetcher steps on reference: the batch takes
        # processes, and the report and its summary say why.
        summary = json.loads(report.summary_json())
        assert summary["pool"] == report.pool == "processes"
        assert report.fallback_reason is not None
        assert summary["fallback_reason"] == report.fallback_reason
