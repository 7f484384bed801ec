"""Integration tests for the parallel sweep executor.

The load-bearing property is *bit-identical determinism*: a batch executed
through worker processes must reproduce, exactly, the metrics of the same
specs run serially in-process (the paper's figures are regenerated from
whichever path is available, so the two must be indistinguishable).
"""

import pytest

from repro.eval import diskcache, executor
from repro.eval.executor import execute_spec, memo_size, resolve_jobs, run_specs
from repro.eval.profiles import ExperimentScale
from repro.eval.runner import run_system
from repro.eval.runspec import RunSpec

TINY = ExperimentScale(
    name="tiny",
    warm_instructions=4_000,
    measure_instructions=12_000,
    cmp_measure_instructions=6_000,
)


def tiny_specs():
    return [
        RunSpec.create("db", 1, "none", scale=TINY),
        RunSpec.create("db", 1, "discontinuity", scale=TINY, l2_policy="bypass"),
        RunSpec.create("web", 1, "next-2-line", scale=TINY, l2_policy="bypass"),
    ]


def metrics(result):
    return (
        result.aggregate_ipc,
        tuple(core.cycles for core in result.cores),
        tuple(core.l1i_misses for core in result.cores),
        tuple(tuple(core.l1i_breakdown.counts()) for core in result.cores),
        result.link.stats.requests,
    )


@pytest.fixture(autouse=True)
def fresh_memo():
    executor.clear_memo()
    yield
    executor.clear_memo()


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(executor.JOBS_ENV, "8")
        assert resolve_jobs(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(executor.JOBS_ENV, "5")
        assert resolve_jobs() == 5
        monkeypatch.setenv(executor.JOBS_ENV, "not-a-number")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()

    def test_floor_of_one(self, monkeypatch):
        monkeypatch.delenv(executor.JOBS_ENV, raising=False)
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
        specs = tiny_specs()

        monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path / "serial"))
        serial = {s: metrics(r) for s, r in run_specs(specs, jobs=1).items()}

        executor.clear_memo()
        monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path / "parallel"))
        parallel = {s: metrics(r) for s, r in run_specs(specs, jobs=2).items()}

        assert parallel == serial

    def test_parallel_results_land_in_memo_and_disk(self, tmp_path, monkeypatch):
        specs = tiny_specs()
        monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path / "pool"))
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
        monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path / "swpf"))
        # Force the pool path by pairing it with a second pending spec.
        other = tiny_specs()[0]
        results = run_specs([spec, other], jobs=2)
        assert metrics(results[spec]) == serial
