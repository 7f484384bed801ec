"""Failure semantics and observability of the parallel sweep executor.

The headline property: results are **checkpointed the moment their worker
finishes**, so one crashed spec never discards a sibling's completed work —
the disk cache holds everything that finished, and a re-run simulates only
what failed.  On top of that: one in-parent serial retry per worker
failure, pool-rebuild + serial degradation on ``BrokenProcessPool``, and a
``SweepReport`` whose counters partition the batch exactly.

Both pools are covered.  Specs pinned to the reference backend run on the
process pool; the fault-injection tests for it monkeypatch
``executor._simulate`` in the parent and rely on the ``fork`` start method
to propagate the patch into pool workers, so they skip on platforms that
spawn.  Specs pinned to the jit backend run on the thread pool, which sees
the patch directly; those tests skip without a C compiler.
"""

import dataclasses
import json
import multiprocessing
import os
import threading

import pytest

from repro.core import jitted
from repro.eval import diskcache, executor
from repro.eval.executor import (
    SweepError,
    execute_spec,
    run_specs,
    run_specs_report,
)
from repro.eval.profiles import ExperimentScale
from repro.eval.runspec import RunSpec

TINY = ExperimentScale(
    name="tiny",
    warm_instructions=2_000,
    measure_instructions=8_000,
    cmp_measure_instructions=4_000,
)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="fault injection relies on fork inheriting the monkeypatch",
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


def in_worker(parent_pid):
    """True inside a pool worker: a forked process or a worker thread."""
    in_thread = threading.current_thread() is not threading.main_thread()
    return os.getpid() != parent_pid or in_thread


def join_pool_threads():
    """Wait for worker threads an interrupted thread pool left running."""
    for thread in threading.enumerate():
        if thread.name.startswith("ThreadPoolExecutor"):
            thread.join(timeout=60)
            assert not thread.is_alive()


@pytest.fixture(autouse=True)
def fresh_memo():
    executor.clear_memo()
    yield
    executor.clear_memo()


def failing_simulate(victim, real_simulate, child_only=False, exit_code=None):
    """A ``_simulate`` stand-in that fails (only) for *victim*.

    ``child_only`` restricts the failure to pool workers, processes or
    threads (the parent pid is captured here, at patch time); ``exit_code``
    hard-kills the process via ``os._exit`` instead of raising — the
    ``BrokenProcessPool`` trigger.
    """
    parent_pid = os.getpid()

    def simulate(spec):
        if spec == victim and (in_worker(parent_pid) or not child_only):
            if exit_code is not None:
                os._exit(exit_code)
            raise RuntimeError("injected simulation failure")
        return real_simulate(spec)

    return simulate


def siblings_survive_a_worker_failure(monkeypatch, backend, pool):
    """One crashed spec on *pool*, siblings persisted; a rerun simulates
    only the crashed one."""
    specs = tiny_specs(backend)
    victim = specs[1]
    real = executor._simulate
    monkeypatch.setattr(executor, "_simulate", failing_simulate(victim, real))
    with pytest.raises(SweepError) as excinfo:
        run_specs(specs, jobs=2)
    error = excinfo.value
    assert error.report.pool == pool
    assert set(error.failures) == {victim}
    assert "injected simulation failure" in error.failures[victim]
    assert set(error.results) == set(specs) - {victim}
    assert error.report.failed == 1
    assert error.report.retried == 0
    assert error.report.simulated == 2
    assert "salvaged" in str(error)
    # Both siblings reached the disk cache before the error propagated.
    assert diskcache.entry_count() == 2
    for spec in error.results:
        assert diskcache.load(spec) is not None

    # A re-run simulates ONLY the failed spec: siblings replay from
    # disk (the memo is cleared to prove it is really the disk copy).
    # The failure patch is *overwritten*, not undo()ne — undo would
    # also revert the cache-dir isolation fixture's setenv.
    executor.clear_memo()
    simulated = []

    def counting(spec):
        simulated.append(spec)
        return real(spec)

    monkeypatch.setattr(executor, "_simulate", counting)
    results, report = run_specs_report(specs, jobs=2)
    # One pending spec runs serially, whatever its backend.
    assert report.pool == "serial"
    assert simulated == [victim]
    assert set(results) == set(specs)
    assert report.disk_hits == 2
    assert report.simulated == 1
    assert report.failed == 0


def set_in_stats_simulate(victim, real_simulate):
    """A ``_simulate`` stand-in whose result for *victim* carries a set in
    a ``PrefetchStats`` counter, which no cache entry can hold."""

    def simulate(spec):
        result = real_simulate(spec)
        if spec == victim:
            stats = result.cores[0].prefetch
            stats.generated = {stats.generated}
        return result

    return simulate


def non_json_stat_fails_its_spec_alone(monkeypatch, backend, pool):
    """The worker encodes its result, so a set in the stats fails that
    spec (in the worker and in its retry), not the parent's harvest."""
    specs = tiny_specs(backend)
    victim = specs[1]
    monkeypatch.setattr(
        executor, "_simulate", set_in_stats_simulate(victim, executor._simulate)
    )
    with pytest.raises(SweepError) as excinfo:
        run_specs_report(specs, jobs=2)
    error = excinfo.value
    assert error.report.pool == pool
    assert set(error.failures) == {victim}
    assert "TypeError" in error.failures[victim]
    assert "retry also failed" in error.failures[victim]
    assert set(error.results) == set(specs) - {victim}
    assert error.report.simulated == 2
    assert error.report.failed == 1
    assert diskcache.entry_count() == 2
    for spec in error.results:
        assert diskcache.load(spec) is not None
    assert executor.memo_size() == 2


class TestCheckpointOnCompletion:
    @fork_only
    def test_sibling_results_survive_a_worker_failure(self, monkeypatch):
        """The headline regression: one crashed spec, siblings persisted."""
        siblings_survive_a_worker_failure(monkeypatch, "reference", "processes")

    @needs_kernel
    def test_sibling_results_survive_a_worker_thread_failure(self, monkeypatch):
        siblings_survive_a_worker_failure(monkeypatch, "jit", "threads")

    @fork_only
    def test_non_json_stat_fails_its_spec_alone(self, monkeypatch):
        non_json_stat_fails_its_spec_alone(monkeypatch, "reference", "processes")

    @needs_kernel
    def test_non_json_stat_fails_its_spec_alone_on_threads(self, monkeypatch):
        non_json_stat_fails_its_spec_alone(monkeypatch, "jit", "threads")

    @needs_kernel
    def test_spec_whose_pool_check_raises_fails_alone(self):
        """A spec the fallback check cannot judge (here, an unregistered
        prefetcher that bypassed ``RunSpec.create``) sends the batch to
        the process pool, where it fails in isolation."""
        specs = tiny_specs("jit")
        bad = dataclasses.replace(specs[0], prefetcher="no-such-prefetcher")
        with pytest.raises(SweepError) as excinfo:
            run_specs([bad, *specs[1:]], jobs=2)
        error = excinfo.value
        assert error.report.pool == "processes"
        assert error.report.fallback_reason.startswith("fallback check failed")
        assert set(error.failures) == {bad}
        assert set(error.results) == set(specs[1:])

    def test_serial_batch_isolates_failures_too(self, monkeypatch):
        specs = tiny_specs()
        victim = specs[0]  # fails first; siblings must still run
        monkeypatch.setattr(
            executor, "_simulate", failing_simulate(victim, executor._simulate)
        )
        with pytest.raises(SweepError) as excinfo:
            run_specs(specs, jobs=1)
        error = excinfo.value
        assert set(error.failures) == {victim}
        assert diskcache.entry_count() == 2
        assert error.report.simulated == 2
        assert error.report.failed == 1


def retry_succeeds_after_a_transient_worker_failure(monkeypatch, backend, pool):
    """A spec that fails only in a *pool* worker succeeds on its
    in-parent serial retry."""
    specs = tiny_specs(backend)
    victim = specs[2]
    monkeypatch.setattr(
        executor,
        "_simulate",
        failing_simulate(victim, executor._simulate, child_only=True),
    )
    results, report = run_specs_report(specs, jobs=2)
    assert report.pool == pool
    assert set(results) == set(specs)
    assert report.retried == 1
    assert report.simulated == 2
    assert report.failed == 0
    assert diskcache.entry_count() == 3


def keyboard_interrupt_propagates(monkeypatch, backend, pool):
    """A ^C raised in a *pool* worker re-raises from the batch."""
    specs = tiny_specs(backend)
    victim = specs[0]
    parent_pid = os.getpid()
    real = executor._simulate
    #: interrupts raised in this process (a forked worker's list is its
    #: own copy).
    raised_here = []

    def interrupting(spec):
        if spec == victim and in_worker(parent_pid):
            raised_here.append(spec)
            raise KeyboardInterrupt
        return real(spec)

    monkeypatch.setattr(executor, "_simulate", interrupting)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_specs(specs, jobs=2)
    finally:
        join_pool_threads()
    assert raised_here == ([victim] if pool == "threads" else [])


class TestRetryAndDegradation:
    @fork_only
    def test_retry_succeeds_after_a_transient_worker_failure(self, monkeypatch):
        retry_succeeds_after_a_transient_worker_failure(
            monkeypatch, "reference", "processes"
        )

    @needs_kernel
    def test_retry_succeeds_after_a_transient_worker_thread_failure(self, monkeypatch):
        retry_succeeds_after_a_transient_worker_failure(monkeypatch, "jit", "threads")

    @needs_kernel
    def test_a_worker_entry_that_reads_as_foreign_is_retried(self, monkeypatch):
        """An entry the parent cannot decode (a worker that hashed other
        sources) is never stored or returned; the spec runs again here."""
        specs = tiny_specs("jit")
        victim_hash = specs[0].content_hash()
        real_decode = diskcache.decode

        def decode(blob):
            if json.loads(blob)["spec_hash"] == victim_hash:
                return None
            return real_decode(blob)

        monkeypatch.setattr(diskcache, "decode", decode)
        results, report = run_specs_report(specs, jobs=2)
        assert report.pool == "threads"
        assert set(results) == set(specs)
        assert all(result is not None for result in results.values())
        assert report.retried == 1
        assert report.simulated == 2
        assert diskcache.entry_count() == 3

    @fork_only
    def test_broken_pool_degrades_to_serial_and_completes(self, monkeypatch):
        specs = tiny_specs("reference")
        victim = specs[0]
        monkeypatch.setattr(
            executor,
            "_simulate",
            failing_simulate(
                victim, executor._simulate, child_only=True, exit_code=13
            ),
        )
        results, report = run_specs_report(specs, jobs=2)
        assert report.pool == "processes"
        assert set(results) == set(specs)
        assert report.pool_rebuilds == 1
        assert report.degraded_to_serial
        assert report.failed == 0
        assert report.simulated + report.retried == 3
        assert diskcache.entry_count() == 3

    @fork_only
    def test_keyboard_interrupt_propagates(self, monkeypatch):
        keyboard_interrupt_propagates(monkeypatch, "reference", "processes")

    @needs_kernel
    def test_keyboard_interrupt_propagates_from_a_worker_thread(self, monkeypatch):
        keyboard_interrupt_propagates(monkeypatch, "jit", "threads")


class TestSweepReport:
    def test_counters_partition_a_mixed_batch_exactly(self):
        specs = tiny_specs()
        memo_spec, disk_spec, fresh_spec = specs
        execute_spec(disk_spec)  # lands in memo + disk
        executor.clear_memo()  # ... now disk only
        execute_spec(memo_spec)  # memo + disk; served from memo first

        results, report = run_specs_report(specs, jobs=1)
        assert set(results) == set(specs)
        assert report.total == 3
        assert report.memo_hits == 1
        assert report.disk_hits == 1
        assert report.simulated == 1
        assert report.retried == 0
        assert report.failed == 0
        assert report.completed() == 3
        assert report.wall_seconds > 0
        # Only the fresh spec was actually simulated (and timed).
        assert list(report.durations) == [fresh_spec]

        summary = json.loads(report.summary_json())
        assert summary["event"] == "sweep"
        assert summary["total"] == 3
        assert summary["memo_hits"] == 1
        assert summary["disk_hits"] == 1
        assert summary["simulated"] == 1
        assert summary["retried"] == 0
        assert summary["failed"] == 0
        assert summary["pool"] == "serial"
        assert "fallback_reason" not in summary
        assert summary["slowest_spec"] == fresh_spec.describe()
        assert summary["slowest_seconds"] >= 0
        assert "\n" not in report.summary_json()

    def test_progress_callback_sees_every_spec(self):
        specs = tiny_specs()
        execute_spec(specs[0])  # one memo hit in the mix
        events = []

        def progress(done, total, spec, source, seconds):
            events.append((done, total, spec, source, seconds))

        results, report = run_specs_report(specs, jobs=1, progress=progress)
        assert [event[0] for event in events] == [1, 2, 3]
        assert all(event[1] == 3 for event in events)
        assert {event[2] for event in events} == set(specs)
        sources = [event[3] for event in events]
        assert sources.count("memo") == report.memo_hits
        assert sources.count("simulated") == report.simulated

    def test_label_is_carried_into_summary_and_error(self, monkeypatch):
        spec = tiny_specs()[0]

        def broken(spec):
            raise RuntimeError("nope")

        monkeypatch.setattr(executor, "_simulate", broken)
        with pytest.raises(SweepError) as excinfo:
            run_specs([spec], jobs=1, label="fig99")
        assert excinfo.value.report.label == "fig99"
        assert "[fig99]" in str(excinfo.value)
        summary = json.loads(excinfo.value.report.summary_json())
        assert summary["label"] == "fig99"


class TestSerialSingleProbe:
    def test_each_spec_stats_the_disk_cache_once(self, monkeypatch):
        """The pre-scan's miss is threaded through: no second load probe."""
        specs = tiny_specs()
        loads = []
        real_load = diskcache.load

        def counting_load(spec):
            loads.append(spec)
            return real_load(spec)

        monkeypatch.setattr(diskcache, "load", counting_load)
        run_specs(specs, jobs=1)
        assert len(loads) == len(specs)  # one probe per spec, in the pre-scan
