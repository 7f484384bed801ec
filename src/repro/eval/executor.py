"""Parallel sweep executor with layered caching and fault tolerance.

The experiment drivers declare their configurations as
:class:`~repro.eval.runspec.RunSpec` lists and submit them in one batch to
:func:`run_specs`, which resolves each spec through three layers:

1. **in-process memo** — repeat requests within one process are free (the
   paper's Figures 5, 6 and 7 read the same runs; so do many ablations);
2. **persistent disk cache** (:mod:`repro.eval.diskcache`) — repeat
   invocations across processes and sessions replay from
   ``$REPRO_CACHE_DIR`` instead of re-simulating;
3. **simulation** — remaining specs run on a pool of ``$REPRO_JOBS``
   workers (default: all cores), or serially in-process when the
   effective job count is 1.

The pool is chosen per batch.  When every pending spec steps in the jit
kernel (:func:`~repro.eval.runner.kernel_fallback_reason` is None for
each), the batch runs on a :class:`~concurrent.futures.ThreadPoolExecutor`
in this process: a kernel run releases the GIL for all but a few
milliseconds of Python set-up per spec, and the threads share one
interpreter and one trace memo.  A batch holding any spec that steps on
the reference engine, which holds the GIL, runs on a
:class:`~concurrent.futures.ProcessPoolExecutor` instead.  The parent
fills the trace memo and the trace store for the batch before either
pool starts, and deciding on threads builds every kernel object the
batch needs, so worker threads neither synthesize nor compile.

Workers return each result as its disk-cache entry
(:func:`~repro.eval.diskcache.encode`), the only serialized form of a
result, so only JSON crosses the worker boundary; the parent stores the
bytes unchanged and decodes them once.  JSON round-trips ints and floats
exactly, so parallel results are bit-identical to a serial ``run_system``
call, and a statistic JSON cannot represent fails its own spec in the
worker (and again in its retry), never the parent's harvest loop.
Submission is ordered by :meth:`RunSpec.trace_key`, so specs replaying the
same synthetic traces tend to land on the same process worker, whose
inherited :func:`~repro.eval.runner.get_compiled_traces` memo then serves
them without reloading.

Failure semantics (see ``docs/performance.md``): results are harvested
with :func:`concurrent.futures.as_completed` and **checkpointed the moment
their worker finishes** — persisted to the disk cache and the memo before
any later failure can propagate.  A worker exception earns the spec one
in-parent serial retry (a crash may be pool-related, not spec-related); a
:class:`~concurrent.futures.process.BrokenProcessPool` rebuilds the pool
once and then degrades to serial execution for the remainder;
``KeyboardInterrupt`` cancels queued work and re-raises with everything
already harvested safely on disk.  A thread pool has no crash isolation:
a fault inside the C kernel kills the whole sweep, and only the
checkpointed results survive it, so a rerun resumes from them.  Specs that
still fail surface in one terminal :class:`SweepError` carrying per-spec
tracebacks, the salvaged results and the batch's :class:`SweepReport`.
"""

from __future__ import annotations

import json
import os
import traceback
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.cmp.system import SystemResult
from repro.envvars import REPRO_JOBS
from repro.eval import diskcache
from repro.eval.runspec import RunSpec, dedupe_specs
from repro.util import clock

_MEMO: Dict[RunSpec, SystemResult] = {}

#: progress callback: ``(done, total, spec, source, seconds)`` where
#: ``source`` is one of ``memo`` / ``disk`` / ``simulated`` / ``retried``
#: / ``failed`` and ``seconds`` is the simulation time (0 for cache hits).
ProgressFn = Callable[[int, int, RunSpec, str, float], None]


@dataclass
class SweepReport:
    """Observability record for one :func:`run_specs` batch.

    The counters partition the batch exactly:
    ``memo_hits + disk_hits + simulated + retried + failed == total``.
    """

    total: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    #: specs simulated successfully on the first attempt (pool or serial).
    simulated: int = 0
    #: specs whose worker failed but whose in-parent serial retry succeeded.
    retried: int = 0
    #: specs that failed even after the retry (carried by :class:`SweepError`).
    failed: int = 0
    #: times a broken process pool was rebuilt (at most 1 per batch).
    pool_rebuilds: int = 0
    #: True when the rebuilt pool also broke and the remainder ran serially.
    degraded_to_serial: bool = False
    #: how the simulated specs ran: ``"serial"``, ``"threads"`` or
    #: ``"processes"`` (None when every spec was a cache hit).
    pool: Optional[str] = None
    #: with ``pool == "processes"``: why the first spec that does not step
    #: in the jit kernel steps on reference.
    fallback_reason: Optional[str] = None
    wall_seconds: float = 0.0
    #: optional caller-supplied sweep name (figure driver, CLI invocation).
    label: Optional[str] = None
    #: simulation seconds per spec (cache hits are not timed).
    durations: Dict[RunSpec, float] = field(default_factory=dict)

    def completed(self) -> int:
        """Specs that produced a result through any path."""
        return self.memo_hits + self.disk_hits + self.simulated + self.retried

    def summary_json(self) -> str:
        """The one-line JSON form (for CI logs); see :func:`report_to_summary`."""
        return json.dumps(report_to_summary(self), sort_keys=True)


def report_to_summary(report: SweepReport) -> Dict[str, Any]:
    """Plain-data summary of a sweep, suitable for one-line JSON CI logs."""
    summary: Dict[str, Any] = {
        "event": "sweep",
        "label": report.label,
        "total": report.total,
        "memo_hits": report.memo_hits,
        "disk_hits": report.disk_hits,
        "simulated": report.simulated,
        "retried": report.retried,
        "failed": report.failed,
        "pool_rebuilds": report.pool_rebuilds,
        "degraded_to_serial": report.degraded_to_serial,
        "pool": report.pool,
        "wall_seconds": round(report.wall_seconds, 3),
    }
    if report.fallback_reason is not None:
        summary["fallback_reason"] = report.fallback_reason
    slowest_spec = None
    slowest_seconds = 0.0
    for spec, seconds in report.durations.items():
        if slowest_spec is None or seconds > slowest_seconds:
            slowest_spec, slowest_seconds = spec, seconds
    if slowest_spec is not None:
        summary["slowest_spec"] = slowest_spec.describe()
        summary["slowest_seconds"] = round(slowest_seconds, 3)
    return summary


class SweepError(RuntimeError):
    """One or more specs of a batch failed after their retry.

    Every result that completed before the failure was already persisted
    to the disk cache and the in-process memo (checkpoint on completion),
    so re-running the batch simulates only the failed specs.

    Attributes: ``failures`` maps each failed spec to its formatted
    traceback(s); ``results`` holds everything salvaged; ``report`` is the
    batch's :class:`SweepReport`.
    """

    def __init__(
        self,
        failures: Dict[RunSpec, str],
        results: Dict[RunSpec, SystemResult],
        report: SweepReport,
    ) -> None:
        self.failures = dict(failures)
        self.results = dict(results)
        self.report = report
        label = f" [{report.label}]" if report.label else ""
        lines = [
            f"{len(self.failures)} of {report.total} specs failed{label}; "
            f"{len(self.results)} results salvaged (persisted to the caches)"
        ]
        for spec, tb in self.failures.items():
            lines.append(f"--- {spec.describe()} ---\n{tb.rstrip()}")
        super().__init__("\n".join(lines))


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: explicit arg → ``$REPRO_JOBS`` → cpu count."""
    if jobs is None:
        env = os.environ.get(REPRO_JOBS, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(f"{REPRO_JOBS} must be an integer, got {env!r}") from None
        else:
            jobs = os.cpu_count() or 1
    return max(1, jobs)


def clear_memo() -> None:
    """Drop the in-process result memo (the disk cache is untouched)."""
    _MEMO.clear()


def memo_size() -> int:
    return len(_MEMO)


def _simulate(spec: RunSpec) -> SystemResult:
    """Run one spec from scratch in this process."""
    from repro.eval.runner import run_system

    return run_system(spec)


def _worker(spec: RunSpec) -> Tuple[bytes, float]:
    """Pool entry point (thread or process): simulate and return the
    disk-cache entry (:func:`~repro.eval.diskcache.encode`) and the
    worker's wall seconds.

    Returning the entry (not the live ``SystemResult``) makes JSON the only
    thing that crosses the boundary: the parent stores the bytes as they
    came and decodes them once, exactly like a disk-cache hit, and
    unpicklable state such as the software-prefetch factory closure never
    travels.  A statistic JSON cannot represent raises here, in the worker,
    and fails that spec alone.  Traces inside the worker resolve through
    the compiled-trace layers: the parent's pre-pool
    :func:`~repro.eval.runner.precompile_for_specs` pass has usually filled
    the trace memo, which threads share and forked processes inherit;
    otherwise a worker loads packed files from the on-disk trace store, or
    generates them into its memo.
    """
    started = clock.now()
    entry = diskcache.encode(spec, _simulate(spec))
    return entry, clock.now() - started


def _simulate_and_store(spec: RunSpec) -> SystemResult:
    """Simulate a *known* cache miss in-process and persist the result.

    Skips the memo/disk probes — callers (the batch pre-scan, the retry
    path) have already established the miss, so re-stat'ing the cache per
    spec would be pure overhead.
    """
    result = _simulate(spec)
    diskcache.store(spec, diskcache.encode(spec, result))
    _MEMO[spec] = result
    return result


def execute_spec(spec: RunSpec) -> SystemResult:
    """Resolve one spec through memo → disk cache → in-process simulation."""
    result = _MEMO.get(spec)
    if result is not None:
        return result
    result = diskcache.load(spec)
    if result is None:
        result = _simulate_and_store(spec)
    else:
        _MEMO[spec] = result
    return result


def run_specs(
    specs: Iterable[RunSpec],
    jobs: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    label: Optional[str] = None,
) -> Dict[RunSpec, SystemResult]:
    """Execute a batch of specs; returns a spec → result mapping.

    Thin wrapper over :func:`run_specs_report` for callers that do not
    need the :class:`SweepReport`.
    """
    results, _ = run_specs_report(specs, jobs=jobs, progress=progress, label=label)
    return results


def run_specs_report(
    specs: Iterable[RunSpec],
    jobs: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    label: Optional[str] = None,
) -> Tuple[Dict[RunSpec, SystemResult], SweepReport]:
    """Execute a batch of specs; returns ``(results, report)``.

    Duplicates are collapsed, cached specs (memo or disk) are served
    without simulation, and the remainder fans out across worker threads
    or processes (see the module docstring; serial in-process when the
    effective job count is 1).  Completed
    results are persisted the moment they land, so a failure mid-batch
    never discards a sibling's finished work; specs that fail after their
    retry raise :class:`SweepError` (with the salvaged results attached).
    """
    unique = dedupe_specs(specs)
    report = SweepReport(total=len(unique), label=label)
    watch = clock.Stopwatch()
    results: Dict[RunSpec, SystemResult] = {}
    failures: Dict[RunSpec, str] = {}
    done = 0

    def emit(spec: RunSpec, source: str, seconds: float = 0.0) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, report.total, spec, source, seconds)

    pending: List[RunSpec] = []
    for spec in unique:
        source = "memo"
        cached = _MEMO.get(spec)
        if cached is None:
            cached = diskcache.load(spec)
            if cached is not None:
                _MEMO[spec] = cached
                source = "disk"
        if cached is not None:
            results[spec] = cached
            if source == "memo":
                report.memo_hits += 1
            else:
                report.disk_hits += 1
            emit(spec, source)
        else:
            pending.append(spec)

    if pending:
        jobs = resolve_jobs(jobs)
        if jobs <= 1 or len(pending) == 1:
            report.pool = "serial"
            _run_serial(pending, results, failures, report, emit)
        else:
            _precompile_pending(pending)
            report.fallback_reason = next(
                filter(None, map(_fallback_reason, pending)), None
            )
            if report.fallback_reason is None:
                report.pool = "threads"
                pool_class: Callable[..., Executor] = ThreadPoolExecutor
            else:
                report.pool = "processes"
                pool_class = ProcessPoolExecutor
            _run_pool(pending, jobs, pool_class, results, failures, report, emit)

    report.wall_seconds = watch.elapsed()
    if failures:
        report.failed = len(failures)
        raise SweepError(failures, results, report)
    return results, report


def _precompile_pending(pending: List[RunSpec]) -> None:
    """Fill the trace memo and the on-disk trace store for *pending*
    before pool dispatch.

    Worker threads then read the shared memo, and forked workers inherit
    it, instead of re-resolving their workload through the trace-source
    registry (synthesis for the synthetic profiles, stream replay for
    ingested ``external:<name>`` sources); no two threads synthesize one
    trace.  Purely an optimization: any failure here is swallowed, and the
    specs it would have served simply produce their own traces in the
    workers (where a real trace problem resurfaces with per-spec
    isolation).
    """
    try:
        from repro.eval.runner import precompile_for_specs

        precompile_for_specs(pending)
    except Exception:
        pass


def _fallback_reason(spec: RunSpec) -> Optional[str]:
    """:func:`~repro.eval.runner.kernel_fallback_reason` of *spec*; a spec
    whose check raises is sent to the process pool, where its simulation
    fails in isolation."""
    from repro.eval.runner import kernel_fallback_reason

    try:
        return kernel_fallback_reason(spec)
    except Exception as exc:
        return f"fallback check failed: {exc!r}"


def _run_serial(
    pending: List[RunSpec],
    results: Dict[RunSpec, SystemResult],
    failures: Dict[RunSpec, str],
    report: SweepReport,
    emit: Callable[..., None],
) -> None:
    """In-process execution of known cache misses, isolating failures.

    A failing spec is recorded and skipped — its siblings still run (and
    persist).  No retry here: re-running the same inputs in the same
    process would fail identically.
    """
    for spec in pending:
        watch = clock.Stopwatch()
        try:
            result = _simulate_and_store(spec)
        except KeyboardInterrupt:
            raise
        except Exception:
            failures[spec] = traceback.format_exc()
            emit(spec, "failed", watch.elapsed())
            continue
        report.simulated += 1
        report.durations[spec] = watch.elapsed()
        results[spec] = result
        emit(spec, "simulated", report.durations[spec])


def _run_pool(
    pending: List[RunSpec],
    jobs: int,
    pool_class: Callable[..., Executor],
    results: Dict[RunSpec, SystemResult],
    failures: Dict[RunSpec, str],
    report: SweepReport,
    emit: Callable[..., None],
) -> None:
    """Pool execution with checkpoint-on-completion harvesting.

    A broken process pool is rebuilt once; if the rebuild also breaks, the
    remainder degrades to serial in-process execution.  Specs whose worker
    raised an ordinary exception get one in-parent serial retry at the end
    (a worker crash may be pool-related — OOM kill, pickling — rather than
    spec-related).
    """
    remaining = sorted(pending, key=lambda spec: spec.trace_key())
    worker_errors: Dict[RunSpec, str] = {}
    for attempt in range(2):
        if not remaining:
            break
        if attempt:
            report.pool_rebuilds += 1
        broken = _pool_attempt(
            remaining, jobs, pool_class, results, worker_errors, report, emit
        )
        if not broken:
            break
    if remaining:
        # The rebuilt pool broke too; finish the batch without a pool.
        report.degraded_to_serial = True
        _run_serial(remaining, results, failures, report, emit)

    for spec, first_error in worker_errors.items():
        watch = clock.Stopwatch()
        try:
            result = _simulate_and_store(spec)
        except KeyboardInterrupt:
            raise
        except Exception:
            failures[spec] = (
                f"{first_error.rstrip()}\n\nin-parent serial retry also failed:\n"
                f"{traceback.format_exc()}"
            )
            emit(spec, "failed", watch.elapsed())
            continue
        report.retried += 1
        report.durations[spec] = watch.elapsed()
        results[spec] = result
        emit(spec, "retried", report.durations[spec])


def _pool_attempt(
    remaining: List[RunSpec],
    jobs: int,
    pool_class: Callable[..., Executor],
    results: Dict[RunSpec, SystemResult],
    worker_errors: Dict[RunSpec, str],
    report: SweepReport,
    emit: Callable[..., None],
) -> bool:
    """One *pool_class* pass over *remaining* (mutated in place).

    Harvests futures as they complete, persisting each result immediately.
    Returns True when the pool broke; the specs that neither completed nor
    errored stay in *remaining* for the caller to re-dispatch.
    """
    harvested: Set[RunSpec] = set()
    broken = False
    interrupted = False
    pool = pool_class(max_workers=min(jobs, len(remaining)))
    try:
        future_map = {pool.submit(_worker, spec): spec for spec in remaining}
        for future in as_completed(future_map):
            spec = future_map[future]
            try:
                entry, seconds = future.result()
            except BrokenProcessPool:
                # The pool is gone; siblings' futures resolve too (some
                # with results that already landed) — keep draining.
                broken = True
                continue
            except Exception:
                worker_errors[spec] = traceback.format_exc()
                harvested.add(spec)
                continue
            harvested.add(spec)
            result = diskcache.decode(entry)
            if result is None:
                # A forked worker that hashed sources edited since this
                # process did writes an entry that reads here as foreign.
                worker_errors[spec] = "the worker's cache entry does not decode\n"
                continue
            # Checkpoint on completion: persist *now*, so this result
            # survives any later failure in the batch.  The parent's main
            # thread is the single cache writer; workers stay read-free so
            # a shared cache directory never sees write races.
            diskcache.store(spec, entry)
            _MEMO[spec] = result
            results[spec] = result
            report.simulated += 1
            report.durations[spec] = seconds
            emit(spec, "simulated", seconds)
    except BrokenProcessPool:
        # Submission itself hit the broken pool.
        broken = True
    except KeyboardInterrupt:
        # Hand the terminal back fast: drop queued work, don't wait for
        # running workers (worker threads finish their kernel call before
        # the interpreter exits).  Everything harvested so far is on disk.
        interrupted = True
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    finally:
        if not interrupted:
            pool.shutdown(wait=True, cancel_futures=True)
    remaining[:] = [spec for spec in remaining if spec not in harvested]
    return broken
