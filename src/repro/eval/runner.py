"""Shared experiment plumbing: trace caching, compilation and system runs.

Trace generation is the most expensive step of an experiment sweep, and
every configuration of a sweep must replay the *same* trace for results to
be comparable.  Two layers keep that cheap:

- :func:`get_traces` memoizes raw generated traces by
  ``(workload, n_cores, seed, n_instructions)`` within the process;
- :func:`get_compiled_traces` serves the packed
  :class:`~repro.trace.compiled.CompiledTrace` form the engine consumes,
  backed by its own memo **and** the persistent on-disk trace store
  (:mod:`repro.trace.store`, ``$REPRO_TRACE_DIR``) — a store hit skips
  synthesis *and* lowering entirely, across processes and sessions.  On
  a miss, synthetic workloads are synthesized and lowered by the compiled
  unit (:mod:`repro.trace.synth.native`; its block columns are memoized
  per raw key, so line sizes share one synthesis) and never become Python
  traces; external traces, and every workload when no C compiler is
  available, go through :func:`get_traces` and
  :meth:`CompiledTrace.compile`.  Both paths produce identical bytes.

Result caching is layered (see :mod:`repro.eval.executor`): an in-process
memo, then the persistent on-disk cache of :mod:`repro.eval.diskcache`.
:func:`run_system_cached` routes through both; batch submission of many
configurations (with process parallelism, checkpoint-on-completion
persistence and per-spec failure isolation — see ``docs/performance.md``,
"Failure semantics and sweep observability") goes through
:func:`repro.eval.executor.run_specs` /
:func:`~repro.eval.executor.run_specs_report`.
"""

from __future__ import annotations

import functools
import json
import os
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.cmp.system import System, SystemConfig, SystemResult
from repro.core.backends import resolve_backend
from repro.envvars import REPRO_SYNTH_LOG
from repro.eval.profiles import ExperimentScale
from repro.eval.runspec import DEFAULT_SEED, RunSpec
from repro.prefetch.registry import create_prefetcher
from repro.trace import store as trace_store
from repro.trace.compiled import CompiledTrace
from repro.trace.source import resolve, traces_for
from repro.trace.stream import Trace
from repro.trace.synth import native

__all__ = [
    "DEFAULT_SEED",
    "get_traces",
    "get_compiled_traces",
    "precompile_for_specs",
    "trace_budget",
    "clear_trace_cache",
    "run_system",
    "kernel_fallback_reason",
    "run_system_cached",
    "clear_result_cache",
]

_TRACE_CACHE: Dict[Tuple[str, int, int, int], List[Trace]] = {}
_BLOCK_CACHE: Dict[Tuple[str, int, int, int], List[native.BlockColumns]] = {}
_COMPILED_CACHE: Dict[Tuple[str, int, int, int, int], List[CompiledTrace]] = {}

#: number of trace syntheses this process has performed, Python or compiled
#: (test observability).
_synthesis_count = 0


def synthesis_count() -> int:
    """How many times this process has actually run trace synthesis."""
    return _synthesis_count


def _note_synthesis(workload: str, n_cores: int, seed: int, n_instructions: int) -> None:
    global _synthesis_count
    _synthesis_count += 1
    log_path = os.environ.get(REPRO_SYNTH_LOG)
    if not log_path:
        return
    record = {
        "pid": os.getpid(),
        "workload": workload,
        "n_cores": n_cores,
        "seed": seed,
        "n_instructions": n_instructions,
    }
    try:
        with open(log_path, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError:
        pass


def get_traces(
    workload: str,
    n_cores: int,
    n_instructions: int,
    seed: int = DEFAULT_SEED,
) -> List[Trace]:
    """Return (cached) per-core traces for a workload/core-count pair.

    Name resolution goes through the trace-source registry
    (:mod:`repro.trace.source`), so synthetic profiles, the mix and
    ingested ``external:<name>`` streams all land in the same memo.
    """
    key = (workload, n_cores, seed, n_instructions)
    traces = _TRACE_CACHE.get(key)
    if traces is None:
        traces = traces_for(workload, n_cores, seed, n_instructions)
        _note_synthesis(workload, n_cores, seed, n_instructions)
        _TRACE_CACHE[key] = traces
    return traces


def _native_blocks(
    workload: str, n_cores: int, n_instructions: int, seed: int
) -> Optional[List[native.BlockColumns]]:
    """Compiled-synthesis block columns for one raw key (memoized), or
    None when the workload is not synthetic or the C unit is unavailable
    (the first call here builds it)."""
    key = (workload, n_cores, seed, n_instructions)
    blocks = _BLOCK_CACHE.get(key)
    if blocks is None:
        walks = resolve(workload).walks(n_cores, seed)
        if walks is None or not native.available():
            return None
        blocks = native.synthesize(walks, n_instructions)
        _note_synthesis(workload, n_cores, seed, n_instructions)
        _BLOCK_CACHE[key] = blocks
    return blocks


def _load_or_compile(
    workload: str,
    n_cores: int,
    n_instructions: int,
    seed: int,
    line_size: int,
) -> Tuple[List[CompiledTrace], str]:
    """All cores' compiled traces for one key; source is "store"/"compiled".

    Every core found in the on-disk store is served from it; missing cores
    trigger one synthesis (memoized per raw key, so shared across line
    sizes) plus lowering, and the fresh files are persisted for other
    processes.  A corrupt/truncated/stale store file reads as a miss here
    and is overwritten with a freshly compiled one.
    """
    loaded = [
        trace_store.load(workload, seed, core, n_instructions, line_size)
        for core in range(n_cores)
    ]
    if all(compiled is not None for compiled in loaded):
        return loaded, "store"  # type: ignore[return-value]
    blocks = _native_blocks(workload, n_cores, n_instructions, seed)
    raw = get_traces(workload, n_cores, n_instructions, seed) if blocks is None else []
    compiled_list: List[CompiledTrace] = []
    for core, compiled in enumerate(loaded):
        if compiled is None:
            if blocks is not None:
                compiled = native.lower(
                    blocks[core], line_size, workload, seed, core, n_instructions
                )
            else:
                compiled = CompiledTrace.compile(
                    raw[core],
                    line_size,
                    workload=workload,
                    seed=seed,
                    core=core,
                    n_instructions=n_instructions,
                )
            trace_store.store(compiled)
        compiled_list.append(compiled)
    return compiled_list, "compiled"


def get_compiled_traces(
    workload: str,
    n_cores: int,
    n_instructions: int,
    seed: int = DEFAULT_SEED,
    line_size: int = 64,
) -> List[CompiledTrace]:
    """Packed per-core traces: memo → trace store → synthesize + compile."""
    key = (workload, n_cores, seed, n_instructions, line_size)
    cached = _COMPILED_CACHE.get(key)
    if cached is None:
        cached, _ = _load_or_compile(workload, n_cores, n_instructions, seed, line_size)
        _COMPILED_CACHE[key] = cached
    return cached


def trace_budget(scale: ExperimentScale, n_cores: int) -> Tuple[int, int]:
    """``(total, warm)`` instruction budgets one run draws from *scale*."""
    if n_cores == 1:
        return scale.single_total, scale.warm_instructions
    return scale.cmp_total_per_core, scale.cmp_warm_instructions


def precompile_for_specs(
    specs: Iterable[RunSpec],
) -> Dict[Tuple[str, int, int, int, int], str]:
    """Ensure every spec's compiled traces exist (memo + on-disk store).

    Returns one outcome per unique trace key: ``"memo"`` (already in this
    process), ``"store"`` (loaded from disk) or ``"compiled"`` (synthesized
    and persisted).  The executor calls this in the parent before
    dispatching a pool, so workers only ever *load* packed files; the
    ``precompile`` CLI verb exposes it directly.
    """
    outcomes: Dict[Tuple[str, int, int, int, int], str] = {}
    for spec in specs:
        total, _ = trace_budget(spec.scale, spec.n_cores)
        key = (spec.workload, spec.n_cores, spec.seed, total, spec.hierarchy.line_size)
        if key in outcomes:
            continue
        if key in _COMPILED_CACHE:
            outcomes[key] = "memo"
            continue
        traces, source = _load_or_compile(
            spec.workload, spec.n_cores, total, spec.seed, spec.hierarchy.line_size
        )
        _COMPILED_CACHE[key] = traces
        outcomes[key] = source
    return outcomes


def clear_trace_cache() -> None:
    """Drop all cached traces, raw and compiled (frees memory between
    experiment suites; the on-disk trace store is untouched)."""
    _TRACE_CACHE.clear()
    _BLOCK_CACHE.clear()
    _COMPILED_CACHE.clear()


def run_system(spec: RunSpec) -> SystemResult:
    """Simulate one spec from scratch in this process and return its results.

    A ``software_prefetch`` spec gets the §2.3 cooperative software
    prefetcher, built per core here (a factory callable cannot travel in a
    spec).
    """
    total, warm = trace_budget(spec.scale, spec.n_cores)
    traces = get_compiled_traces(
        spec.workload, spec.n_cores, total, spec.seed, spec.hierarchy.line_size
    )
    factory: Optional[Callable[[int], object]] = None
    if spec.software_prefetch:
        from repro.swpf.prefetcher import software_prefetcher_for

        factory = functools.partial(software_prefetcher_for, spec.workload, spec.seed)
    config = SystemConfig(
        n_cores=spec.n_cores,
        hierarchy=spec.hierarchy,
        timing=spec.timing,
        offchip_gbps=spec.offchip_gbps,
        prefetcher=spec.prefetcher,
        prefetcher_overrides=spec.overrides,
        l2_policy=spec.l2_policy,
        queue_filtering=spec.queue_filtering,
        queue_lifo=spec.queue_lifo,
        useless_hint_filter=spec.useless_hint_filter,
        l2_inclusive=spec.l2_inclusive,
        l1_replacement=spec.l1_replacement,
        l2_replacement=spec.l2_replacement,
        prefetcher_factory=factory,
        warm_instructions=warm,
        free_miss_classes=spec.free_miss_classes,
        engine_backend=spec.engine_backend,
    )
    return System(config, traces).run()


def kernel_fallback_reason(spec: RunSpec) -> Optional[str]:
    """Why :func:`run_system` would step *spec*'s cores on the reference
    engine, or None when every core steps in the jit kernel.

    Reads only the spec's fields and one registry prefetcher; it never
    builds the :class:`System` (a software-prefetch set-up costs seconds).
    Past the backend and the software prefetcher, the reasons are the
    engine's own (:func:`repro.core.jitted.config_fallback_reason`), and
    asking builds the kernel objects the spec needs.
    """
    if resolve_backend(spec.engine_backend) != "jit":
        return "reference backend"
    if spec.software_prefetch:
        return "software prefetcher has no kernel twin"
    from repro.core import jitted

    return jitted.config_fallback_reason(
        create_prefetcher(spec.prefetcher, **spec.overrides),
        all_lru=spec.l1_replacement == "lru" and spec.l2_replacement == "lru",
        inclusive_l2=spec.l2_inclusive,
    )


def run_system_cached(spec: RunSpec) -> SystemResult:
    """Like :func:`run_system`, but served through the layered caches.

    The paper's figures share many configurations (e.g. Figures 5, 6 and 7
    all read the same runs); the in-process memo lets each figure driver
    ask for what it needs without coordinating with the others, and the
    disk cache extends that sharing across invocations.
    """
    from repro.eval.executor import execute_spec

    return execute_spec(spec)


def clear_result_cache() -> None:
    """Drop memoized run results (the disk cache is untouched)."""
    from repro.eval.executor import clear_memo

    clear_memo()
