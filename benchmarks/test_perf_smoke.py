"""Performance smoke benchmark — records the numbers CI tracks.

Measurements, written to ``BENCH_perf.json`` at the repo root:

- ``engine_visits_per_sec``: line-visits/second of one fixed-seed engine
  run (db / 1 core / discontinuity / bypass at the same instruction budget
  ``scripts/profile_engine.py`` uses), trace generation excluded.  This is
  the metric the hot-loop optimizations in ``repro.core.engine`` and
  ``repro.caches.cache`` are validated against.
- ``backends.reference`` / ``backends.jit``: best-of-3 ``visits_per_sec``
  for each engine backend on that same configuration, plus
  ``jit_speedup``.  ``engine_visits_per_sec`` remains the reference
  backend's number so the metric's history stays comparable.  The jit
  kernel is built (or cache-loaded) before timing; ``jit_compile_seconds``
  records that one-time cost separately.
- ``engine_4c``: the same per-backend sweep on the db / 4-core CMP
  configuration — the case the jit backend exists for (its interleave
  loop runs compiled instead of one Python step per visit), so the
  multi-core claim is tracked, not asserted.
- ``jit_compile_seconds``: the jit kernel core object's one-off build
  from an empty cache directory (what every jit process pays first), and
  ``jit_object_compile_seconds``: the same for every kernel object, the
  core and each stateful family's (built the first time a run binds it);
  each is the median of three cold builds, each in a fresh directory.
- ``branch_family`` and ``history_family``: wall time of ``fdp`` and
  ``shadow``, and of ``target``, ``markov`` and ``mana``, on db / 4 cores
  at smoke scale (the catalog's CMP configuration), reference against
  jit, and ``jit_over_reference``, their ratio.
- ``setup_4c``: constructing a never-stepped db / 4-core system (the
  paper's 2 MB shared L2, 8,192 sets) and binding every core into the
  jit kernel, with no simulation: ``construct_seconds`` (``System``),
  ``bind_seconds`` (every engine's ``_twin_ready``) and ``seconds``, their
  sum.  Each of 5 fresh processes takes its best of 5; the record is the
  process with the median sum.  Python-side set-up that every jit spec
  pays.
- ``trace_compile_seconds`` and the store's cold/warm load times: how much
  one-time work the packed format costs and how cheap reloading it is.
- ``synth``: synthesis plus lowering to packed columns, Python
  (``SynthSource.traces`` + ``CompiledTrace.compile``) against the compiled
  unit (:mod:`repro.trace.synth.native`), in Minstr/s on db / 1 core at
  smoke scale (the Figure 1 trace), and ``compile_seconds``: the unit's
  one-off build from an empty cache.  The two must produce identical
  bytes; the bench refuses to record numbers otherwise.
- ``ingest``: external-trace ingestion throughput on the checked-in
  PC-stream fixture — ``parse_lines_per_sec`` (text → classified block
  events) and ``compile_lines_per_sec`` (ingest + tile + pack into the
  trace store), the costs ``repro-trace ingest --compile`` pays.
- ``fig01_coldstore_seconds`` / ``fig01_warmstore_seconds`` /
  ``fig01_warm_seconds``: wall-clock of the Figure 1 driver at smoke scale
  from empty caches, then with only the trace store warm (fresh result
  cache — the "new machine, shared traces" case the store exists for),
  then with the result disk-cache warm.  The driver runs on the default
  ``auto`` backend, which is the jit kernel whenever a C compiler is
  available (reference otherwise), on every core count.
  ``fig01_coldstore_store_entries_added`` / ``..._warmstore_...``: the
  trace-store entries each of the first two runs adds (the cold one fills
  the store, the store-warm one must add none).

Run directly with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_smoke.py -q -p no:cacheprovider
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Tuple

from repro.cmp.system import System, SystemConfig
from repro.envvars import REPRO_CACHE_DIR, REPRO_JIT_CACHE_DIR
from repro.eval import executor
from repro.eval.experiment import run_experiment
from repro.eval.profiles import get_scale
from repro.eval.registry import get_experiment
from repro.eval.runner import (
    DEFAULT_SEED,
    clear_trace_cache,
    get_compiled_traces,
    get_traces,
    run_system,
    trace_budget,
)
from repro.eval.runspec import RunSpec
from repro.trace import store
from repro.trace.compiled import compile_traces
from repro.trace.source import resolve
from repro.trace.synth import native
from repro.util import ccompile
from scripts.profile_engine import BENCH_SCALE

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_perf.json"


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _best_run(workload, cores, prefetcher, policy, backend, reps=3, scale=BENCH_SCALE):
    """Best-of-*reps* ``(result, seconds)``; min wall-clock rejects noise."""
    total, _ = trace_budget(scale, cores)
    # Prime run_system's memo so only the engine loop is timed.
    get_compiled_traces(workload, cores, total, DEFAULT_SEED, 64)

    def once():
        return run_system(
            RunSpec.create(
                workload,
                cores,
                prefetcher,
                scale=scale,
                l2_policy=policy,
                seed=DEFAULT_SEED,
                engine_backend=backend,
            )
        )

    # Untimed warm-up: the first run on a cold process pays page faults,
    # allocator growth and branch-predictor warm-up that best-of-N alone
    # cannot reject when every rep is cold.
    once()
    best = None
    for _ in range(reps):
        result, elapsed = _timed(once)
        if best is None or elapsed < best[1]:
            best = (result, elapsed)
    return best


def _backend_rates(workload, cores, prefetcher, policy) -> dict:
    """Per-backend timings of one configuration, plus the jit speedup.

    The backends must be bit-identical (the parity suite checks every
    stat; the bench just refuses to record numbers from diverging runs).
    """
    from repro.core import jitted

    # Build (or cache-load) the jit kernel before any timed region.
    jit_ok = jitted.jit_available()
    result, ref_elapsed = _best_run(workload, cores, prefetcher, policy, "reference")
    visits = sum(core.l1i_fetches for core in result.cores)
    reference_rate = visits / ref_elapsed
    report = {
        "config": f"{workload}/{cores}c/{prefetcher}/{policy}",
        "line_visits": visits,
        "backends": {
            "reference": {
                "seconds": round(ref_elapsed, 4),
                "visits_per_sec": round(reference_rate, 1),
            },
        },
        "aggregate_ipc": result.aggregate_ipc,
    }
    if jit_ok:
        jit_result, jit_elapsed = _best_run(workload, cores, prefetcher, policy, "jit")
        assert repr(jit_result.aggregate_ipc) == repr(result.aggregate_ipc)
        jit_rate = visits / jit_elapsed
        report["backends"]["jit"] = {
            "seconds": round(jit_elapsed, 4),
            "visits_per_sec": round(jit_rate, 1),
        }
        report["jit_speedup"] = round(jit_rate / reference_rate, 2)
    return report


def _measure_engine() -> dict:
    """Visits/sec of the profile_engine.py reference configuration."""
    workload, cores = "db", 1
    total = BENCH_SCALE.single_total
    raw = get_traces(workload, cores, total, DEFAULT_SEED)

    compiled, compile_seconds = _timed(
        lambda: compile_traces(
            raw, 64, workload=workload, seed=DEFAULT_SEED, n_instructions=total
        )
    )
    store.store(compiled[0])
    key = dict(
        workload=workload, seed=DEFAULT_SEED, core=0, n_instructions=total, line_size=64
    )
    _, cold_load = _timed(lambda: store.load(**key))
    _, warm_load = _timed(lambda: store.load(**key))

    report = _backend_rates(workload, cores, "discontinuity", "bypass")
    reference = report["backends"]["reference"]
    report.update(
        measure_instructions=BENCH_SCALE.measure_instructions,
        seconds=reference["seconds"],
        engine_visits_per_sec=reference["visits_per_sec"],
        trace_compile_seconds=round(compile_seconds, 4),
        store_cold_load_seconds=round(cold_load, 5),
        store_warm_load_seconds=round(warm_load, 5),
    )
    return report


#: cold builds of each kernel object whose median is recorded.
KERNEL_BUILDS = 3


def _kernel_build_seconds(tmp_root: Path) -> dict:
    """Each jit kernel object's one-off build, from an empty cache
    directory (stem -> seconds): the median of :data:`KERNEL_BUILDS`
    cold builds, each in a fresh directory."""
    from repro.core import jitted

    previous = os.environ.get(REPRO_JIT_CACHE_DIR)
    builds: dict = {stem: [] for stem in jitted.KERNEL_OBJECTS}
    try:
        for attempt in range(KERNEL_BUILDS):
            directory = tmp_root / f"bench-kernel-build-{attempt}"
            os.environ[REPRO_JIT_CACHE_DIR] = str(directory)
            for stem, seconds in builds.items():
                seconds.append(ccompile.load(stem, jitted.kernel_source(stem))[1])
        return {
            stem: round(statistics.median(seconds), 4)
            for stem, seconds in builds.items()
        }
    finally:
        if previous is None:
            os.environ.pop(REPRO_JIT_CACHE_DIR, None)
        else:
            os.environ[REPRO_JIT_CACHE_DIR] = previous


def _measure_family(prefetchers) -> dict:
    """Reference vs jit wall time of each prefetcher, db / 4 cores / smoke."""
    from repro.core import jitted

    smoke = get_scale("smoke")
    report = {}
    for prefetcher in prefetchers:
        result, ref_seconds = _best_run(
            "db", 4, prefetcher, "bypass", "reference", reps=1, scale=smoke
        )
        entry = {
            "config": f"db/4c/{prefetcher}/bypass/smoke",
            "reference_seconds": round(ref_seconds, 4),
        }
        if jitted.jit_available():
            jit_result, jit_seconds = _best_run(
                "db", 4, prefetcher, "bypass", "jit", scale=smoke
            )
            assert repr(jit_result.aggregate_ipc) == repr(result.aggregate_ipc)
            entry["jit_seconds"] = round(jit_seconds, 4)
            entry["jit_over_reference"] = round(jit_seconds / ref_seconds, 4)
        report[prefetcher] = entry
    return report


def _measure_engine_cmp() -> dict:
    """Per-backend visits/sec on the 4-core CMP configuration.

    This is the configuration the jit backend exists for: the reference
    Python interleave loop steps one visit at a time, while the jit
    backend runs the whole interleave loop compiled.
    """
    report = _backend_rates("db", 4, "discontinuity", "bypass")
    report["measure_instructions_per_core"] = BENCH_SCALE.cmp_measure_instructions
    return report


#: a fresh process's best-of-5 set-up, as JSON ``[construct, bind]``.
_SETUP_4C = (
    "import json; from benchmarks.test_perf_smoke import _setup_4c_best; "
    "print(json.dumps(_setup_4c_best()))"
)


def _setup_4c_config() -> Tuple[SystemConfig, list]:
    """The db / 4-core jit system of ``setup_4c`` and its traces."""
    smoke = get_scale("smoke")
    total, warm = trace_budget(smoke, 4)
    traces = get_compiled_traces("db", 4, total, DEFAULT_SEED, 64)
    config = SystemConfig(
        n_cores=4,
        prefetcher="discontinuity",
        l2_policy="bypass",
        warm_instructions=warm,
        engine_backend="jit",
    )
    return config, traces


def _setup_4c_best() -> Tuple[float, float]:
    """``(construct, bind)`` seconds of this process's fastest of 5
    constructions and binds of the ``setup_4c`` system."""
    config, traces = _setup_4c_config()
    best = None
    for _ in range(5):
        system, construct = _timed(lambda: System(config, traces))
        bound, bind = _timed(
            lambda: all(engine._twin_ready() for engine in system.engines)
        )
        assert bound
        if best is None or construct + bind < sum(best):
            best = (construct, bind)
        del system
    return best


def _measure_setup_4c() -> Optional[dict]:
    """Construct + bind a never-stepped db / 4-core jit system: the median,
    over 5 fresh processes, of each one's best of 5.

    A process's best of 5 spreads by about half between processes, so one
    process's figure says little.  No simulation runs: this is the Python
    set-up the kernel needs before its first visit (the L2 is the paper's
    2 MB, 8,192 sets).  The processes load their traces from the trace
    store and the kernel from the jit cache that this one fills first.
    """
    from repro.core import jitted

    if not jitted.jit_available() or not jitted.jit_available("repro_jit_disc"):
        return None
    config, _ = _setup_4c_config()
    path = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT), os.environ.get("PYTHONPATH", "")]
    )
    runs = []
    for _ in range(5):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_4C],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        runs.append(tuple(json.loads(done.stdout.splitlines()[-1])))
    construct, bind = sorted(runs, key=sum)[len(runs) // 2]
    return {
        "config": "db/4c/discontinuity/bypass/smoke",
        "l2_sets": config.hierarchy.l2.n_sets,
        "processes": len(runs),
        "construct_seconds": round(construct, 5),
        "bind_seconds": round(bind, 5),
        "seconds": round(construct + bind, 5),
    }


def _measure_synth(tmp_root: Path) -> dict:
    """Synthesis + lowering throughput, Python vs compiled (db / 1c / smoke)."""
    workload, cores, line_size = "db", 1, 64
    total, _ = trace_budget(get_scale("smoke"), cores)
    source = resolve(workload)

    def python_path():
        traces = source.traces(cores, DEFAULT_SEED, total)
        return compile_traces(
            traces, line_size, workload=workload, seed=DEFAULT_SEED, n_instructions=total
        )

    expected, python_seconds = _timed(python_path)
    instructions = sum(trace.total_instructions for trace in expected)
    report = {
        "config": f"{workload}/{cores}c/smoke/l{line_size}",
        "instructions": instructions,
        "python_seconds": round(python_seconds, 4),
        "python_minstr_per_s": round(instructions / python_seconds / 1e6, 4),
    }
    if not native.available():
        return report

    def native_path():
        blocks = native.synthesize(source.walks(cores, DEFAULT_SEED), total)
        return [
            native.lower(columns, line_size, workload, DEFAULT_SEED, core, total)
            for core, columns in enumerate(blocks)
        ]

    best = None
    for _ in range(3):
        got, elapsed = _timed(native_path)
        assert [t.to_bytes() for t in got] == [t.to_bytes() for t in expected]
        best = elapsed if best is None else min(best, elapsed)
    # The one-off build, from an empty cache directory.
    previous = os.environ.get(REPRO_JIT_CACHE_DIR)
    os.environ[REPRO_JIT_CACHE_DIR] = str(tmp_root / "bench-synth-build")
    try:
        _, compile_seconds = ccompile.load("repro_synth", native.source())
    finally:
        if previous is None:
            os.environ.pop(REPRO_JIT_CACHE_DIR, None)
        else:
            os.environ[REPRO_JIT_CACHE_DIR] = previous
    report.update(
        native_seconds=round(best, 4),
        native_minstr_per_s=round(instructions / best / 1e6, 3),
        native_speedup=round(python_seconds / best, 1),
        compile_seconds=round(compile_seconds, 4),
    )
    return report


def _measure_ingest(tmp_root: Path) -> dict:
    """Ingest + compile throughput (PC lines/sec) on the CI fixture."""
    from repro.envvars import REPRO_EXTERNAL_TRACES, REPRO_TRACE_DIR
    from repro.trace import ingest

    fixture = REPO_ROOT / "tests" / "data" / "external_fixture.txt"
    lines = fixture.read_text().splitlines()
    n_lines = len(lines)

    (pcs, parse_seconds) = _timed(lambda: ingest.parse_text(lines))
    (events, classify_seconds) = _timed(lambda: ingest.events_from_pcs(pcs))

    overrides = {
        REPRO_EXTERNAL_TRACES: str(tmp_root / "bench-external"),
        REPRO_TRACE_DIR: str(tmp_root / "bench-traces"),
    }
    previous = {name: os.environ.get(name) for name in overrides}
    os.environ.update(overrides)
    try:
        _, ingest_seconds = _timed(lambda: ingest.ingest_file(fixture, name="bench"))
        _, compile_seconds = _timed(
            lambda: ingest.compile_external("bench", 1, 50_000)
        )
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value

    parse_classify = parse_seconds + classify_seconds
    total = ingest_seconds + compile_seconds
    return {
        "fixture_lines": n_lines,
        "fixture_pcs": len(pcs),
        "fixture_events": len(events),
        "parse_seconds": round(parse_classify, 4),
        "parse_lines_per_sec": round(n_lines / parse_classify, 1),
        "ingest_seconds": round(ingest_seconds, 4),
        "compile_seconds": round(compile_seconds, 4),
        "compile_lines_per_sec": round(n_lines / total, 1),
    }


def _fig01_run(scale, cache_dir: Path) -> float:
    """One fig01 sweep against *cache_dir* with in-process memos dropped."""
    os.environ[REPRO_CACHE_DIR] = str(cache_dir)
    executor.clear_memo()
    clear_trace_cache()
    experiment = get_experiment("fig01")
    _, elapsed = _timed(lambda: run_experiment(experiment, scale=scale))
    return elapsed


def _measure_fig01(scale, tmp_root: Path) -> dict:
    """Driver wall-clock: cold, trace-store-warm, and result-cache-warm,
    with the trace-store entries the cold and the store-warm runs add."""
    previous = os.environ.get(REPRO_CACHE_DIR)
    store.clear()
    try:
        coldstore = _fig01_run(scale, tmp_root / "run-cold")
        cold_entries = store.entry_count()
        # Fresh result cache, warm trace store: workers load packed traces.
        warmstore = _fig01_run(scale, tmp_root / "run-warmstore")
        warmstore_entries = store.entry_count() - cold_entries
        # Same result cache again: served straight from disk-cached results.
        warm = _fig01_run(scale, tmp_root / "run-warmstore")
    finally:
        if previous is None:
            os.environ.pop(REPRO_CACHE_DIR, None)
        else:
            os.environ[REPRO_CACHE_DIR] = previous
    return {
        "scale": scale.name,
        "fig01_coldstore_seconds": round(coldstore, 3),
        "fig01_warmstore_seconds": round(warmstore, 3),
        "fig01_warm_seconds": round(warm, 3),
        "fig01_coldstore_store_entries_added": cold_entries,
        "fig01_warmstore_store_entries_added": warmstore_entries,
    }


def test_perf_smoke(scale, tmp_path):
    engine = _measure_engine()
    if "jit" in engine["backends"]:
        objects = _kernel_build_seconds(tmp_path)
        engine["jit_compile_seconds"] = objects["repro_jit"]
        engine["jit_object_compile_seconds"] = objects
    engine_4c = _measure_engine_cmp()
    setup_4c = _measure_setup_4c()
    branch_family = _measure_family(("fdp", "shadow"))
    history_family = _measure_family(("target", "markov", "mana"))
    synth = _measure_synth(tmp_path)
    ingest = _measure_ingest(tmp_path)
    figure = _measure_fig01(scale, tmp_path)

    report = {
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "engine": engine,
        "engine_4c": engine_4c,
        "setup_4c": setup_4c,
        "branch_family": branch_family,
        "history_family": history_family,
        "synth": synth,
        "ingest": ingest,
        "figure": figure,
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print()
    print(json.dumps(report, indent=2))

    # Sanity floors only — absolute throughput varies across machines, so
    # the asserted bounds sit well below expectation (the reference
    # backend sustains ~45-65k visits/s warm on CI-class hardware; the
    # untimed warm-up rep above keeps cold-start noise out of the record).
    assert engine["line_visits"] > 0
    assert engine["engine_visits_per_sec"] > 5_000
    # The jit backend measures ~10-16x single-core and ~20-27x on the
    # 4-core config here (compile cost excluded — the kernel is built
    # before the timed region).  The asserted floors are the targets the
    # backend was built to: >=6x single-core, >=2x multi-core.
    if "jit" in engine["backends"]:
        assert engine["jit_speedup"] >= 6.0
    if "jit" in engine_4c["backends"]:
        assert engine_4c["jit_speedup"] >= 2.0
    # The branch family (fdp, shadow) and the history families (target,
    # markov) and mana run in the kernel: jit takes a small fraction of the
    # reference wall time (measured ~0.03-0.05; the ceiling is 0.5).
    for entry in [*branch_family.values(), *history_family.values()]:
        if "jit_over_reference" in entry:
            assert entry["jit_over_reference"] < 0.5
    assert engine["store_warm_load_seconds"] < engine["trace_compile_seconds"]
    # Compiled synthesis measures ~100x Python here; the floor is 10x.
    if "native_seconds" in synth:
        assert synth["native_speedup"] >= 10.0
    # Ingestion is linear scans over small records; even slow CI machines
    # sustain far more than this floor (typical: >100k lines/s parsing).
    assert ingest["parse_lines_per_sec"] > 5_000
    assert ingest["compile_lines_per_sec"] > 1_000
    # The cold sweep fills the trace store and the store-warm sweep only
    # reads it (at smoke scale the two wall times are too close to order),
    # and disk-cached results must beat everything by a wide margin.
    assert figure["fig01_coldstore_store_entries_added"] > 0
    assert figure["fig01_warmstore_store_entries_added"] == 0
    assert figure["fig01_warm_seconds"] < figure["fig01_coldstore_seconds"] / 2
