#!/usr/bin/env python
"""Profile the simulator's hot loop and report per-phase timings.

Runs one fixed-seed configuration (db, discontinuity, bypass — the
configuration the perf benchmarks track) and prints:

- a phase breakdown: synthesize (raw trace generation), lower+compile
  (line-visit lowering into packed columns) and simulate (the engine loop);
- line visits per second of wall-clock for the simulate phase (the engine
  throughput metric that ``benchmarks/test_perf_smoke.py`` records in
  ``BENCH_perf.json``), and
- optionally a cProfile table of the hottest functions (``--profile``).

Usage::

    PYTHONPATH=src python scripts/profile_engine.py
    PYTHONPATH=src python scripts/profile_engine.py --profile --top 25
    PYTHONPATH=src python scripts/profile_engine.py --workload web --cores 4
    PYTHONPATH=src python scripts/profile_engine.py --backend all
    PYTHONPATH=src python scripts/profile_engine.py --verify

The on-disk trace store is bypassed (every phase is measured live).

``--backend`` selects the engine backend to time: ``reference``, ``jit``,
or ``all`` to time both and print the jit speedup.  The jit backend's
one-time kernel compile runs (and is reported) outside the timed region
— visits/sec excludes it.

``--verify`` proves backend equivalence the hard way: it steps a
``reference`` system and a ``jit`` system through the *same* trace in
lockstep, comparing the stepping core's clock and full
:class:`~repro.core.metrics.CoreStats` after **every visit**, and prints
the first divergent visit index and field name if the backends ever
disagree.  (It also cross-checks every compiled trace against the live
lowering.)  It names the reason when a jit core stepped on reference
instead of the kernel.  Exit status 1 on any divergence, or when a
family the kernel claims fell back.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import time

from repro.envvars import REPRO_TRACE_STORE
from repro.eval.profiles import ExperimentScale
from repro.eval.runner import (
    DEFAULT_SEED,
    get_compiled_traces,
    get_traces,
    run_system,
)
from repro.eval.runspec import RunSpec
from repro.trace.compiled import compile_traces, visits_equal

#: fixed instruction budget so visits/sec is comparable across runs.
BENCH_SCALE = ExperimentScale(
    name="bench",
    warm_instructions=30_000,
    measure_instructions=180_000,
    cmp_measure_instructions=80_000,
)


def _diff_field(ref_engine, jit_engine):
    """Name of the first field where the two engines disagree, or None.

    Floats are compared by ``repr`` so any bit-level divergence registers
    (``==`` would hide a signed zero).  Breakdown/prefetch sub-fields are
    reported dotted, e.g. ``l1i_breakdown.COLD``.
    """
    from repro.eval.diskcache import _core_to_dict

    if repr(ref_engine.cycle) != repr(jit_engine.cycle):
        return "cycle"
    ref_data = _core_to_dict(ref_engine.stats)
    jit_data = _core_to_dict(jit_engine.stats)
    for key, ref_value in ref_data.items():
        jit_value = jit_data[key]
        if isinstance(ref_value, dict):
            for sub in ref_value:
                if repr(ref_value[sub]) != repr(jit_value.get(sub)):
                    return f"{key}.{sub}"
        elif repr(ref_value) != repr(jit_value):
            return key
    return None


def _verify_backends(args, traces) -> int:
    """Lockstep per-visit reference-vs-jit cross-check.

    Mirrors ``System.run``'s smallest-clock interleaving on the reference
    system and drives the jit system with the *same* core choice, so both
    process the identical global visit sequence.  Returns
    0 when every visit matches, 1 (after printing the first divergence)
    otherwise.
    """
    from repro.cmp.system import System, SystemConfig

    def build(backend: str) -> System:
        config = SystemConfig(
            n_cores=args.cores,
            prefetcher=args.prefetcher,
            l2_policy=args.l2_policy,
            warm_instructions=BENCH_SCALE.warm_instructions
            if args.cores == 1
            else BENCH_SCALE.cmp_warm_instructions,
            engine_backend=backend,
        )
        return System(config, traces)

    ref_sys, jit_sys = build("reference"), build("jit")
    active_ref = list(ref_sys.engines)
    active_jit = list(jit_sys.engines)
    visit = 0
    while active_ref:
        index = 0
        for candidate in range(1, len(active_ref)):
            if active_ref[candidate].cycle < active_ref[index].cycle:
                index = candidate
        ref_engine, jit_engine = active_ref[index], active_jit[index]
        ref_alive, jit_alive = ref_engine.step(), jit_engine.step()
        core = ref_engine.config.core_id
        if ref_alive != jit_alive:
            print(
                f"VERIFY FAILED: backends diverge at visit {visit} "
                f"(core {core}, field trace-exhaustion)"
            )
            return 1
        field = _diff_field(ref_engine, jit_engine)
        if field is not None:
            print(
                f"VERIFY FAILED: backends diverge at visit {visit} "
                f"(core {core}, field {field})"
            )
            return 1
        if not ref_alive:
            del active_ref[index], active_jit[index]
        visit += 1
    print(f"verify           : reference/jit bit-identical over {visit} visits")
    return _report_fallbacks(jit_sys)


def _report_fallbacks(jit_sys) -> int:
    """Say which jit cores stepped on reference (making the lockstep above
    vacuous for them); 1 when the kernel claims the prefetcher family."""
    from repro.core import jitted

    reasons = {
        getattr(engine, "fallback_reason", None) or "jit kernel unavailable"
        for engine in jit_sys.engines
        if not getattr(engine, "_twin_ok", False)
    }
    if not reasons:
        return 0
    print(f"verify           : jit stepped on reference ({'; '.join(sorted(reasons))})")
    claimed = jitted.jit_available() and all(
        type(engine.prefetcher) in jitted._PF_MODES for engine in jit_sys.engines
    )
    if claimed:
        print("VERIFY FAILED: the kernel claims this prefetcher family")
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="db")
    parser.add_argument("--cores", type=int, default=1)
    parser.add_argument("--prefetcher", default="discontinuity")
    parser.add_argument("--l2-policy", default="bypass")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--backend",
        default="reference",
        choices=("reference", "jit", "all"),
        help="engine backend to time ('all' times both and prints the jit "
        "speedup)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="per-visit lockstep cross-check of jit against reference "
        "(prints the first divergent visit index and field), plus the "
        "compiled-trace-vs-live-lowering check",
    )
    parser.add_argument(
        "--profile", action="store_true", help="print a cProfile table of the run"
    )
    parser.add_argument("--top", type=int, default=20, help="profile rows to print")
    args = parser.parse_args()

    # The script measures each phase itself; keep the on-disk store out of
    # the loop so timings are live.
    os.environ[REPRO_TRACE_STORE] = "0"

    total = (
        BENCH_SCALE.single_total if args.cores == 1 else BENCH_SCALE.cmp_total_per_core
    )
    started = time.perf_counter()
    raw = get_traces(args.workload, args.cores, total, args.seed)
    synth_seconds = time.perf_counter() - started

    started = time.perf_counter()
    compiled_set = compile_traces(
        raw, 64, workload=args.workload, seed=args.seed, n_instructions=total
    )
    compile_seconds = time.perf_counter() - started

    if args.verify:
        for core, compiled in enumerate(compiled_set):
            equal, mismatch = visits_equal(compiled, raw[core])
            if not equal:
                print(f"VERIFY FAILED: core {core} diverges at visit {mismatch}")
                return 1
        print(f"verify           : {len(compiled_set)} compiled trace(s) exact")
        status = _verify_backends(args, compiled_set)
        if status:
            return status

    def simulate(backend: str):
        return run_system(
            RunSpec.create(
                args.workload,
                args.cores,
                args.prefetcher,
                scale=BENCH_SCALE,
                l2_policy=args.l2_policy,
                seed=args.seed,
                engine_backend=backend,
            )
        )

    # Prime run_system's compiled-trace memo outside the timed region so
    # `simulate` times the engine loop alone.
    get_compiled_traces(args.workload, args.cores, total, args.seed, 64)

    backends = ("reference", "jit") if args.backend == "all" else (args.backend,)
    print(
        f"{args.workload}/{args.cores}c/{args.prefetcher}/{args.l2_policy} "
        f"seed={args.seed}"
    )
    print(f"synthesize       : {synth_seconds:.2f}s")
    print(f"lower+compile    : {compile_seconds:.2f}s")
    if "jit" in backends:
        # Build (or load from cache) the jit kernel outside the timed
        # region: the one-time compile cost is reported separately.
        from repro.core import jitted

        if jitted.jit_available():
            print(f"jit compile      : {jitted.kernel_compile_seconds():.2f}s")

    rates = {}
    profilers = {}
    for backend in backends:
        if args.profile:
            profilers[backend] = cProfile.Profile()
            started = time.perf_counter()
            result = profilers[backend].runcall(simulate, backend)
            elapsed = time.perf_counter() - started
        else:
            started = time.perf_counter()
            result = simulate(backend)
            elapsed = time.perf_counter() - started
        visits = sum(core.l1i_fetches for core in result.cores)
        rates[backend] = visits / elapsed
        print(f"[{backend}]")
        print(f"simulate         : {elapsed:.2f}s")
        print(f"line visits      : {visits}")
        print(f"visits/sec       : {rates[backend]:,.0f}")
        print(f"aggregate IPC    : {result.aggregate_ipc:.6f}")

    if len(rates) > 1:
        print(f"speedup [jit]    : {rates['jit'] / rates['reference']:.2f}x")

    for backend, profiler in profilers.items():
        print(f"\n--- cProfile [{backend}] ---")
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
