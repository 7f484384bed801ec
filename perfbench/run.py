"""Repo benchmark: two catalog sweeps, timed end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig01-cold --seed 1 --seconds 60 --trace 0

Workloads (later changes refer to them by name):

``fig01-cold``
    Figure 1 at smoke scale: 40 single-core specs (10 L1I geometries x
    db/tpcw/japp/web, i.e. 4 synthesized programs lowered at 4 line sizes,
    16 trace keys), from an empty trace store and result cache, serially.
    The only workload where trace synthesis (~40%) and lowering (~10%) do
    much of the work; the rest is single-core engine stepping (``auto``
    resolves to reference on one core).  It writes the trace store and
    result cache instead of reading them.
``cmp-warmstore``
    scenario-interp + scenario-microsvc at smoke scale: 16 four-core specs
    (a baseline plus 7 prefetcher families, with bypass).  Set-up fills the
    trace store, the result cache starts empty, and the sweep runs on a
    pool of 2 workers.  ``System.run`` is >97% of the sweep and synthesis
    does no work in it; the five families that fall back to reference
    stepping dominate engine time.  The parent-side precompile reads the
    trace store and the forked pool workers inherit its memo, so it also
    measures the executor pool and that precompile.

Every repetition is a fresh process (``sweep.py``) with the defaults a
user gets (``engine_backend="auto"``, compiled traces, trace store and
result cache on), in fresh cache directories under ``perfbench/.work/tmp``.
A repetition is one of three kinds:

``whole``
    cold workloads: set-up and sweep, every directory fresh.
``setup``
    set-up alone, every directory fresh.  On a warm-store workload the
    run's first one keeps its trace store and jit kernel for the sweeps.
``sweep``
    warm-store workloads: set-up and sweep with a fresh result cache, but
    the trace store and jit kernel that the run's first ``setup`` left
    behind.  Its set-up only loads those, so only its sweep counts: a
    sweep in a fresh process on a store that an earlier one filled.

``--trace 0`` starts with a ``whole`` repetition (cold workloads) or a
``setup`` one (warm-store workloads), then runs sweeps while they fit in
``--seconds``, with one more set-up after every fourth sweep, then set-ups
alone while those fit, and reports the median of each end-to-end metric:
``setup_s`` over the ``whole`` and ``setup`` repetitions, the rest over
the ``whole`` and ``sweep`` ones.  A repetition fits when at least half of
it, by the last one of its kind, falls inside ``--seconds``; one of each
kind always runs.
``--trace 1`` runs the workload once untraced (for the executor's
``SweepReport``), once untraced serially if it normally uses a pool, and
once traced serially, and reports the per-layer metrics;
``trace_overhead`` is the traced sweep time over the untraced serial one.

``--seed`` shuffles the order in which a serial sweep's specs are
submitted.  A pooled sweep keeps the catalog's order: the pool hands specs
out in trace-key order with ties in submission order, so a shuffle would
move which long spec ends the batch, and the pool's tail, by seed.
``--workload-seed`` picks the simulated seed: ``default`` is
``DEFAULT_SEED`` and ``heldout`` was kept out of tuning.  Both have
committed per-spec digests in ``digests.json``; ``--record-digests``
rewrites them, for a change meant to alter simulated results.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``, with metric names and units from ``BENCHMARK.json``.  The
full record (environment fingerprint and every repetition) is written to
``perfbench/.work/results/``, one file per workload, workload seed, mode
and ``--seed``; ``compare.py`` compares two sets of records.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import sweep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

#: a run must end within 180 s; no repetition starts that could cross this.
BUDGET_S = 165.0


def declared_units(kind: str) -> Dict[str, str]:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def run_name(args: argparse.Namespace) -> str:
    """File stem of one run's outputs: distinct per workload seed, mode and seed."""
    return f"{args.workload}-{args.workload_seed}-trace{args.trace}-seed{args.seed}"


def child_env(tmp: Path) -> Dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` knob, plus fresh dirs."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env.update({name: str(tmp / sub) for name, sub in sweep.HERMETIC_DIRS.items()})
    env["PYTHONPATH"] = str(ROOT / "src")
    # The jit build's compiler temporaries stay inside the checkout too.
    env["TMPDIR"] = str(tmp)
    return env


def run_rep(
    args: argparse.Namespace,
    jobs: int,
    traced: bool,
    deadline: float,
    kind: str = "whole",
    store: Optional[Path] = None,
) -> Dict[str, Any]:
    """One repetition of *kind* in a fresh process and fresh directories.

    With *store*, the trace store and jit kernel cache live there instead,
    shared with the run's other repetitions that get the same *store*.
    """
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK / "tmp"))
    env = child_env(tmp)
    if store is not None:
        env["REPRO_TRACE_DIR"] = str(store / "traces")
        env["REPRO_JIT_CACHE_DIR"] = str(store / "jit")
    command = [
        sys.executable,
        str(HERE / "sweep.py"),
        "--workload", args.workload,
        "--workload-seed", args.workload_seed,
        "--order-seed", str(args.seed),
        "--jobs", str(jobs),
    ]
    if traced:
        spans_out = WORK / "spans" / f"{run_name(args)}.json"
        command += ["--trace", "--spans-out", str(spans_out)]
    if args.record_digests:
        command.append("--record-digests")
    if kind == "setup":
        command.append("--setup-only")
    started = time.monotonic()
    try:
        child = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, _ = child.communicate(timeout=max(1.0, deadline - started))
        finally:
            # Pool workers share the child's process group: none may outlive it.
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if child.returncode != 0:
        raise RuntimeError(f"sweep.py exited with status {child.returncode}")
    record = json.loads(out.strip().splitlines()[-1])
    record["kind"] = kind
    record["wall_s"] = time.monotonic() - started
    return record


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians over the untraced repetitions of one run."""
    swept = [rep for rep in reps if "sweep_s" in rep]
    return {
        "sweep_s": statistics.median(rep["sweep_s"] for rep in swept),
        "setup_s": statistics.median(rep["setup_s"] for rep in reps if rep["kind"] != "sweep"),
        "sim_minstr_per_s": statistics.median(
            rep["sim_instructions"] / rep["sweep_s"] / 1e6 for rep in swept
        ),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in swept),
    }


def next_kind(reps: List[Dict[str, Any]], warm_store: bool, left: float) -> Optional[str]:
    """Kind of the next untraced repetition, or None once none fits in *left* s.

    Sweeps come before set-ups alone, except that a run keeps at least one
    set-up per four sweeps beyond its first; a kind not run yet always runs.
    """
    sweep = "sweep" if warm_store else "whole"
    setups = sum(rep["kind"] != "sweep" for rep in reps)
    sweeps = sum(rep["kind"] != "setup" for rep in reps)
    for kind in ("setup", sweep) if setups < 1 + sweeps // 4 else (sweep, "setup"):
        done = [rep["wall_s"] for rep in reps if rep["kind"] == kind]
        if not done or done[-1] / 2 <= left:
            return kind
    return None


def per_layer(
    normal: Dict[str, Any], serial: Dict[str, Any], traced: Dict[str, Any]
) -> Dict[str, float]:
    """The traced run's layers plus the untraced run's executor report."""
    executor = normal["executor"]
    metrics = dict(traced["layers"])
    metrics.update(
        {
            "executor.simulated": executor["simulated"],
            "executor.retried": executor["retried"],
            "executor.failed": executor["failed"],
            "executor.spec_sum_s": executor["spec_sum_s"],
            "executor.parallel_eff": executor["spec_sum_s"]
            / (executor["wall_s"] * normal["jobs"]),
            "experiment.verdicts_failed": len(normal["verdicts_failed"]),
            "trace_overhead": traced["sweep_s"] / serial["sweep_s"],
        }
    )
    return metrics


def measure(args: argparse.Namespace, started: float):
    """``(section, metrics, repetitions)`` of one run."""
    workload = sweep.WORKLOADS[args.workload]
    deadline = started + BUDGET_S
    if args.trace:
        normal = run_rep(args, workload.jobs, False, deadline)
        serial = normal if workload.jobs == 1 else run_rep(args, 1, False, deadline)
        traced = run_rep(args, 1, True, deadline)
        reps = [normal] + ([serial] if serial is not normal else []) + [traced]
        return "per_layer", per_layer(normal, serial, traced), reps
    # The first set-up fills the store that ``sweep`` repetitions reuse.
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    store = (
        Path(tempfile.mkdtemp(prefix=f"{args.workload}-store-", dir=WORK / "tmp"))
        if workload.warm_store
        else None
    )
    first = "setup" if workload.warm_store else "whole"
    try:
        reps = [run_rep(args, workload.jobs, False, deadline, first, store)]
        while True:
            now = time.monotonic()
            kind = next_kind(reps, workload.warm_store, started + args.seconds - now)
            if kind is None or now + reps[-1]["wall_s"] > deadline:
                break
            shared = store if kind == "sweep" else None
            reps.append(run_rep(args, workload.jobs, False, deadline, kind, shared))
    finally:
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)
    return "end_to_end", end_to_end(reps), reps


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Repo benchmark: two catalog sweeps, timed end to end and per layer."
    )
    parser.add_argument("--workload", required=True, choices=sorted(sweep.WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=0, help="shuffles a serial sweep's spec submission order"
    )
    parser.add_argument(
        "--seconds", type=float, default=60.0, help="time an untraced run measures"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", choices=("default", "heldout"), default="default")
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help="rewrite this workload seed's digests in digests.json (one repetition)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    try:
        if args.record_digests:
            rep = run_rep(args, sweep.WORKLOADS[args.workload].jobs, False, started + BUDGET_S)
            problems = rep["failed_specs"] + rep["verdicts_failed"]
            print(f"recorded {rep['attempted']} digests for seed {rep['workload_seed']}")
            for problem in problems:
                print(f"FAIL {problem}", file=sys.stderr)
            return 1 if problems else 0
        kind, metrics, reps = measure(args, started)
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    units = declared_units(kind)
    if set(metrics) != set(units):
        print(
            f"perfbench: metrics differ from BENCHMARK.json {kind}: "
            f"{sorted(set(metrics) ^ set(units))}",
            file=sys.stderr,
        )
        return 1
    problems = [
        line
        for rep in reps
        for line in rep.get("failed_specs", []) + rep.get("verdicts_failed", [])
    ]
    if len({json.dumps(rep["fingerprint"], sort_keys=True) for rep in reps}) > 1:
        problems.append("the environment fingerprint changed between repetitions")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)

    (WORK / "results").mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "workload_seed": args.workload_seed,
        "trace": args.trace,
        "seed": args.seed,
        "fingerprint": reps[0]["fingerprint"],
        "correct": not problems,
        "metrics": metrics,
        "reps": reps,
    }
    out = WORK / "results" / f"{run_name(args)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("fingerprint: " + json.dumps(reps[0]["fingerprint"], sort_keys=True))
    for number, rep in enumerate(reps, 1):
        line = f"rep {number} ({rep['kind']}): setup {rep['setup_s']:.3f} s"
        if "sweep_s" in rep:
            line += (
                f", sweep {rep['sweep_s']:.3f} s (jobs={rep['jobs']}, "
                f"traced={rep['traced']}), peak {rep['peak_rss_mb']:.1f} MB"
            )
        print(line)
    result = {
        "correct": not problems,
        "attempted": sum(rep.get("attempted", 0) for rep in reps),
        "failed": sum(len(rep.get("failed_specs", [])) for rep in reps),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
