"""One set-up and one sweep of a benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition, with fresh
``REPRO_CACHE_DIR`` / ``REPRO_TRACE_DIR`` / ``REPRO_EXTERNAL_TRACES``
directories, no other ``REPRO_*`` variable, and ``PYTHONPATH`` set to the
checkout's ``src``.  A fresh process keeps the set-up honest: no trace
memo, result memo or loaded jit kernel survives from an earlier
repetition.  A ``sweep`` repetition of a warm-store workload also gets
``REPRO_TRACE_DIR`` and ``REPRO_JIT_CACHE_DIR`` pointing at what an
earlier repetition of the same run built; only its sweep is counted.

- Set-up, timed from process start: import the simulator, load or build
  the jit kernel (its default cache directory lies inside the fresh result
  cache, so this builds it), take the environment fingerprint and, on a
  warm-store workload, precompile the sweep's trace keys into the store.
- Sweep, timed on its own: submit every spec of the workload's
  experiments in one closed-loop batch through ``run_specs_report``, then
  build each experiment's panels and verdicts through ``run_experiment``.
- Check, untimed: every spec's statistics against the digest committed in
  ``digests.json``, and every expectation verdict.

The last line of standard output is the repetition's JSON record.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import spans

STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"

SCALE = "smoke"
#: the seed held out while the benchmark was tuned (``--workload-seed heldout``).
HELDOUT_SEED = 2718

#: variable -> subdirectory of the repetition's fresh temp root.
HERMETIC_DIRS = {
    "REPRO_CACHE_DIR": "cache",
    "REPRO_TRACE_DIR": "traces",
    "REPRO_EXTERNAL_TRACES": "external",
}


@dataclass(frozen=True)
class Workload:
    experiments: Tuple[str, ...]
    #: worker processes; each takes its next spec only after finishing its
    #: last one (closed loop).
    jobs: int
    #: fill the trace store during set-up, so the sweep only reads it.
    warm_store: bool


WORKLOADS: Dict[str, Workload] = {
    "fig01-cold": Workload(("fig01",), jobs=1, warm_store=False),
    "cmp-warmstore": Workload(
        ("scenario-interp", "scenario-microsvc"), jobs=2, warm_store=True
    ),
}


def workload_seed(name: str) -> int:
    from repro.eval.runspec import DEFAULT_SEED

    return {"default": DEFAULT_SEED, "heldout": HELDOUT_SEED}[name]


def sweep_specs(workload: Workload, seed: int) -> list:
    from repro.eval.registry import get_experiment
    from repro.eval.runspec import dedupe_specs

    return dedupe_specs(
        spec
        for name in workload.experiments
        for spec in get_experiment(name).specs(SCALE, seed)
    )


def spec_label(spec: Any) -> str:
    l1i = spec.hierarchy.l1i
    return (
        f"{spec.describe()}/l1i-{l1i.capacity_bytes // 1024}KB-"
        f"{l1i.associativity}way-{l1i.line_size}B"
    )


def result_digest(result: Any) -> str:
    """sha256 of a result's per-core and link statistics.

    The statistics are taken in the disk cache's payload form without
    ``config`` and ``schema``: a digest pins what was simulated, not how the
    run was configured or which payload version stored it.
    """
    from repro.eval import diskcache

    payload = diskcache.result_to_payload(result)
    del payload["config"], payload["schema"]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fingerprint() -> Dict[str, Any]:
    """What must match before two runs' timings may be compared."""
    from repro.core import jitted
    from repro.core.backends import resolve_backend

    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "jit_available": jitted.jit_available(),
        "kernel_source_hash": jitted.kernel_source_hash(),
        "auto_backend_1c": resolve_backend("auto", 1),
        "auto_backend_4c": resolve_backend("auto", 4),
    }


# --------------------------------------------------------------------- #
# Peak resident memory of this process and its pool workers
# --------------------------------------------------------------------- #

_PAGE = os.sysconf("SC_PAGE_SIZE")
#: seconds between two samples of the process tree's resident memory.
RSS_INTERVAL_S = 0.05


def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                out.extend(int(child) for child in handle.read().split())
        except OSError:
            pass
    return out


def tree_rss(pid: int) -> int:
    """Resident bytes of *pid* and all its descendants (0 once it exited)."""
    try:
        with open(f"/proc/{pid}/statm") as handle:
            rss = int(handle.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0
    return rss + sum(tree_rss(child) for child in _children(pid))


class PeakRss:
    """Samples :func:`tree_rss` of this process from a thread while open."""

    def __init__(self) -> None:
        self.peak = 0
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        self.peak = max(self.peak, tree_rss(os.getpid()))

    def _loop(self) -> None:
        while not self._done.wait(RSS_INTERVAL_S):
            self._sample()

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._done.set()
        self._thread.join()
        self._sample()

    @property
    def mb(self) -> float:
        return self.peak / 2**20


# --------------------------------------------------------------------- #
# Set-up, sweep, check
# --------------------------------------------------------------------- #


def set_up(workload: Workload, seed_name: str) -> Tuple[Dict[str, Any], int, list]:
    import repro
    from repro.eval import runner

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"sweep.py: imported repro from {repro.__file__}, not {SRC}")
    env = fingerprint()
    seed = workload_seed(seed_name)
    specs = sweep_specs(workload, seed)
    if workload.warm_store:
        runner.precompile_for_specs(specs)
        # Drop the in-process copies: the sweep has to read the store.
        runner.clear_trace_cache()
    return env, seed, specs


def run_sweep(name: str, workload: Workload, order: list, seed: int, jobs: int):
    """``(results, report, errors, outcomes)`` of one closed-loop batch."""
    from repro.eval import executor, experiment
    from repro.eval.registry import get_experiment

    try:
        results, report = executor.run_specs_report(order, jobs=jobs, label=name)
    except executor.SweepError as error:
        return error.results, error.report, error.failures, []
    outcomes = [
        experiment.run_experiment(get_experiment(exp), scale=SCALE, seed=seed, jobs=jobs)
        for exp in workload.experiments
    ]
    return results, report, {}, outcomes


def check_digests(
    specs: list, results: dict, errors: dict, seed: int, record: bool
) -> List[str]:
    """One line per failed spec; with *record*, rewrite the seed's digests."""
    committed = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected = committed.setdefault(str(seed), {})
    failed = []
    for spec in specs:
        label = spec_label(spec)
        if spec in errors:
            failed.append(f"{label}: the executor reported it failed")
            continue
        key, digest = spec.content_hash(), result_digest(results[spec])
        if record:
            expected[key] = {"spec": label, "digest": digest}
        elif key not in expected:
            failed.append(f"{label}: no committed digest for seed {seed}")
        elif expected[key]["digest"] != digest:
            failed.append(f"{label}: statistics differ from the committed digest")
    if record:
        DIGESTS.write_text(json.dumps(committed, indent=1, sort_keys=True) + "\n")
    return failed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="One set-up and sweep of a workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--workload-seed", default="default", choices=("default", "heldout"))
    parser.add_argument(
        "--order-seed", type=int, default=0, help="shuffles a serial sweep's spec submission"
    )
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    parser.add_argument("--spans-out", type=Path, help="file the traced run writes spans to")
    parser.add_argument(
        "--record-digests", action="store_true", help="rewrite digests.json, do not check"
    )
    parser.add_argument("--setup-only", action="store_true", help="stop after the set-up")
    args = parser.parse_args(argv)
    missing = [name for name in HERMETIC_DIRS if not os.environ.get(name)]
    if missing:
        print(f"sweep.py: {', '.join(missing)} unset; start it through run.py", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None

    def phase(name: str):
        return tracer.span(name) if tracer is not None else nullcontext()

    with PeakRss() as rss:
        with phase("setup"):
            # Installing the patches imports every layer module, which the
            # untraced set-up time counts too.
            if tracer is not None:
                tracer.install(spans.LAYER_PATCHES)
            env, seed, specs = set_up(workload, args.workload_seed)
        setup_s = time.perf_counter() - STARTED
        if args.setup_only:
            print(json.dumps({"fingerprint": env, "setup_s": setup_s}))
            return 0
        order = list(specs)
        # A shuffle would move a pool's tail by seed (see run.py).
        if args.jobs == 1:
            random.Random(args.order_seed).shuffle(order)
        started = time.perf_counter()
        with phase("sweep"):
            results, report, errors, outcomes = run_sweep(
                args.workload, workload, order, seed, args.jobs
            )
        sweep_s = time.perf_counter() - started

    from repro.eval.runner import trace_budget

    verdicts = [verdict for outcome in outcomes for verdict in outcome.verdicts]
    record: Dict[str, Any] = {
        "workload": args.workload,
        "workload_seed": seed,
        "order_seed": args.order_seed,
        "jobs": args.jobs,
        "traced": args.trace,
        "fingerprint": env,
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        # Warm-up plus measured instructions, all cores.
        "sim_instructions": sum(
            trace_budget(spec.scale, spec.n_cores)[0] * spec.n_cores for spec in specs
        ),
        "peak_rss_mb": rss.mb,
        "attempted": len(specs),
        "failed_specs": check_digests(specs, results, errors, seed, args.record_digests),
        "verdicts": len(verdicts),
        "verdicts_failed": (
            [verdict.format() for verdict in verdicts if not verdict.passed]
            if outcomes
            else ["verdicts not evaluated: the sweep failed"]
        ),
        "executor": {
            "simulated": report.simulated,
            "retried": report.retried,
            "failed": report.failed,
            "spec_sum_s": sum(report.durations.values()),
            "wall_s": report.wall_seconds,
        },
    }
    if tracer is not None:
        record["layers"] = spans.layer_metrics(tracer.spans)
        if args.spans_out is not None:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            args.spans_out.write_text(
                json.dumps([dataclasses.asdict(span) for span in tracer.spans])
            )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
