"""``repro-experiment`` command-line front end.

Usage::

    repro-experiment list
    repro-experiment describe fig05 replication-check
    repro-experiment check all --scale smoke
    repro-experiment fig05 --scale smoke --progress
    repro-experiment fig05 fig06 --scale smoke
    repro-experiment all --scale default --seed 7 --strict
    repro-experiment precompile all --scale smoke
    repro-experiment precompile fig01 --trace-store /var/cache/traces

Verbs (the first positional token):

- ``list`` — one line per catalog entry: name, paper reference, title.
- ``sources`` — one line per registered trace source (synthetic
  profiles, ``mix`` and ingested ``external:<name>`` streams).
- ``describe`` — full declaration: grid size, panels, expectation bands.
- ``check`` — dry-run cost estimate: spec counts plus a disk-cache hit
  probe; nothing is simulated.
- ``precompile`` — populate the on-disk compiled-trace store for the
  named experiments (default: all) without simulating anything — the CI
  warm-up step, or the prelude to a sweep on a shared store directory.

Anything else is an experiment name (see ``list``) or ``all``.  After a
run, each experiment's declared paper expectations are evaluated and the
verdicts printed; ``--strict`` (or ``REPRO_STRICT_EXPECTATIONS=1``) makes
failing verdicts exit non-zero.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from repro.core.backends import AUTO_BACKEND, BACKEND_NAMES
from repro.envvars import (
    REPRO_ENGINE_BACKEND,
    REPRO_STRICT_EXPECTATIONS,
    REPRO_TRACE_DIR,
)
from repro.eval.executor import SweepError, run_specs_report
from repro.eval.experiment import ExperimentOutcome, estimate_experiment
from repro.eval.profiles import SCALES, get_scale
from repro.eval.registry import (
    collect_specs_by_experiment,
    experiment_names,
    get_experiment,
    run_experiment_outcome,
)
from repro.eval.runspec import RunSpec, dedupe_specs
from repro.util.clock import Stopwatch
from repro.util.validation import parse_env_flag

#: the reserved first positional tokens that are verbs, not experiments.
VERBS = ("list", "sources", "describe", "check", "precompile")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description=(
            "Reproduce the figures of 'Effective Instruction Prefetching in "
            "Chip Multiprocessors for Modern Commercial Applications' (HPCA 2005)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="experiment",
        help="experiment names (see 'list'), 'all', or a verb — "
        f"one of {', '.join(VERBS)}",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiment names and exit"
    )
    parser.add_argument(
        "--scale",
        default=None,
        choices=sorted(SCALES),
        help="experiment scale (default: $REPRO_PROFILE or 'default')",
    )
    parser.add_argument("--seed", type=int, default=None, help="experiment seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="workers for the sweep: threads for kernel batches, processes "
        "otherwise (default: $REPRO_JOBS or all cores; 1 runs serially in-process)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=(*BACKEND_NAMES, AUTO_BACKEND),
        help="engine backend for every run (default: $REPRO_ENGINE_BACKEND, "
        "else 'auto': jit when its kernel builds, reference otherwise); "
        "backends are bit-identical — this changes speed, not results",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="narrate sweep completion as each spec lands (memo/disk/simulated)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        default=None,
        help="exit non-zero if any expectation verdict fails "
        f"(default: ${REPRO_STRICT_EXPECTATIONS})",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write all results (panels + verdicts) to PATH as JSON",
    )
    parser.add_argument(
        "--markdown",
        metavar="PATH",
        default=None,
        help="also write all results (panels + verdicts) to PATH as Markdown",
    )
    parser.add_argument(
        "--trace-store",
        metavar="DIR",
        default=None,
        help="directory for the compiled-trace store (default: $REPRO_TRACE_DIR "
        "or <result cache>/traces)",
    )
    return parser


def _print_progress(
    done: int, total: int, spec: RunSpec, source: str, seconds: float
) -> None:
    """``--progress`` narration: one line per spec as the sweep lands it."""
    width = len(str(total))
    if source in ("simulated", "retried", "failed"):
        detail = f"{source} in {seconds:.2f}s"
    else:
        detail = f"{source} hit"
    print(f"[{done:>{width}}/{total}] {spec.describe()}: {detail}", flush=True)


def _affected_experiments(
    by_experiment: Dict[str, List[RunSpec]], failed: List[RunSpec]
) -> List[str]:
    """Names of the experiments that read at least one failed spec."""
    failed_set = set(failed)
    return sorted(
        name
        for name, spec_list in by_experiment.items()
        if failed_set.intersection(spec_list)
    )


def _expand_names(tokens: List[str]) -> List[str]:
    """Resolve the positional tokens to experiment names, expanding 'all'."""
    names: List[str] = []
    for token in tokens:
        expanded = experiment_names() if token == "all" else [token]
        for name in expanded:
            if name not in names:
                names.append(name)
    return names


def _strict_enabled(flag: Optional[bool]) -> bool:
    if flag is not None:
        return flag
    return parse_env_flag(
        REPRO_STRICT_EXPECTATIONS,
        os.environ.get(REPRO_STRICT_EXPECTATIONS),
        default=False,
    )


def _run_list() -> int:
    """The ``list`` verb: one line per catalog entry."""
    width = max(len(name) for name in experiment_names())
    for name in experiment_names():
        experiment = get_experiment(name)
        print(f"{name:<{width}}  {experiment.paper:<40}  {experiment.title}")
    return 0


def _run_sources() -> int:
    """The ``sources`` verb: every workload name a RunSpec can carry."""
    from repro.trace.source import available_sources, source_display_name

    names = available_sources()
    width = max(len(name) for name in names)
    for name in names:
        print(f"{name:<{width}}  {source_display_name(name)}")
    return 0


def _run_describe(names: List[str], scale, seed: Optional[int]) -> int:
    """The ``describe`` verb: print each experiment's full declaration."""
    for name in names:
        try:
            experiment = get_experiment(name)
        except KeyError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        specs = experiment.specs(scale=scale, seed=seed)
        print(f"{experiment.name}: {experiment.title}")
        print(f"  paper:       {experiment.paper}")
        print(f"  tags:        {', '.join(experiment.tags)}")
        print(f"  bench scale: {experiment.bench_scale}")
        if experiment.seeds:
            print(f"  seeds:       {', '.join(str(s) for s in experiment.seeds)}")
        print(f"  grid:        {len(specs)} unique runs "
              f"over axes ({', '.join(axis for axis, _ in experiment.grid.axes)})")
        print(f"  panels:      {len(experiment.panels)}")
        for panel in experiment.panels:
            print(f"    {panel.id}: {panel.title}")
        print(f"  expectations: {len(experiment.expectations)}")
        for expectation in experiment.expectations:
            min_scale = expectation.min_scale or experiment.bench_scale
            print(
                f"    [{expectation.kind}] {expectation.panel}: "
                f"{expectation.describe()} (from scale {min_scale!r})"
            )
        print()
    return 0


def _run_check(names: List[str], scale, seed: Optional[int]) -> int:
    """The ``check`` verb: dry-run cost estimate, nothing simulated."""
    union: List[RunSpec] = []
    estimates = []
    for name in names:
        try:
            experiment = get_experiment(name)
        except KeyError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        estimates.append(estimate_experiment(experiment, scale=scale, seed=seed))
        union.extend(experiment.specs(scale=scale, seed=seed))
    width = max(len(estimate["experiment"]) for estimate in estimates)
    for estimate in estimates:
        print(
            f"{estimate['experiment']:<{width}}  "
            f"{estimate['specs']:>3} specs, {estimate['cached']:>3} cached, "
            f"{estimate['to_simulate']:>3} to simulate; "
            f"{estimate['panels']} panels, "
            f"{estimate['expectations']} expectations"
        )
    deduped = dedupe_specs(union)
    from repro.eval import diskcache

    cached = 0
    if diskcache.enabled():
        cached = sum(1 for spec in deduped if diskcache.path_for(spec).is_file())
    print(
        f"[union: {len(deduped)} unique specs, {cached} cached, "
        f"{len(deduped) - cached} to simulate]"
    )
    return 0


def _run_precompile(names: List[str], scale, seed: Optional[int]) -> int:
    """The ``precompile`` verb: warm the trace store, simulate nothing."""
    from repro.eval.runner import precompile_for_specs
    from repro.trace import store as trace_store

    try:
        by_experiment = collect_specs_by_experiment(names, scale=scale, seed=seed)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    specs = dedupe_specs(
        spec for spec_list in by_experiment.values() for spec in spec_list
    )
    watch = Stopwatch()
    outcomes = precompile_for_specs(specs)
    counts = {source: 0 for source in ("compiled", "store", "memo")}
    for source in outcomes.values():
        counts[source] = counts.get(source, 0) + 1
    print(
        f"[{len(outcomes)} trace keys for {len(specs)} specs: "
        f"{counts['compiled']} compiled, {counts['store']} already stored, "
        f"{counts['memo']} memoized; {watch.elapsed():.1f}s]"
    )
    print(f"[trace store: {trace_store.trace_dir()} ({trace_store.entry_count()} files)]")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.trace_store:
        os.environ[REPRO_TRACE_DIR] = args.trace_store

    if args.backend:
        # Specs default to "auto", which resolves through this env var in
        # every process — sweep workers inherit it from the parent.
        os.environ[REPRO_ENGINE_BACKEND] = args.backend

    if args.list:
        for name in experiment_names():
            print(name)
        return 0

    tokens = list(args.experiments)
    verb = tokens[0] if tokens and tokens[0] in VERBS else None
    if verb is not None:
        tokens = tokens[1:]

    scale = get_scale(args.scale) if args.scale else None

    if verb == "list":
        return _run_list()
    if verb == "sources":
        return _run_sources()

    if verb in ("describe", "check", "precompile") and not tokens:
        tokens = ["all"]

    if not tokens:
        parser.print_usage()
        print("error: specify an experiment name, a verb, or --list", file=sys.stderr)
        return 2

    names = _expand_names(tokens)

    if verb == "describe":
        return _run_describe(names, scale, args.seed)
    if verb == "check":
        return _run_check(names, scale, args.seed)
    if verb == "precompile":
        return _run_precompile(names, scale, args.seed)

    # Batch-submit every run the selected experiments will read: overlapping
    # configurations simulate once, in parallel, before the panels are built
    # from the shared caches.
    try:
        by_experiment = collect_specs_by_experiment(names, scale=scale, seed=args.seed)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    specs = dedupe_specs(
        spec for spec_list in by_experiment.values() for spec in spec_list
    )
    progress = _print_progress if args.progress else None
    watch = Stopwatch()
    try:
        _, report = run_specs_report(
            specs, jobs=args.jobs, progress=progress, label=",".join(names)
        )
    except ValueError as error:  # e.g. a non-integer $REPRO_JOBS
        print(f"error: {error}", file=sys.stderr)
        return 2
    except SweepError as error:
        # Completed siblings are already persisted; report what failed,
        # which experiments it starves, and how much work was salvaged.
        print(f"error: {error}", file=sys.stderr)
        affected = _affected_experiments(by_experiment, list(error.failures))
        if affected:
            print(f"affected experiments: {', '.join(affected)}", file=sys.stderr)
        print(error.report.summary_json())
        return 1
    print(report.summary_json())
    print(f"[{len(specs)} unique runs ready in {watch.elapsed():.1f}s]")
    print()

    outcomes: List[ExperimentOutcome] = []
    for name in names:
        watch.restart()
        outcome = run_experiment_outcome(name, scale=scale, seed=args.seed)
        elapsed = watch.elapsed()
        outcomes.append(outcome)
        for panel in outcome.panels:
            print(panel.format_table())
            print()
        for verdict in outcome.verdicts:
            print(verdict.format())
        if outcome.verdicts:
            print(f"[{name} {outcome.verdict_summary()}]")
        print(f"[{name} completed in {elapsed:.1f}s]")
        print()

    if args.json:
        from repro.eval.report import outcomes_to_json

        with open(args.json, "w") as handle:
            handle.write(outcomes_to_json(outcomes))
        print(f"[wrote {args.json}]")
    if args.markdown:
        from repro.eval.report import outcomes_to_markdown

        with open(args.markdown, "w") as handle:
            handle.write(outcomes_to_markdown(outcomes))
        print(f"[wrote {args.markdown}]")

    failed = [v for outcome in outcomes for v in outcome.failed_verdicts]
    if failed and _strict_enabled(args.strict):
        print(
            f"error: {len(failed)} expectation verdict(s) failed "
            f"(strict mode)", file=sys.stderr,
        )
        return 1
    return 0


def console_entry() -> int:
    """Entry point for ``repro-experiment`` and ``python -m repro.eval.cli``.

    Swallows the ``BrokenPipeError`` raised when stdout is a closed pipe
    (``repro-experiment list | head``) so truncating the output with
    standard shell tools does not print a traceback.
    """
    try:
        return main()
    except BrokenPipeError:
        # Reopen stdout on devnull so the interpreter's shutdown flush
        # does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(console_entry())
