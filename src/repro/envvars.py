"""The single registry of every ``REPRO_*`` environment variable.

Each variable the harness reads is declared here exactly once: a module
constant whose *name equals its value* (``REPRO_JOBS = "REPRO_JOBS"``)
plus an :class:`EnvVar` metadata record (default and documentation row).
Everything else in the tree imports the constant instead of spelling the
string — lint rule R7 enforces that statically, so a typo'd variable name
(``REPRO_JOB``) can never silently read an empty environment.  Each knob
has this one name; no module re-exports it under an alias.

The registry is also the single source of the environment table in
``docs/performance.md``: ``scripts/gen_env_docs.py`` regenerates the
marked block from :func:`render_env_table`.  ``tests/unit/test_envvars.py``
imports this module and checks that each constant equals its name, that
constants and :data:`REGISTRY` match one to one, and that the committed
block equals the rendered one — the docs cannot drift.

This module deliberately has **no imports from the rest of the package**
(everything may import it, including ``repro.trace`` which must not depend
on ``repro.eval``) and never reads ``os.environ`` itself: it names the
knobs; the owning modules interpret them.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

# --------------------------------------------------------------------- #
# The constants: name == value, one per knob.  Import these; never spell
# the string at a read site (lint R7).
# --------------------------------------------------------------------- #

REPRO_PROFILE = "REPRO_PROFILE"
REPRO_JOBS = "REPRO_JOBS"
REPRO_CACHE_DIR = "REPRO_CACHE_DIR"
REPRO_DISK_CACHE = "REPRO_DISK_CACHE"
REPRO_ENGINE_BACKEND = "REPRO_ENGINE_BACKEND"
REPRO_JIT_CACHE_DIR = "REPRO_JIT_CACHE_DIR"
REPRO_TRACE_DIR = "REPRO_TRACE_DIR"
REPRO_TRACE_STORE = "REPRO_TRACE_STORE"
REPRO_EXTERNAL_TRACES = "REPRO_EXTERNAL_TRACES"
REPRO_SYNTH_LOG = "REPRO_SYNTH_LOG"
REPRO_STRICT_EXPECTATIONS = "REPRO_STRICT_EXPECTATIONS"


class EnvVar(NamedTuple):
    """One declared environment knob (name, display default, doc row)."""

    name: str
    #: the default shown in the docs table (display text, not a value the
    #: registry applies — the owning module implements the default).
    default: str
    #: one-cell Markdown description for the docs table.
    description: str


#: every declared variable, in docs-table order.
REGISTRY: Tuple[EnvVar, ...] = (
    EnvVar(
        REPRO_PROFILE,
        "`default`",
        "Experiment scale (`smoke` / `default` / `full`); "
        "`repro-experiment --scale` overrides it per invocation.",
    ),
    EnvVar(
        REPRO_JOBS,
        "CPU count",
        "Workers for a batch: threads when every spec steps in the jit kernel, "
        "processes otherwise; `1` forces the serial in-process path (no pool, no "
        "pickling). `repro-experiment --jobs N` overrides it per invocation.",
    ),
    EnvVar(
        REPRO_CACHE_DIR,
        "`.repro-cache`",
        "Disk-cache directory; safe to share between concurrent invocations "
        "(writes are atomic tmp-file + rename, with the parent process as "
        "single writer; entries are world-readable `0644`).",
    ),
    EnvVar(
        REPRO_DISK_CACHE,
        "`1`",
        "Set to `0`/`false`/`no`/`off` to disable the disk cache entirely; "
        "`1`/`true`/`yes`/`on` or empty keeps it on.  Case-insensitive; any "
        "other value is an error.",
    ),
    EnvVar(
        REPRO_ENGINE_BACKEND,
        "`jit` if it builds",
        "Engine backend used when a run asks for `auto` (the default "
        "everywhere): `reference` or `jit`.  Backends are bit-identical — "
        "this changes speed, not results — so it is *not* part of any cache "
        "key.  Unset, `auto` resolves to `jit` when a C compiler is "
        "available and to `reference` otherwise, on every core count.  Any "
        "other value is an error.  `repro-experiment --backend` overrides it per "
        "invocation; see [Engine backends](#engine-backends).",
    ),
    EnvVar(
        REPRO_JIT_CACHE_DIR,
        "`$REPRO_CACHE_DIR/jit`",
        "Directory caching the jit backend's compiled kernel (one shared "
        "object per kernel-source hash; compile once, load ever after).  "
        "CI caches it keyed on the kernel source hash.",
    ),
    EnvVar(
        REPRO_TRACE_DIR,
        "`$REPRO_CACHE_DIR/traces`",
        "Directory of the compiled trace store (one packed binary file per "
        "`(workload, seed, core, n_instructions, line_size)` key).",
    ),
    EnvVar(
        REPRO_TRACE_STORE,
        "`1`",
        "Set to `0`/`false`/`no`/`off` to skip the on-disk trace store "
        "while keeping the in-memory compiled path; `1`/`true`/`yes`/`on` or "
        "empty keeps it on.  Case-insensitive; any other value is an error.",
    ),
    EnvVar(
        REPRO_EXTERNAL_TRACES,
        "`$REPRO_CACHE_DIR/external`",
        "Directory of ingested external traces: `repro-trace ingest` "
        "writes one RPTRACE1 file plus a JSON manifest (content-addressed "
        "by source SHA-256) per name, and the `external:<name>` trace "
        "source reads them back.",
    ),
    EnvVar(
        REPRO_SYNTH_LOG,
        "unset",
        "Path of a JSON-lines file appended to on every *actual* trace "
        'synthesis (`{"pid", "workload", "n_cores", "seed", '
        '"n_instructions"}`) — observability for "did the workers really '
        'load from the store?".',
    ),
    EnvVar(
        REPRO_STRICT_EXPECTATIONS,
        "unset",
        "Set to `1`/`true`/`yes`/`on` to make `repro-experiment` exit "
        "non-zero when any declared paper-expectation verdict fails (same "
        "as `--strict`); `0`/`false`/`no`/`off` or empty leaves it off.  "
        "Case-insensitive; any other value is an error.  CI sets it on the "
        "replication-check step; see [experiments.md](experiments.md) for "
        "the declared bands.",
    ),
)


def render_env_table() -> str:
    """The docs environment table, rendered from the registry.

    ``scripts/gen_env_docs.py`` writes this between the marker comments in
    ``docs/performance.md``; ``tests/unit/test_envvars.py`` recomputes it
    and fails on any difference, so the committed table can never drift
    from the code.
    """
    lines = [
        "| Variable | Default | Meaning |",
        "| --- | --- | --- |",
    ]
    for entry in REGISTRY:
        lines.append(f"| `{entry.name}` | {entry.default} | {entry.description} |")
    return "\n".join(lines)
