"""Keyed on-disk store of :class:`~repro.trace.compiled.CompiledTrace` files.

One binary file per ``(workload, seed, core, n_instructions, line_size)``
request key under ``$REPRO_TRACE_DIR`` (default: a ``traces/`` subdirectory
of the result-cache directory), so a sweep compiles each per-core visit
stream once and every later process — pool workers, reruns, other
invocations sharing the directory — loads the packed file instead of
re-running synthesis and lowering.

Robustness contract (mirrors :mod:`repro.eval.diskcache`):

- writes are atomic (same-directory tmp file + ``os.replace``), entries are
  chmod'd world-readable, and an unwritable directory degrades to "no
  store", never a crash;
- corrupt, truncated or stale-schema files read as **misses** (the caller
  recompiles); so does a file whose embedded provenance does not match the
  requested key (e.g. a renamed file);
- ``REPRO_TRACE_STORE=0`` disables the store entirely (reads and writes).

Invalidation is by :data:`~repro.trace.compiled.TRACE_SCHEMA_VERSION`,
which every file embeds — lint rule R2 pins the trace-affecting modules to
that constant (see ``docs/static_analysis.md``).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Optional

from repro.envvars import REPRO_CACHE_DIR, REPRO_TRACE_DIR, REPRO_TRACE_STORE
from repro.trace.compiled import CompiledTrace, CompiledTraceError
from repro.util.validation import parse_env_flag

TRACE_DIR_ENV = REPRO_TRACE_DIR
DISABLE_ENV = REPRO_TRACE_STORE

#: mirrors :data:`repro.eval.diskcache.CACHE_DIR_ENV` / ``DEFAULT_CACHE_DIR``
#: without importing eval from trace (layering — both alias constants from
#: the shared top-level :mod:`repro.envvars` registry).
_RESULT_CACHE_DIR_ENV = REPRO_CACHE_DIR
_DEFAULT_RESULT_CACHE_DIR = ".repro-cache"
_SUBDIR = "traces"

#: entries are written via ``mkstemp`` (mode 0600); chmod so a shared
#: store directory stays readable by other users.
ENTRY_MODE = 0o644

SUFFIX = ".ctrace"


def enabled() -> bool:
    """Is the trace store active?  ``REPRO_TRACE_STORE=0`` opts out."""
    return parse_env_flag(DISABLE_ENV, os.environ.get(DISABLE_ENV), default=True)


def trace_dir() -> Path:
    explicit = os.environ.get(TRACE_DIR_ENV)
    if explicit:
        return Path(explicit)
    cache_root = os.environ.get(_RESULT_CACHE_DIR_ENV) or _DEFAULT_RESULT_CACHE_DIR
    return Path(cache_root) / _SUBDIR


def path_for(
    workload: str, seed: int, core: int, n_instructions: int, line_size: int
) -> Path:
    """Store path for one request key (workload names are identifiers)."""
    return trace_dir() / (
        f"{workload}-s{seed}-c{core}-n{n_instructions}-l{line_size}{SUFFIX}"
    )


def load(
    workload: str, seed: int, core: int, n_instructions: int, line_size: int
) -> Optional[CompiledTrace]:
    """Return the stored compiled trace for a key, or None (a miss).

    Disabled store, missing file, stale schema, corruption and provenance
    mismatches all read as misses; the store never raises on a bad entry.
    """
    if not enabled():
        return None
    path = path_for(workload, seed, core, n_instructions, line_size)
    try:
        blob = path.read_bytes()
        compiled = CompiledTrace.from_bytes(blob)
    except (OSError, CompiledTraceError):
        return None
    if (
        compiled.workload != workload
        or compiled.seed != seed
        or compiled.core != core
        or compiled.n_instructions != n_instructions
        or compiled.line_size != line_size
    ):
        # The file is internally consistent but filed under the wrong key
        # (e.g. renamed by hand); never serve it for this request.
        return None
    return compiled


def store(compiled: CompiledTrace) -> bool:
    """Persist one compiled trace under its key; False when disabled/unwritable.

    Atomic tmp-file + rename, so concurrent sweeps can share a directory
    without readers ever seeing a partial file.
    """
    if not enabled():
        return False
    directory = trace_dir()
    target = path_for(
        compiled.workload,
        compiled.seed,
        compiled.core,
        compiled.n_instructions,
        compiled.line_size,
    )
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(directory), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(compiled.to_bytes())
            os.chmod(tmp_name, ENTRY_MODE)
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError:
        # An unwritable store degrades to "no store", not a crash.
        return False
    return True


def clear() -> int:
    """Delete every stored trace (and tmp orphans); returns files removed."""
    directory = trace_dir()
    removed = 0
    if directory.is_dir():
        for pattern in (f"*{SUFFIX}", "*.tmp"):
            for path in directory.glob(pattern):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
    return removed


def entry_count() -> int:
    """Number of compiled traces currently stored."""
    directory = trace_dir()
    if not directory.is_dir():
        return 0
    return sum(1 for _ in directory.glob(f"*{SUFFIX}"))
