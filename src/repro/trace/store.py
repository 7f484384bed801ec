"""Keyed on-disk store of :class:`~repro.trace.compiled.CompiledTrace` files.

One binary file per ``(workload, seed, core, n_instructions, line_size)``
request key under ``$REPRO_TRACE_DIR`` (default: a ``traces/`` subdirectory
of the result-cache directory), so a sweep compiles each per-core visit
stream once and every later process — pool workers, reruns, other
invocations sharing the directory — loads the packed file instead of
re-running synthesis and lowering.

Robustness contract (shared with :mod:`repro.eval.diskcache` through
:class:`repro.util.filestore.EntryDir`):

- writes are atomic (a same-directory tmp file renamed into place),
  entries are chmod'd world-readable, orphaned tmp files of crashed
  writers are swept, and an unwritable directory degrades to "no store",
  never a crash;
- corrupt or truncated files read as **misses** (the caller recompiles);
  so does a file whose embedded provenance does not match the requested
  key (e.g. a renamed file);
- every file embeds the :func:`~repro.version.code_hash` of the code that
  wrote it, and a file from other code reads as a miss and is overwritten,
  so an edit to synthesis, lowering or the file layout never serves a
  stale trace;
- ``REPRO_TRACE_STORE=0`` disables the store entirely (reads and writes).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from repro.envvars import REPRO_CACHE_DIR, REPRO_TRACE_DIR, REPRO_TRACE_STORE
from repro.trace.compiled import CompiledTrace, CompiledTraceError
from repro.util.filestore import EntryDir
from repro.util.validation import parse_env_flag

#: mirrors :data:`repro.eval.diskcache.DEFAULT_CACHE_DIR` without importing
#: eval from trace (layering).
_DEFAULT_RESULT_CACHE_DIR = ".repro-cache"
_SUBDIR = "traces"

SUFFIX = ".ctrace"


def enabled() -> bool:
    """Is the trace store active?  ``REPRO_TRACE_STORE=0`` opts out."""
    return parse_env_flag(
        REPRO_TRACE_STORE, os.environ.get(REPRO_TRACE_STORE), default=True
    )


def trace_dir() -> Path:
    explicit = os.environ.get(REPRO_TRACE_DIR)
    if explicit:
        return Path(explicit)
    cache_root = os.environ.get(REPRO_CACHE_DIR) or _DEFAULT_RESULT_CACHE_DIR
    return Path(cache_root) / _SUBDIR


_ENTRIES = EntryDir(trace_dir, SUFFIX)


def _key(workload: str, seed: int, core: int, n_instructions: int, line_size: int) -> str:
    """Entry name of one request key (workload names are identifiers)."""
    return f"{workload}-s{seed}-c{core}-n{n_instructions}-l{line_size}"


def path_for(
    workload: str, seed: int, core: int, n_instructions: int, line_size: int
) -> Path:
    """Store path for one request key."""
    return _ENTRIES.path(_key(workload, seed, core, n_instructions, line_size))


def load(
    workload: str, seed: int, core: int, n_instructions: int, line_size: int
) -> Optional[CompiledTrace]:
    """Return the stored compiled trace for a key, or None (a miss).

    Disabled store, missing file, a file from other code, corruption and
    provenance mismatches all read as misses; the store never raises on a
    bad entry.
    """
    if not enabled():
        return None
    blob = _ENTRIES.read(_key(workload, seed, core, n_instructions, line_size))
    if blob is None:
        return None
    try:
        compiled = CompiledTrace.from_bytes(blob)
    except CompiledTraceError:
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
    """Persist one compiled trace under its key; False when disabled/unwritable."""
    if not enabled():
        return False
    key = _key(
        compiled.workload,
        compiled.seed,
        compiled.core,
        compiled.n_instructions,
        compiled.line_size,
    )
    return _ENTRIES.write(key, compiled.to_bytes())


def clear() -> int:
    """Delete every stored trace (and tmp orphans); returns files removed."""
    return _ENTRIES.clear()


def entry_count() -> int:
    """Number of compiled traces currently stored."""
    return _ENTRIES.entry_count()
