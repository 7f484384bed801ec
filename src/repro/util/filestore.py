"""A directory of whole-file entries, written atomically and read leniently.

The persistent result cache (:mod:`repro.eval.diskcache`), the
compiled-trace store (:mod:`repro.trace.store`), the compiled C objects
(:mod:`repro.util.ccompile`) and the ingested external traces
(:mod:`repro.trace.ingest`) each keep one file per key in a directory that
concurrent processes share.  :class:`EntryDir` is their common mechanics,
and the only code in the package that writes through a tmp file and a
rename:

- a write goes to a same-directory ``*.tmp`` file (``mkstemp``), is chmod'd
  to :data:`ENTRY_MODE` so a shared directory stays readable by other
  users, and is renamed into place with ``os.replace``: a reader sees the
  old entry or the new one, never a partial file;
- an unwritable directory degrades to "no store" (the write returns
  False), never a crash, and a missing or unreadable entry reads as None;
- the first write into a directory in a process sweeps ``*.tmp`` orphans
  older than :data:`TMP_MAX_AGE_SECONDS` that a crashed writer left.

Validating an entry's content (format, code hash, provenance) stays with
each store.  The directory is resolved on every call, so it follows the
environment variables that name it.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Callable, Optional, Set

#: a ``*.tmp`` file older than this is an orphan from a crashed writer
#: (live tmp files exist only for the instant between mkstemp and rename).
TMP_MAX_AGE_SECONDS = 3600.0

#: entries are written via ``mkstemp`` (mode 0600); chmod to this so a
#: shared directory stays readable by other users.
ENTRY_MODE = 0o644

TMP_SUFFIX = ".tmp"


class EntryDir:
    """Entries named ``<key><suffix>`` in the directory *locate* returns."""

    def __init__(self, locate: Callable[[], Path], suffix: str) -> None:
        self.locate = locate
        self.suffix = suffix
        #: directories already swept for stale tmp files in this process.
        self._swept: Set[str] = set()

    def path(self, key: str) -> Path:
        return self.locate() / f"{key}{self.suffix}"

    def read(self, key: str) -> Optional[bytes]:
        """The entry's bytes, or None when it is missing or unreadable."""
        try:
            return self.path(key).read_bytes()
        except OSError:
            return None

    def write(self, key: str, data: bytes) -> bool:
        """Atomically (re)place one entry; False when the directory is unwritable."""
        directory = self.locate()
        try:
            directory.mkdir(parents=True, exist_ok=True)
            if str(directory) not in self._swept:
                # Bounded to once per process per directory, so writes stay
                # O(1) in the number of entries.
                self._swept.add(str(directory))
                self.sweep_stale_tmp()
            fd, tmp_name = tempfile.mkstemp(dir=str(directory), suffix=TMP_SUFFIX)
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.chmod(tmp_name, ENTRY_MODE)
                os.replace(tmp_name, directory / f"{key}{self.suffix}")
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True

    def sweep_stale_tmp(self, max_age_seconds: float = TMP_MAX_AGE_SECONDS) -> int:
        """Remove ``*.tmp`` orphans older than *max_age_seconds* (0: all).

        A concurrent writer's live tmp file is younger and survives.
        Returns the number of files removed.
        """
        from repro.util import clock

        cutoff = clock.now() - max_age_seconds
        return self._unlink(
            TMP_SUFFIX,
            lambda path: max_age_seconds <= 0 or path.stat().st_mtime <= cutoff,
        )

    def clear(self) -> int:
        """Delete every entry and every tmp orphan; returns files removed."""
        return self._unlink(self.suffix) + self._unlink(TMP_SUFFIX)

    def entry_count(self) -> int:
        directory = self.locate()
        if not directory.is_dir():
            return 0
        return sum(1 for _ in directory.glob(f"*{self.suffix}"))

    def _unlink(
        self, suffix: str, should: Callable[[Path], bool] = lambda path: True
    ) -> int:
        directory = self.locate()
        removed = 0
        if not directory.is_dir():
            return 0
        for path in directory.glob(f"*{suffix}"):
            try:
                if should(path):
                    path.unlink()
                    removed += 1
            except OSError:
                pass
        return removed
