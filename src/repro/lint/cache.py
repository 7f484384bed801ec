"""Incremental per-file cache for the shared analysis pass.

The dataflow facts (:mod:`repro.lint.dataflow`) are pure functions of one
file's text, so they cache perfectly: entries are keyed on the SHA-256 of
the file's newline-normalized source plus :data:`~repro.lint.dataflow.
FACTS_VERSION`.  A warm cache turns the live-tree lint run into hash
computations plus a handful of targeted parses (rule R4 reads specific
files), which is what keeps ``python -m repro.lint`` sub-second.

The cache lives at ``.repro-cache/lint-facts.json`` under the project root
(same directory the disk result cache uses, already git-ignored).  It is
strictly an accelerator: corruption, partial writes, version skew, or a
read-only directory all degrade to "analyze again", never to wrong
results or a crash.  Writes go through :class:`repro.util.filestore.EntryDir`,
so a reader sees the old file or the new one, never a partial write.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional

from repro.lint.dataflow import FACTS_VERSION, ModuleFacts
from repro.util.filestore import EntryDir

#: cache location relative to the project root.
CACHE_REL_PATH = ".repro-cache/lint-facts.json"


class FactsCache:
    """Content-hash-keyed store of per-file analysis facts."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._dirty = False
        self._load()

    @classmethod
    def for_root(cls, root: Path) -> "FactsCache":
        return cls(Path(root) / CACHE_REL_PATH)

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(data, dict) or data.get("facts_version") != FACTS_VERSION:
            return  # version skew: start fresh
        entries = data.get("files")
        if isinstance(entries, dict):
            self._entries = {
                rel: entry
                for rel, entry in entries.items()
                if isinstance(entry, dict) and "hash" in entry and "facts" in entry
            }

    def get(self, rel: str, content_hash: str) -> Optional[ModuleFacts]:
        entry = self._entries.get(rel)
        if entry is not None and entry.get("hash") == content_hash:
            facts = entry.get("facts")
            if isinstance(facts, dict):
                return facts
        return None

    def put(self, rel: str, content_hash: str, facts: ModuleFacts) -> None:
        self._entries[rel] = {"hash": content_hash, "facts": facts}
        self._dirty = True

    def save(self) -> None:
        """Atomically persist the cache; an unwritable directory is silently
        ignored (the cache is an accelerator, not a correctness surface)."""
        if not self._dirty:
            return
        payload = {"facts_version": FACTS_VERSION, "files": self._entries}
        store = EntryDir(lambda: self.path.parent, "")
        if store.write(self.path.name, json.dumps(payload).encode("utf-8")):
            self._dirty = False
