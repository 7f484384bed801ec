"""Single source of truth for the package version and its code identity."""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path

__version__ = "1.0.0"

#: source files whose bytes make up :func:`code_hash`.
_SOURCE_PATTERNS = ("*.py", "*.c", "*.h")


@functools.lru_cache(maxsize=None)
def code_hash() -> str:
    """SHA-256 (hex) over every ``.py``, ``.c`` and ``.h`` file of the package.

    Each file contributes its path relative to the package directory, its
    length and its bytes, in sorted path order.  The persistent result
    cache and the compiled-trace store stamp every entry with this value
    and read an entry from other code as a miss, so an edit anywhere in
    the package can never serve a stale entry.  Computed once per process.
    """
    root = Path(__file__).resolve().parent
    files = sorted(
        (path.relative_to(root).as_posix(), path)
        for pattern in _SOURCE_PATTERNS
        for path in root.rglob(pattern)
    )
    digest = hashlib.sha256()
    for rel, path in files:
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()
