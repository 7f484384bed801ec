"""Regenerate the ``REPRO_*`` environment table in docs/performance.md.

The table between the marker comments is rendered from the single source
of truth, :data:`repro.envvars.REGISTRY`; ``tests/unit/test_envvars.py``
fails whenever the committed block differs from the rendered one, so this
script is the only sanctioned way to edit it.

Run from the repository root::

    PYTHONPATH=src python scripts/gen_env_docs.py
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Tuple

from repro.envvars import render_env_table

DOCS_PATH = "docs/performance.md"
TABLE_BEGIN = (
    "<!-- BEGIN REPRO ENV TABLE "
    "(generated: scripts/gen_env_docs.py; checked: tests/unit/test_envvars.py) -->"
)
TABLE_END = "<!-- END REPRO ENV TABLE -->"


def table_span(text: str) -> Tuple[int, int]:
    """``(begin, end)`` offsets of the marked block in *text*: *begin* at the
    start of the begin marker, *end* just past the end marker."""
    begin = text.find(TABLE_BEGIN)
    end = text.find(TABLE_END)
    if begin == -1 or end == -1 or end < begin:
        raise ValueError(
            f"{DOCS_PATH}: marker comments not found; add\n"
            f"  {TABLE_BEGIN}\n  {TABLE_END}\n"
            "around the environment table first"
        )
    return begin, end + len(TABLE_END)


def render_block() -> str:
    return f"{TABLE_BEGIN}\n{render_env_table()}\n{TABLE_END}"


def regenerate(root: Path) -> bool:
    """Rewrite the marked block; returns True when the file changed."""
    docs = root / DOCS_PATH
    text = docs.read_text(encoding="utf-8")
    try:
        begin, end = table_span(text)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    updated = text[:begin] + render_block() + text[end:]
    if updated == text:
        return False
    docs.write_text(updated, encoding="utf-8")
    return True


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    changed = regenerate(root)
    print(f"{DOCS_PATH}: {'table regenerated' if changed else 'already in sync'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
