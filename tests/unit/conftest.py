"""Shared fixtures for the ``repro.lint`` unit tests.

``lint_tree`` builds a minimal project checkout under ``tmp_path`` and
returns a :class:`repro.lint.engine.Project` rooted there.  Tests seed
violations by overriding individual files, and "apply the fix-it hint" by
overriding them again with the repaired source.
"""

from __future__ import annotations

import textwrap
from typing import Dict, Optional

import pytest

from repro.lint.engine import Project

#: the smallest tree on which every default rule runs and passes.
BASE_FILES: Dict[str, str] = {
    "src/repro/__init__.py": "",
    "src/repro/core/engine.py": """
        def step(state):
            return state + 1
        """,
}


def write_tree_file(root, rel: str, content: str) -> Project:
    """(Over)write one file and return a fresh Project (parses are cached)."""
    target = root / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(content), encoding="utf-8")
    return Project(root)


@pytest.fixture
def lint_tree(tmp_path):
    """Factory: build the base fixture tree and apply overrides."""

    def build(overrides: Optional[Dict[str, str]] = None) -> Project:
        files = dict(BASE_FILES)
        files.update(overrides or {})
        for rel, content in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(content), encoding="utf-8")
        return Project(tmp_path)

    return build
