"""The ``repro.envvars`` registry, checked by importing it.

Lint rule R7 checks the read sites statically (every ``REPRO_*`` read goes
through a registry constant).  These tests check the registry itself: each
constant equals its name, constants and ``REGISTRY`` match one to one, and
the committed environment table in ``docs/performance.md`` is the one
``render_env_table()`` renders.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import envvars
from scripts import gen_env_docs

REPO_ROOT = Path(__file__).resolve().parents[2]

REGENERATE = "regenerate with `PYTHONPATH=src python scripts/gen_env_docs.py`"


def registry_constants():
    """Every module attribute of ``repro.envvars`` named like a knob."""
    attributes = vars(envvars).items()
    return {name: value for name, value in attributes if name.startswith("REPRO_")}


def registry_problems():
    """Names declared twice in ``REGISTRY``, and constants and entries
    without a partner; empty when the two match one to one."""
    constants = set(registry_constants())
    names = [entry.name for entry in envvars.REGISTRY]
    twice = {name for name in names if names.count(name) > 1}
    return (
        [f"REGISTRY declares {name!r} twice" for name in sorted(twice)]
        + [
            f"constant {name!r} has no REGISTRY entry"
            for name in sorted(constants - set(names))
        ]
        + [
            f"REGISTRY entry {name!r} has no constant"
            for name in sorted(set(names) - constants)
        ]
    )


def committed_block(root: Path = REPO_ROOT) -> str:
    text = (root / gen_env_docs.DOCS_PATH).read_text(encoding="utf-8")
    begin, end = gen_env_docs.table_span(text)
    return text[begin:end]


def test_each_constant_equals_its_name():
    constants = registry_constants()
    assert constants
    assert {name: name for name in constants} == constants


def test_constants_and_registry_match_one_to_one():
    assert registry_problems() == []


def test_docs_table_matches_registry():
    assert committed_block() == gen_env_docs.render_block(), REGENERATE


def test_an_edited_description_leaves_the_docs_stale(monkeypatch):
    first, *rest = envvars.REGISTRY
    edited = (first._replace(description=first.description + " Edited."), *rest)
    monkeypatch.setattr(envvars, "REGISTRY", edited)
    assert committed_block() != gen_env_docs.render_block()


def test_missing_markers_are_an_error():
    with pytest.raises(ValueError, match="marker comments not found"):
        gen_env_docs.table_span("# Performance\n\nno table here\n")


def test_regenerate_rewrites_only_the_marked_block(tmp_path):
    docs = tmp_path / gen_env_docs.DOCS_PATH
    docs.parent.mkdir(parents=True)
    stale = f"{gen_env_docs.TABLE_BEGIN}\n| stale |\n{gen_env_docs.TABLE_END}"
    docs.write_text(f"# Performance\n\n{stale}\n\nafter\n", encoding="utf-8")
    assert gen_env_docs.regenerate(tmp_path) is True
    assert docs.read_text(encoding="utf-8") == (
        f"# Performance\n\n{gen_env_docs.render_block()}\n\nafter\n"
    )
    assert gen_env_docs.regenerate(tmp_path) is False
