"""Spec-parity golden test for the declarative catalog refactor.

``tests/data/spec_parity_golden.json`` was generated from the
pre-refactor hand-written drivers: for every experiment, the sorted set
of deduplicated :meth:`RunSpec.content_hash` values at smoke scale.  The
catalog declarations must reproduce those sets bit-identically — that is
the proof that the refactor changed how experiments are *expressed*, not
which simulations they run.  Cached results need no attention either way:
the result cache and the trace store stamp every entry with
``repro.version.code_hash()`` and invalidate on any source edit by
themselves.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.eval.catalog import CATALOG
from repro.eval.profiles import get_scale

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "spec_parity_golden.json"


def golden():
    return json.loads(GOLDEN_PATH.read_text())


def hashes_for(name: str, scale) -> list:
    return sorted(spec.content_hash() for spec in CATALOG[name].specs(scale=scale))


def test_golden_covers_exactly_the_catalog():
    assert set(golden()["experiments"]) == set(CATALOG)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_reproduces_golden_spec_hashes(name):
    data = golden()
    scale = get_scale(data["scale"])
    assert hashes_for(name, scale) == sorted(data["experiments"][name]), (
        f"{name}: catalog declaration no longer expands to the pre-refactor "
        "RunSpec set; if the change is intentional, regenerate the golden "
        "file (both caches invalidate on repro.version.code_hash() by themselves)"
    )


def test_fig05_fig06_fig07_share_their_runs():
    """Figures 5, 6 and 7 read the same grid; batch submission dedupes."""
    scale = get_scale(golden()["scale"])
    assert (
        hashes_for("fig05", scale)
        == hashes_for("fig06", scale)
        == hashes_for("fig07", scale)
    )


def test_union_size_is_stable():
    data = golden()
    scale = get_scale(data["scale"])
    union = set()
    for name in CATALOG:
        union.update(hashes_for(name, scale))
    expected = set()
    for hashes in data["experiments"].values():
        expected.update(hashes)
    assert union == expected
    assert len(union) == 440
