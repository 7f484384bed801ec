"""R6 per C unit: a pair's counterpart may name one unit of the jit kernel.

The kernel lives in ``src/repro/core/kernel/*.c``, one unit per
component.  A unit counterpart is fingerprinted by its file content, so
editing one family's unit stales only the pairs naming that unit, and a
reference edit whose unit stood still is reported as divergence naming
the unit.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import jitted
from repro.lint import manifest as manifest_mod
from repro.lint.engine import Project
from repro.lint.rules import BackendDriftRule
from tests.unit.conftest import write_tree_file

ENGINE_C = "src/repro/core/kernel/engine.c"
BRANCH_C = "src/repro/core/kernel/branch.c"
FDP = "src/repro/prefetch/fdp.py"

PAIRS = (
    manifest_mod.Pair("src/repro/core/engine.py", "CoreEngine._process_visit", ENGINE_C),
    manifest_mod.Pair(FDP, "FetchDirectedPrefetcher._run_ahead", BRANCH_C),
    manifest_mod.Pair(FDP, "FetchDirectedPrefetcher.on_demand_fetch", BRANCH_C),
)

ENGINE_PY = """
    class CoreEngine:
        def _process_visit(self, visit):
            return visit + 1
    """

FDP_V1 = """
    class FetchDirectedPrefetcher:
        def on_demand_fetch(self, line, was_miss, first_use, kind):
            return self._run_ahead(line)

        def _run_ahead(self, line):
            return [line + 1]
    """

FDP_V2 = FDP_V1.replace("line + 1", "line + 2")

JITTED = """
    def kernel_source():
        return ""
    """

ENGINE_C_V1 = "static void process_visit(void) { }\n"
BRANCH_C_V1 = "static long fdp_run_ahead(long line) { return line + 1; }\n"
BRANCH_C_V2 = BRANCH_C_V1.replace("line + 1", "line + 2")


def rule() -> BackendDriftRule:
    return BackendDriftRule(pairs=PAIRS)


@pytest.fixture
def unit_tree(lint_tree, monkeypatch):
    monkeypatch.setattr(manifest_mod, "PAIRS", PAIRS)
    return lint_tree(
        {
            "src/repro/core/engine.py": ENGINE_PY,
            FDP: FDP_V1,
            manifest_mod.JITTED_MODULE: JITTED,
            ENGINE_C: ENGINE_C_V1,
            BRANCH_C: BRANCH_C_V1,
        }
    )


def test_clean_tree_passes(unit_tree):
    assert rule().check(unit_tree) == []


def test_unit_fingerprint_is_its_content_hash(unit_tree):
    fingerprints = manifest_mod.pair_fingerprints(unit_tree)
    sides = fingerprints[manifest_mod.pair_id(PAIRS[0])]
    assert sides["jit"] == unit_tree.content_hash(ENGINE_C)


def test_unit_edit_stales_only_its_own_pairs(unit_tree):
    project = write_tree_file(unit_tree.root, BRANCH_C, BRANCH_C_V2)
    violations = rule().check(project)
    # Both fdp pairs name branch.c: one stale finding for the unit, none
    # for engine.c or the untouched reference side.
    assert [v.path for v in violations] == [BRANCH_C]
    assert "stale in the manifest" in violations[0].message
    manifest_mod.update_manifest(project)
    assert rule().check(Project(project.root)) == []


def test_reference_edit_without_its_unit_names_the_unit(unit_tree):
    project = write_tree_file(unit_tree.root, FDP, FDP_V2)
    violations = rule().check(project)
    assert len(violations) == 1
    finding = violations[0]
    assert finding.path == FDP
    assert "'FetchDirectedPrefetcher._run_ahead'" in finding.message
    assert f"jit counterpart {BRANCH_C!r}" in finding.message
    assert f"port the change into {BRANCH_C} " in finding.hint


def test_reference_and_unit_edited_together_is_stale_only(unit_tree):
    project = write_tree_file(unit_tree.root, FDP, FDP_V2)
    project = write_tree_file(project.root, BRANCH_C, BRANCH_C_V2)
    violations = rule().check(project)
    assert {v.path for v in violations} == {FDP, BRANCH_C}
    assert all("stale in the manifest" in v.message for v in violations)


def test_missing_unit_is_reported(unit_tree):
    (unit_tree.root / ENGINE_C).unlink()
    violations = rule().check(Project(unit_tree.root))
    assert len(violations) == 1
    assert violations[0].path == ENGINE_C
    assert "is missing" in violations[0].message


def test_real_pairs_cover_every_kernel_unit():
    """Each unit of the assembled kernel twins at least one reference hot
    path, and every unit counterpart in PAIRS is a unit of the kernel."""
    root = Path(__file__).resolve().parents[2]
    project = Project(root)
    units = {
        pair.jit_qualname
        for pair in manifest_mod.PAIRS
        if pair.jit_qualname is not None and manifest_mod.is_c_unit(pair.jit_qualname)
    }
    kernel = {
        (jitted.KERNEL_DIR / name).relative_to(root).as_posix()
        for name in jitted.KERNEL_UNITS
    }
    assert units == kernel
    assert all(project.exists(unit) for unit in units)
