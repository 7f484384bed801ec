"""R2 hashes C units too: the compiled trace synthesizer writes trace bytes.

An edit to ``trace/synth/native.c`` can change every compiled trace, so it
must freeze against ``TRACE_SCHEMA_VERSION`` exactly like an edit to the
Python synthesizer it transcribes.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import manifest as manifest_mod
from repro.lint.engine import Project
from repro.lint.rules import BehaviorManifestRule
from tests.unit.conftest import write_tree_file
from tests.unit.test_lint_manifest import (
    DISKCACHE_SCHEMA_2,
    TRACE_COMPILED_V2,
    TRACE_OVERRIDES,
)

NATIVE_C = "src/repro/trace/synth/native.c"

NATIVE_V1 = """
    static int draw(void) { return 4; }
    """

NATIVE_V2 = NATIVE_V1.replace("return 4", "return 5")

ROOT = Path(__file__).resolve().parents[2]


def test_real_tree_hashes_the_synthesizer_unit():
    project = Project(ROOT)
    trace_artifact = manifest_mod.ARTIFACTS[1]
    assert NATIVE_C in manifest_mod.artifact_files(project, trace_artifact)
    assert NATIVE_C in manifest_mod.behavior_files(project)


def test_c_unit_is_recorded_under_both_artifacts(lint_tree):
    project = lint_tree({**TRACE_OVERRIDES, NATIVE_C: NATIVE_V1})
    recorded = manifest_mod.load_manifest(project)
    assert NATIVE_C in recorded["files"]
    assert NATIVE_C in recorded["trace_files"]
    assert BehaviorManifestRule().check(project) == []


def test_c_unit_edit_without_trace_bump_fails(lint_tree):
    project = lint_tree({**TRACE_OVERRIDES, NATIVE_C: NATIVE_V1})
    project = write_tree_file(project.root, NATIVE_C, NATIVE_V2)
    project = write_tree_file(
        project.root, "src/repro/eval/diskcache.py", DISKCACHE_SCHEMA_2
    )
    violations = BehaviorManifestRule().check(project)
    assert len(violations) == 1
    assert violations[0].path == NATIVE_C
    assert "TRACE_SCHEMA_VERSION" in violations[0].message
    assert "bump TRACE_SCHEMA_VERSION" in violations[0].hint


def test_c_unit_edit_with_both_bumps_passes(lint_tree):
    project = lint_tree({**TRACE_OVERRIDES, NATIVE_C: NATIVE_V1})
    project = write_tree_file(project.root, NATIVE_C, NATIVE_V2)
    project = write_tree_file(
        project.root, "src/repro/eval/diskcache.py", DISKCACHE_SCHEMA_2
    )
    project = write_tree_file(
        project.root, "src/repro/trace/compiled.py", TRACE_COMPILED_V2
    )
    assert BehaviorManifestRule().check(project) == []


def test_new_c_unit_without_refresh_fails(lint_tree):
    project = lint_tree(TRACE_OVERRIDES)
    project = write_tree_file(project.root, NATIVE_C, NATIVE_V1)
    violations = BehaviorManifestRule().check(project)
    assert [violation.path for violation in violations] == [NATIVE_C]
