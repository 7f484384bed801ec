"""R6 (backend drift): fingerprinted reference hot paths must move in
lockstep with their jit counterpart (the C kernel source string).

The tests pin the rule to a single synthetic pair (monkeypatching
``manifest.PAIRS`` so ``update_manifest`` records it) rather than the real
table, so fixture trees need only one tiny engine/jitted module each.
"""

from __future__ import annotations

import pytest

from repro.lint import manifest as manifest_mod
from repro.lint.engine import Project
from repro.lint.rules import BackendDriftRule
from tests.unit.conftest import write_tree_file

PAIR = manifest_mod.Pair(
    ref_module="src/repro/core/engine.py",
    ref_qualname="CoreEngine._process_visit",
    jit_qualname="kernel_source",
)

ENGINE_V1 = """
    class CoreEngine:
        def _process_visit(self, visit):
            return visit + 1
    """

#: structurally identical to ENGINE_V1 — docstring, comment and blank-line
#: churn only, which the fingerprint must ignore.
ENGINE_V1_RESTYLED = '''
    class CoreEngine:

        def _process_visit(self, visit):
            """Process one visit (documentation never moves fingerprints)."""
            # neither do comments or whitespace
            return visit + 1
    '''

ENGINE_V2 = """
    class CoreEngine:
        def _process_visit(self, visit):
            return visit + 2
    """

JIT_V1 = """
    def kernel_source():
        return "void repro_run(void) { }"
    """

JIT_V2 = """
    def kernel_source():
        return "void repro_run(void) { /* changed */ } int x;"
    """


def rule() -> BackendDriftRule:
    return BackendDriftRule(pairs=(PAIR,))


@pytest.fixture
def drift_tree(lint_tree, monkeypatch):
    """Build the base tree with the synthetic pair installed."""

    def build(engine=ENGINE_V1, jitted=JIT_V1, with_manifest=True):
        monkeypatch.setattr(manifest_mod, "PAIRS", (PAIR,))
        overrides = {"src/repro/core/engine.py": engine}
        if jitted is not None:
            overrides[manifest_mod.JITTED_MODULE] = jitted
        return lint_tree(overrides, with_manifest=with_manifest)

    return build


def test_clean_tree_passes(drift_tree):
    assert rule().check(drift_tree()) == []


def test_fingerprints_record_the_jit_side(drift_tree):
    fingerprints = manifest_mod.pair_fingerprints(drift_tree())
    (sides,) = fingerprints.values()
    assert set(sides) == {"ref", "jit"}
    assert sides["ref"] is not None
    assert sides["jit"] is not None


def test_rule_is_inactive_without_the_jit_module(drift_tree):
    project = drift_tree(jitted=None)
    # Even a behavioural reference edit stays silent: fixture trees
    # without backends are out of R6's scope by design.
    project = write_tree_file(project.root, PAIR.ref_module, ENGINE_V2)
    assert rule().check(project) == []


def test_docstring_and_formatting_edits_do_not_drift(drift_tree):
    project = drift_tree()
    project = write_tree_file(project.root, PAIR.ref_module, ENGINE_V1_RESTYLED)
    assert rule().check(project) == []


def test_reference_only_edit_names_both_sites(drift_tree):
    project = drift_tree()
    project = write_tree_file(project.root, PAIR.ref_module, ENGINE_V2)
    violations = rule().check(project)
    assert len(violations) == 1
    finding = violations[0]
    assert finding.path == PAIR.ref_module
    assert finding.line > 0
    assert "'CoreEngine._process_visit'" in finding.message
    assert "jit counterpart 'kernel_source'" in finding.message
    assert "bit-identical" in finding.message
    # the hint names the exact counterpart site and both escape hatches.
    assert f"{manifest_mod.JITTED_MODULE}::{PAIR.jit_qualname}" in finding.hint
    assert "test_backend_parity" in finding.hint
    assert "--update-manifest" in finding.hint


def test_update_manifest_acks_reference_only_drift(drift_tree):
    project = drift_tree()
    project = write_tree_file(project.root, PAIR.ref_module, ENGINE_V2)
    assert rule().check(project) != []
    manifest_mod.update_manifest(project)
    assert rule().check(Project(project.root)) == []


def test_both_sides_edited_reports_stale_fingerprints(drift_tree):
    project = drift_tree()
    project = write_tree_file(project.root, PAIR.ref_module, ENGINE_V2)
    project = write_tree_file(project.root, manifest_mod.JITTED_MODULE, JIT_V2)
    violations = rule().check(project)
    # both moved together: no divergence warning, one stale entry per side.
    assert len(violations) == 2
    assert all("stale in the manifest" in v.message for v in violations)
    assert {v.path for v in violations} == {
        PAIR.ref_module,
        manifest_mod.JITTED_MODULE,
    }
    manifest_mod.update_manifest(project)
    assert rule().check(Project(project.root)) == []


def test_counterpart_only_edit_asks_for_a_refresh(drift_tree):
    project = drift_tree()
    project = write_tree_file(project.root, manifest_mod.JITTED_MODULE, JIT_V2)
    violations = rule().check(project)
    assert len(violations) == 1
    assert violations[0].path == manifest_mod.JITTED_MODULE
    assert "stale in the manifest" in violations[0].message


def test_missing_manifest_is_reported(drift_tree):
    project = drift_tree(with_manifest=False)
    violations = rule().check(project)
    assert len(violations) == 1
    assert violations[0].path == manifest_mod.MANIFEST_PATH
    assert "manifest is missing" in violations[0].message


def test_manifest_without_pairs_section_is_reported(drift_tree):
    # Manifest recorded while the tree had no jit backend; adding the
    # backend afterwards must demand a refresh, not pass silently.
    project = drift_tree(jitted=None)
    project = write_tree_file(project.root, manifest_mod.JITTED_MODULE, JIT_V1)
    violations = rule().check(project)
    assert len(violations) == 1
    assert "no pair-fingerprint section" in violations[0].message
    assert "--update-manifest" in violations[0].hint


def test_missing_reference_function_is_reported(drift_tree):
    project = drift_tree()
    project = write_tree_file(
        project.root,
        PAIR.ref_module,
        """
        class CoreEngine:
            def renamed(self, visit):
                return visit + 1
        """,
    )
    violations = rule().check(project)
    assert len(violations) == 1
    assert violations[0].path == PAIR.ref_module
    assert "'CoreEngine._process_visit'" in violations[0].message
    assert "is missing" in violations[0].message


def test_missing_jit_counterpart_is_reported(drift_tree):
    project = drift_tree(
        jitted="""
        def renamed():
            return ""
        """
    )
    violations = rule().check(project)
    assert len(violations) == 1
    assert violations[0].path == manifest_mod.JITTED_MODULE
    assert "jit counterpart 'kernel_source'" in violations[0].message
    assert "is missing" in violations[0].message


#: Two reference hot paths sharing one jit counterpart, the shape of the
#: real PAIRS table (several pairs name each kernel unit).
SHARED_PAIRS = (
    PAIR,
    manifest_mod.Pair(
        ref_module="src/repro/core/engine.py",
        ref_qualname="CoreEngine._demand_fill",
        jit_qualname="kernel_source",
    ),
)

TWO_PATH_ENGINE_V1 = """
    class CoreEngine:
        def _process_visit(self, visit):
            return visit + 1

        def _demand_fill(self, line):
            return line * 2
    """

TWO_PATH_ENGINE_V2 = """
    class CoreEngine:
        def _process_visit(self, visit):
            return visit + 2

        def _demand_fill(self, line):
            return line * 3
    """


class TestJitCounterpart:
    """Several reference paths share one jit counterpart (the kernel)."""

    def rule(self):
        return BackendDriftRule(pairs=SHARED_PAIRS)

    @pytest.fixture
    def jit_tree(self, lint_tree, monkeypatch):
        def build(engine=TWO_PATH_ENGINE_V1, jitted=JIT_V1):
            monkeypatch.setattr(manifest_mod, "PAIRS", SHARED_PAIRS)
            return lint_tree(
                {
                    "src/repro/core/engine.py": engine,
                    manifest_mod.JITTED_MODULE: jitted,
                }
            )

        return build

    def test_clean_tree_passes(self, jit_tree):
        assert self.rule().check(jit_tree()) == []

    def test_reference_edit_without_either_twin_names_both(self, jit_tree):
        # Only _process_visit moves; the kernel it shares with
        # _demand_fill stands still, so exactly that one pair diverges.
        project = jit_tree()
        edited = TWO_PATH_ENGINE_V1.replace("visit + 1", "visit + 2")
        project = write_tree_file(project.root, PAIR.ref_module, edited)
        violations = self.rule().check(project)
        assert len(violations) == 1
        finding = violations[0]
        assert "'CoreEngine._process_visit'" in finding.message
        assert "_demand_fill" not in finding.message
        assert "jit counterpart 'kernel_source'" in finding.message
        assert f"{manifest_mod.JITTED_MODULE}::kernel_source" in finding.hint

    def test_all_three_sides_moved_is_stale_only(self, jit_tree):
        # Both reference paths and their shared kernel moved together:
        # nothing diverges, and the kernel is reported stale only once.
        project = jit_tree()
        project = write_tree_file(project.root, PAIR.ref_module, TWO_PATH_ENGINE_V2)
        project = write_tree_file(project.root, manifest_mod.JITTED_MODULE, JIT_V2)
        violations = self.rule().check(project)
        assert len(violations) == 3
        assert all("stale in the manifest" in v.message for v in violations)
        assert sum(v.path == manifest_mod.JITTED_MODULE for v in violations) == 1
        manifest_mod.update_manifest(project)
        assert self.rule().check(Project(project.root)) == []

    def test_missing_jit_counterpart_is_reported(self, jit_tree):
        project = jit_tree(
            jitted="""
            def renamed():
                return ""
            """
        )
        violations = self.rule().check(project)
        # one finding per pair, each naming the reference site it serves.
        assert len(violations) == 2
        assert all(v.path == manifest_mod.JITTED_MODULE for v in violations)
        messages = "\n".join(v.message for v in violations)
        assert "CoreEngine._process_visit is missing" in messages
        assert "CoreEngine._demand_fill is missing" in messages


REF_ONLY_PAIR = manifest_mod.Pair(
    ref_module="src/repro/core/engine.py",
    ref_qualname="CoreEngine._process_visit",
)


@pytest.fixture
def ref_only_tree(lint_tree, monkeypatch):
    """Tree whose synthetic pair has no jit counterpart."""

    def build(engine=ENGINE_V1):
        monkeypatch.setattr(manifest_mod, "PAIRS", (REF_ONLY_PAIR,))
        return lint_tree(
            {
                "src/repro/core/engine.py": engine,
                manifest_mod.JITTED_MODULE: JIT_V1,
            }
        )

    return build


class TestReferenceOnlyPairs:
    def rule(self):
        return BackendDriftRule(pairs=(REF_ONLY_PAIR,))

    def test_clean_tree_passes(self, ref_only_tree):
        assert self.rule().check(ref_only_tree()) == []

    def test_drift_is_stale_never_divergent(self, ref_only_tree):
        # A reference-only pair covers code both backends share by
        # inheritance, so an edit can only ever need a manifest refresh —
        # the divergence ("port the change") message must not appear.
        project = ref_only_tree()
        project = write_tree_file(project.root, REF_ONLY_PAIR.ref_module, ENGINE_V2)
        violations = self.rule().check(project)
        assert len(violations) == 1
        assert violations[0].path == REF_ONLY_PAIR.ref_module
        assert "stale in the manifest" in violations[0].message
        assert "--update-manifest" in violations[0].hint

    def test_update_manifest_clears_the_stale_entry(self, ref_only_tree):
        project = ref_only_tree()
        project = write_tree_file(project.root, REF_ONLY_PAIR.ref_module, ENGINE_V2)
        assert self.rule().check(project) != []
        manifest_mod.update_manifest(project)
        assert self.rule().check(Project(project.root)) == []

    def test_fingerprints_record_a_null_jit_side(self, ref_only_tree):
        project = ref_only_tree()
        fingerprints = manifest_mod.pair_fingerprints(project)
        (sides,) = fingerprints.values()
        assert sides["ref"] is not None
        assert sides["jit"] is None

    def test_missing_reference_function_still_reported(self, ref_only_tree):
        project = ref_only_tree()
        project = write_tree_file(
            project.root,
            REF_ONLY_PAIR.ref_module,
            """
            class CoreEngine:
                def renamed(self, visit):
                    return visit + 1
            """,
        )
        violations = self.rule().check(project)
        assert len(violations) == 1
        assert "is missing" in violations[0].message


UNPAIRED_PREFETCHER = """
    class CustomPrefetcher:
        def on_demand_fetch(self, line, was_miss, first_use, kind):
            return []
    """


class TestUnpairedPrefetcherCompleteness:
    def test_unpaired_prefetch_module_fails(self, drift_tree):
        project = drift_tree()
        project = write_tree_file(
            project.root, "src/repro/prefetch/custom.py", UNPAIRED_PREFETCHER
        )
        violations = rule().check(project)
        assert len(violations) == 1
        finding = violations[0]
        assert finding.path == "src/repro/prefetch/custom.py"
        assert "'CustomPrefetcher.on_demand_fetch'" in finding.message
        assert "drift checking" in finding.message
        assert "Pair(" in finding.hint
        assert "--update-manifest" in finding.hint

    def test_fingerprinting_the_hook_satisfies_the_check(
        self, lint_tree, monkeypatch
    ):
        custom_pair = manifest_mod.Pair(
            ref_module="src/repro/prefetch/custom.py",
            ref_qualname="CustomPrefetcher.on_demand_fetch",
        )
        monkeypatch.setattr(manifest_mod, "PAIRS", (PAIR, custom_pair))
        project = lint_tree(
            {
                "src/repro/core/engine.py": ENGINE_V1,
                manifest_mod.JITTED_MODULE: JIT_V1,
                "src/repro/prefetch/custom.py": UNPAIRED_PREFETCHER,
            }
        )
        assert BackendDriftRule(pairs=(PAIR, custom_pair)).check(project) == []

    def test_module_without_demand_hook_is_exempt(self, drift_tree):
        project = drift_tree()
        project = write_tree_file(
            project.root,
            "src/repro/prefetch/util.py",
            """
            def helper(line):
                return line + 1
            """,
        )
        assert rule().check(project) == []

    def test_base_module_is_allowlisted(self, drift_tree):
        project = drift_tree()
        project = write_tree_file(
            project.root,
            "src/repro/prefetch/base.py",
            """
            class Prefetcher:
                def on_demand_fetch(self, line, was_miss, first_use, kind):
                    return []
            """,
        )
        assert rule().check(project) == []


def test_real_pairs_all_point_at_existing_functions():
    """Every entry of the real PAIRS table resolves in the live tree."""
    from pathlib import Path

    project = Project(Path(__file__).resolve().parents[2])
    fingerprints = manifest_mod.pair_fingerprints(project)
    assert len(fingerprints) == len(manifest_mod.PAIRS)
    by_id = {manifest_mod.pair_id(pair): pair for pair in manifest_mod.PAIRS}
    for pair_id, sides in fingerprints.items():
        assert sides["ref"] is not None, f"{pair_id}: reference side missing"
        if by_id[pair_id].jit_qualname is None:
            # No jit counterpart: that backend runs the reference code, so
            # no jit fingerprint exists by construction.
            assert sides["jit"] is None, f"{pair_id}: unexpected jit side"
        else:
            assert sides["jit"] is not None, f"{pair_id}: jit side missing"
