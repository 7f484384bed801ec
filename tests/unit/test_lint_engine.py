"""Engine plumbing, the ``python -m repro.lint`` CLI, and the live-tree
acceptance check (the actual repository must lint clean)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.cli import find_project_root, main
from repro.lint.engine import LintError, Project, Violation, run_rules
from repro.lint.rules import default_rules

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_violation_format_variants():
    full = Violation(rule="R1", path="src/x.py", line=3, message="bad", hint="fix it")
    assert full.format() == "src/x.py:3: [R1] bad\n    fix: fix it"
    project_level = Violation(rule="R7", path="", line=0, message="missing")
    assert project_level.format() == "<project>: [R7] missing"


def test_project_source_normalizes_newlines(tmp_path):
    (tmp_path / "mod.py").write_bytes(b"a = 1\r\nb = 2\r\n")
    assert Project(tmp_path).source("mod.py") == "a = 1\nb = 2\n"


def test_project_missing_file_raises(tmp_path):
    with pytest.raises(LintError, match="cannot read"):
        Project(tmp_path).source("nope.py")


def test_run_rules_rejects_unknown_names(lint_tree):
    with pytest.raises(LintError, match="unknown rule"):
        run_rules(lint_tree(), default_rules(), names=["R1", "R99"])


def test_run_rules_name_filter_runs_subset(lint_tree):
    # Tree with an R1 violation only: selecting R7 alone must stay clean.
    project = lint_tree({"src/repro/core/walker.py": "import random\n"})
    assert run_rules(project, default_rules(), names=["R7"]) == []
    assert run_rules(project, default_rules(), names=["R1"]) != []


def test_find_project_root_walks_upwards(lint_tree):
    project = lint_tree()
    nested = project.path("src/repro/core")
    assert find_project_root(str(nested)) == project.root
    with pytest.raises(LintError, match="no project root"):
        find_project_root("/")


def test_cli_clean_tree_exits_zero(lint_tree, capsys):
    project = lint_tree()
    assert main(["--root", str(project.root)]) == 0
    assert "repro.lint: OK" in capsys.readouterr().out


def test_cli_violations_exit_one_with_hints(lint_tree, capsys):
    project = lint_tree({"src/repro/core/walker.py": "import random\n"})
    assert main(["--root", str(project.root)]) == 1
    out = capsys.readouterr().out
    assert "[R1]" in out
    assert "fix:" in out
    assert "violation(s)" in out


def test_cli_rules_subset(lint_tree, capsys):
    project = lint_tree({"src/repro/core/walker.py": "import random\n"})
    assert main(["--root", str(project.root), "--rules", "R7,R8"]) == 0
    assert main(["--root", str(project.root), "--rules", "R1"]) == 1
    capsys.readouterr()


def test_cli_unknown_rule_fails(lint_tree, capsys):
    project = lint_tree()
    assert main(["--root", str(project.root), "--rules", "R99"]) == 1
    assert "unknown rule" in capsys.readouterr().err
    # R2 (behavior manifest), R3 (RunSpec sync), R4 (executor boundary),
    # R5 (catalog sync) and R6 (backend drift) were retired; their names
    # are not reused.
    for retired in ("R2", "R3"):
        assert main(["--root", str(project.root), "--rules", retired]) == 1
        assert f"unknown rule(s) ['{retired}']" in capsys.readouterr().err
    assert main(["--root", str(project.root), "--rules", "R4"]) == 1
    assert "unknown rule(s) ['R4']" in capsys.readouterr().err
    assert main(["--root", str(project.root), "--rules", "R5"]) == 1
    assert "unknown rule(s) ['R5']" in capsys.readouterr().err
    assert main(["--root", str(project.root), "--rules", "R6"]) == 1
    assert "unknown rule(s) ['R6']" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == ["R1", "R7", "R8"]


def test_cli_bad_root_exits_two(tmp_path, capsys):
    assert main(["--root", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err


def test_real_repository_lints_clean():
    """Acceptance: `python -m repro.lint` passes on the tree."""
    violations = run_rules(Project(REPO_ROOT), default_rules())
    assert violations == [], "\n".join(v.format() for v in violations)
