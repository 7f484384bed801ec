"""CLI surface of the analysis framework: SARIF output, file scoping and
``--output``.

Exit-code basics (clean/violation/usage, ``--rules``, ``--list-rules``)
live in ``test_lint_engine.py``; this file covers everything added with the
shared-analysis framework.
"""

from __future__ import annotations

import json

import pytest

from repro.lint.cli import main
from tests.unit.test_lint_env_registry import READER_MODULE

R1_VIOLATION = {"src/repro/core/walker.py": "import random\n"}

#: enough of the SARIF 2.1.0 shape to catch structural regressions; the
#: full OASIS schema needs a network fetch, so validation is best-effort
#: (skipped when jsonschema is not installed).
SARIF_MIN_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "message"],
                            "properties": {
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                }
                            },
                        },
                    },
                },
            },
        },
    },
}


def read_sarif(path):
    return json.loads(path.read_text(encoding="utf-8"))


# --------------------------------------------------------------------- #
# SARIF
# --------------------------------------------------------------------- #


def test_sarif_reports_violations_with_locations(lint_tree, tmp_path):
    project = lint_tree(R1_VIOLATION)
    out = tmp_path / "lint.sarif"
    code = main(
        ["--root", str(project.root), "--format", "sarif", "--output", str(out)]
    )
    assert code == 1
    document = read_sarif(out)
    assert document["version"] == "2.1.0"
    assert document["$schema"].endswith("sarif-schema-2.1.0.json")
    (run,) = document["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro.lint"
    assert [rule["id"] for rule in driver["rules"]] == ["R1", "R7", "R8"]
    results = run["results"]
    assert results, "the R1 violation must appear as a result"
    for result in results:
        assert result["level"] == "error"
        assert result["message"]["text"]
        assert driver["rules"][result["ruleIndex"]]["id"] == result["ruleId"]
    r1 = next(r for r in results if r["ruleId"] == "R1")
    location = r1["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/repro/core/walker.py"
    assert location["artifactLocation"]["uriBaseId"] == "SRCROOT"
    assert location["region"]["startLine"] >= 1


def test_sarif_clean_tree_exits_zero_with_empty_results(lint_tree, tmp_path):
    project = lint_tree()
    out = tmp_path / "lint.sarif"
    code = main(
        ["--root", str(project.root), "--format", "sarif", "--output", str(out)]
    )
    assert code == 0
    assert read_sarif(out)["runs"][0]["results"] == []


def test_sarif_location_shapes_for_file_and_project_findings(
    lint_tree, tmp_path
):
    # A tree producing both location shapes at once: a line-level finding
    # (undeclared REPRO read) and a project-level one (missing registry →
    # no locations at all).  No rule reports a file-level finding.
    project = lint_tree(
        {
            READER_MODULE: """
                import os

                def read():
                    return os.environ.get("REPRO_JOBS")
                """,
        },
    )
    out = tmp_path / "lint.sarif"
    assert (
        main(
            [
                "--root",
                str(project.root),
                "--format",
                "sarif",
                "--output",
                str(out),
            ]
        )
        == 1
    )
    results = read_sarif(out)["runs"][0]["results"]
    by_shape = {"line": 0, "project": 0}
    for result in results:
        locations = result.get("locations")
        if locations is None:
            by_shape["project"] += 1
            continue
        physical = locations[0]["physicalLocation"]
        assert physical["region"]["startLine"] >= 1
        by_shape["line"] += 1
    assert all(count > 0 for count in by_shape.values()), by_shape


def test_sarif_validates_against_minimal_schema(lint_tree, tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    project = lint_tree(R1_VIOLATION)
    out = tmp_path / "lint.sarif"
    main(["--root", str(project.root), "--format", "sarif", "--output", str(out)])
    jsonschema.validate(read_sarif(out), SARIF_MIN_SCHEMA)


# --------------------------------------------------------------------- #
# file scoping
# --------------------------------------------------------------------- #


def test_report_scoping_filters_clean_files_to_exit_zero(lint_tree, capsys):
    project = lint_tree(R1_VIOLATION)
    clean_file = project.path("src/repro/core/engine.py")
    assert main(["--root", str(project.root), str(clean_file)]) == 0
    assert main(["--root", str(project.root)]) == 1
    capsys.readouterr()


def test_file_outside_the_root_is_an_error(lint_tree, tmp_path, capsys):
    project = lint_tree()  # rooted at tmp_path itself
    stray = tmp_path.parent / f"{tmp_path.name}_stray.py"
    stray.write_text("x = 1\n", encoding="utf-8")
    assert main(["--root", str(project.root), str(stray)]) == 1
    assert "outside the project root" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# odds and ends
# --------------------------------------------------------------------- #


def test_broken_tree_reports_a_parse_error(lint_tree, capsys):
    project = lint_tree({"src/repro/core/broken.py": "def broken(:\n"})
    assert main(["--root", str(project.root)]) == 1
    assert "cannot parse" in capsys.readouterr().err


def test_text_output_goes_to_the_named_file(lint_tree, tmp_path):
    project = lint_tree()
    out = tmp_path / "report.txt"
    assert main(["--root", str(project.root), "--output", str(out)]) == 0
    assert "repro.lint: OK" in out.read_text(encoding="utf-8")


def test_a_run_writes_no_file(lint_tree):
    project = lint_tree(R1_VIOLATION)
    before = sorted(project.root.rglob("*"))
    assert main(["--root", str(project.root)]) == 1
    assert sorted(project.root.rglob("*")) == before
