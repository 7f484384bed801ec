"""``python -m repro.lint`` — check the tree.

Exit codes: 0 clean, 1 violations (or a rule that could not run), 2 usage
errors.  CI runs the bare form as a gate in front of the test matrix.

Usage::

    python -m repro.lint                  # run every rule on the repo
    python -m repro.lint --rules R1,R7    # subset
    python -m repro.lint --list-rules
    python -m repro.lint --format sarif --output lint.sarif
    python -m repro.lint src/repro/core/engine.py   # scope the report

Every run parses the tree afresh and writes nothing but its report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.engine import LintError, Project, run_rules
from repro.lint.rules import default_rules
from repro.lint.sarif import to_sarif


def find_project_root(start: Optional[str] = None) -> Path:
    """Nearest ancestor of *start* (default: cwd) containing ``src/repro``."""
    current = Path(start or ".").resolve()
    for candidate in [current, *current.parents]:
        if (candidate / "src" / "repro").is_dir():
            return candidate
    raise LintError(
        f"no project root (directory containing src/repro) at or above {current}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based invariant checker for the reproduction: determinism "
            "(R1), env registry (R7) and determinism taint (R8)."
        ),
    )
    parser.add_argument(
        "files",
        nargs="*",
        help="optional file paths: rules still run on the whole tree, but "
        "the report is scoped to these files plus project-level findings "
        "— what pre-commit passes",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="project root (default: nearest ancestor of cwd with src/repro)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="R1,R7,...",
        help="comma-separated subset of rules to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list available rules and exit"
    )
    parser.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="report format (sarif: one SARIF 2.1.0 run for code scanning)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    return parser


def _relative_paths(project: Project, files: List[str]) -> List[str]:
    """Normalize CLI file arguments to project-root-relative POSIX paths."""
    out: List[str] = []
    for entry in files:
        path = Path(entry)
        if not path.is_absolute():
            path = Path.cwd() / path
        try:
            rel = path.resolve().relative_to(project.root).as_posix()
        except ValueError:
            raise LintError(f"{entry} is outside the project root {project.root}")
        out.append(rel)
    return out


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        Path(output).write_text(
            text if text.endswith("\n") else text + "\n", encoding="utf-8"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    rules = default_rules()

    if args.list_rules:
        for rule in rules:
            print(f"{rule.name}  {rule.title}")
        return 0

    try:
        root = find_project_root(args.root)
    except LintError as error:
        print(f"repro.lint: error: {error}", file=sys.stderr)
        return 2
    project = Project(root)

    names = None
    if args.rules:
        names = [name.strip() for name in args.rules.split(",") if name.strip()]
    try:
        scope = _relative_paths(project, args.files)
        violations = run_rules(project, rules, names=names)
    except LintError as error:
        print(f"repro.lint: error: {error}", file=sys.stderr)
        return 1

    if scope:
        keep = set(scope)
        violations = [v for v in violations if not v.path or v.path in keep]

    ran = names if names is not None else [rule.name for rule in rules]
    if args.format == "sarif":
        active = [rule for rule in rules if rule.name in ran]
        document = to_sarif(violations, active)
        _emit(json.dumps(document, indent=2), args.output)
        return 1 if violations else 0

    report_lines: List[str] = [violation.format() for violation in violations]
    if violations:
        report_lines.append(
            f"repro.lint: {len(violations)} violation(s) [{','.join(ran)}]"
        )
        _emit("\n".join(report_lines), args.output)
        return 1
    report_lines.append(f"repro.lint: OK [{','.join(ran)}] (root: {project.root})")
    _emit("\n".join(report_lines), args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
