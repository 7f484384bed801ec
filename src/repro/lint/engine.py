"""Rule engine of the ``repro.lint`` static-analysis subsystem.

The reproduction's headline numbers are only trustworthy because of a few
repository-wide contracts: the simulator is bit-deterministic, RunSpec
content hashes fully key the on-disk result cache, and every ``REPRO_*``
knob is declared in one registry.  (That results cross the executor's
worker boundary as plain data needs no rule: a worker returns its
disk-cache entry, JSON bytes.)  None of those contracts can be expressed
in a generic linter, so this package checks them with project-specific AST
rules (:mod:`repro.lint.rules`) driven by the small engine defined here.

The engine is deliberately filesystem-only: rules parse source with
:mod:`ast` and never import the modules they inspect, so ``repro.lint``
can run on a broken tree, in CI before the test matrix, and on synthetic
fixture trees in its own unit tests.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence


class LintError(RuntimeError):
    """A rule could not run at all (missing file, unparseable module).

    Distinct from a :class:`Violation`: a violation is a finding in a tree
    the engine understood; a ``LintError`` means the tree is too broken (or
    too unexpected) for the rule to give a verdict.  The CLI reports both
    as failures.
    """


@dataclass(frozen=True)
class Violation:
    """One finding: where, which rule, what is wrong, and how to fix it."""

    rule: str
    path: str  #: project-root-relative POSIX path ("" for project-level findings)
    line: int  #: 1-based line number, 0 for project-level findings
    message: str
    hint: str = ""

    def format(self) -> str:
        location = self.path or "<project>"
        if self.line:
            location += f":{self.line}"
        text = f"{location}: [{self.rule}] {self.message}"
        if self.hint:
            text += f"\n    fix: {self.hint}"
        return text


class Project:
    """Read-only view of one repository checkout, with cached parses.

    All paths handed to rules are project-root-relative POSIX strings, so
    violations and allowlists are stable regardless of where the checkout
    lives (the unit tests lint fixture trees under ``tmp_path``).
    """

    def __init__(self, root) -> None:
        self.root = Path(root).resolve()
        self._sources: Dict[str, str] = {}
        self._trees: Dict[str, ast.Module] = {}
        self._facts: Dict[str, Dict[str, Any]] = {}

    def path(self, rel: str) -> Path:
        return self.root / rel

    def exists(self, rel: str) -> bool:
        return self.path(rel).is_file()

    def source(self, rel: str) -> str:
        """Return the file's text (newline-normalized, cached)."""
        cached = self._sources.get(rel)
        if cached is None:
            try:
                raw = self.path(rel).read_text(encoding="utf-8")
            except OSError as error:
                raise LintError(f"cannot read {rel}: {error}") from None
            cached = raw.replace("\r\n", "\n")
            self._sources[rel] = cached
        return cached

    def tree(self, rel: str) -> ast.Module:
        """Return the file's parsed AST (cached)."""
        cached = self._trees.get(rel)
        if cached is None:
            try:
                cached = ast.parse(self.source(rel), filename=rel)
            except SyntaxError as error:
                raise LintError(f"cannot parse {rel}: {error}") from None
            self._trees[rel] = cached
        return cached

    def facts(self, rel: str) -> Dict[str, Any]:
        """Per-file analysis facts (:mod:`repro.lint.dataflow`), cached."""
        cached = self._facts.get(rel)
        if cached is None:
            from repro.lint.dataflow import analyze_module

            cached = analyze_module(self.tree(rel))
            self._facts[rel] = cached
        return cached

    def iter_python(self, rel_dir: str) -> List[str]:
        """Sorted relative paths of every ``*.py`` file under *rel_dir*."""
        base = self.path(rel_dir)
        if not base.is_dir():
            return []
        return sorted(
            found.relative_to(self.root).as_posix() for found in base.rglob("*.py")
        )


class Rule:
    """Base class for one named invariant check.

    Subclasses set :attr:`name` (the short ``R<n>`` id used in reports and
    ``--rules`` selection) and :attr:`title`, and implement :meth:`check`.
    Exceptions are explicit, reviewed data in the rule's own source (R1's
    allowlist), never silent scope carve-outs.
    """

    name = "R?"
    title = ""

    def check(self, project: Project) -> List[Violation]:
        raise NotImplementedError

    def violation(self, path: str, line: int, message: str, hint: str = "") -> Violation:
        return Violation(rule=self.name, path=path, line=line, message=message, hint=hint)


def run_rules(
    project: Project, rules: Sequence[Rule], names: Optional[Sequence[str]] = None
) -> List[Violation]:
    """Run *rules* (optionally filtered to *names*) and merge their findings.

    Unknown names in *names* raise ``LintError`` so a typo in ``--rules``
    can never silently skip a check.
    """
    if names is not None:
        by_name = {rule.name: rule for rule in rules}
        unknown = [name for name in names if name not in by_name]
        if unknown:
            raise LintError(
                f"unknown rule(s) {unknown}; available: {sorted(by_name)}"
            )
        rules = [by_name[name] for name in names]
    violations: List[Violation] = []
    for rule in rules:
        violations.extend(rule.check(project))
    violations.sort(key=lambda entry: (entry.path, entry.line, entry.rule, entry.message))
    return violations


def dotted_name(node: ast.AST) -> Optional[str]:
    """Flatten ``Name``/``Attribute`` chains to ``"a.b.c"`` (else None)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
