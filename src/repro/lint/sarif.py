"""SARIF 2.1.0 serialization of lint findings.

``python -m repro.lint --format sarif`` emits one SARIF run so GitHub
code scanning (and any other SARIF consumer) can annotate violations on
the PR diff.  The document is deliberately minimal but schema-valid:
tool metadata with the full rule inventory, one ``result`` per violation
with a physical location (omitted for project-level findings, whose
``path`` is empty), and the fix-it hint folded into the message text.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.lint.engine import Rule, Violation

SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
SARIF_VERSION = "2.1.0"
TOOL_NAME = "repro.lint"
TOOL_URI = "docs/static_analysis.md"


def _result(violation: Violation, rule_index: Dict[str, int]) -> Dict[str, Any]:
    text = violation.message
    if violation.hint:
        text += f" — fix: {violation.hint}"
    result: Dict[str, Any] = {
        "ruleId": violation.rule,
        "level": "error",
        "message": {"text": text},
    }
    index = rule_index.get(violation.rule)
    if index is not None:
        result["ruleIndex"] = index
    if violation.path:
        physical = {
            "artifactLocation": {"uri": violation.path, "uriBaseId": "SRCROOT"},
            "region": {"startLine": violation.line},
        }
        result["locations"] = [{"physicalLocation": physical}]
    return result


def to_sarif(
    violations: Sequence[Violation], rules: Sequence[Rule]
) -> Dict[str, Any]:
    """One-run SARIF 2.1.0 document for *violations* found by *rules*."""
    rule_index = {rule.name: index for index, rule in enumerate(rules)}
    descriptors: List[Dict[str, Any]] = [
        {
            "id": rule.name,
            "name": type(rule).__name__,
            "shortDescription": {"text": rule.title or rule.name},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in rules
    ]
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "rules": descriptors,
                    }
                },
                "results": [_result(entry, rule_index) for entry in violations],
            }
        ],
    }
