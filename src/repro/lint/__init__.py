"""AST-based invariant checker for determinism, cache-safety and executor
boundaries.

See ``docs/static_analysis.md`` for the rule catalogue (R1–R4, R7, R8),
the behavior-manifest workflow, the ``repro.envvars`` registry R7
enforces, autofixes, SARIF output, and how to allowlist a legitimate
exception.
"""

from repro.lint.engine import (
    Fix,
    LintError,
    Project,
    Rule,
    TextEdit,
    Violation,
    run_rules,
)
from repro.lint.rules import (
    BehaviorManifestRule,
    DeterminismRule,
    DeterminismTaintRule,
    EnvRegistryRule,
    ExecutorBoundaryRule,
    RunSpecSyncRule,
    default_rules,
)

__all__ = [
    "BehaviorManifestRule",
    "DeterminismRule",
    "DeterminismTaintRule",
    "EnvRegistryRule",
    "ExecutorBoundaryRule",
    "Fix",
    "LintError",
    "Project",
    "Rule",
    "RunSpecSyncRule",
    "TextEdit",
    "Violation",
    "default_rules",
    "run_rules",
]
