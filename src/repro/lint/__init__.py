"""AST-based invariant checker for determinism, executor boundaries and the
environment-variable registry.

See ``docs/static_analysis.md`` for the rule catalogue (R1, R4, R7, R8),
how the persistent caches invalidate without a lint rule, the
``repro.envvars`` registry R7 enforces, autofixes, SARIF output, and how to
allowlist a legitimate exception.
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
    DeterminismRule,
    DeterminismTaintRule,
    EnvRegistryRule,
    ExecutorBoundaryRule,
    default_rules,
)

__all__ = [
    "DeterminismRule",
    "DeterminismTaintRule",
    "EnvRegistryRule",
    "ExecutorBoundaryRule",
    "Fix",
    "LintError",
    "Project",
    "Rule",
    "TextEdit",
    "Violation",
    "default_rules",
    "run_rules",
]
