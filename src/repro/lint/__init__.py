"""AST-based invariant checker for determinism and the environment-variable
registry.

See ``docs/static_analysis.md`` for the rule catalogue (R1, R7, R8),
how the persistent caches invalidate without a lint rule, how R7 and
``tests/unit/test_envvars.py`` split the ``repro.envvars`` checks, SARIF
output, and how to allowlist a legitimate exception.
"""

from repro.lint.engine import LintError, Project, Rule, Violation, run_rules
from repro.lint.rules import (
    DeterminismRule,
    DeterminismTaintRule,
    EnvRegistryRule,
    default_rules,
)

__all__ = [
    "DeterminismRule",
    "DeterminismTaintRule",
    "EnvRegistryRule",
    "LintError",
    "Project",
    "Rule",
    "Violation",
    "default_rules",
    "run_rules",
]
