"""The project-specific invariant rules (R1, R7, R8).

Each rule encodes one contract the reproduction's results depend on:

- **R1 determinism** — simulator code never reads ambient randomness or the
  host clock; only :mod:`repro.util.rng` streams (and the allowlisted
  :mod:`repro.util.clock` shim) are permitted.
- **R7 env registry** — no module spells a ``REPRO_*`` name as a string,
  and every environment key is a literal or a constant imported from
  :mod:`repro.envvars`.  The registry's own shape and the docs table it
  renders are checked by ``tests/unit/test_envvars.py``, which imports it.
- **R8 determinism taint** — a value *originating* from a forbidden source
  (clock, entropy, unordered-set iteration) may not flow into
  RunSpec-keyed state, even when the importing module itself is clean.

All three rules scan the same files (:data:`SCAN_DIRS`) through the shared
per-module analysis pass (:mod:`repro.lint.dataflow`), so adding rules
does not add parses.  R1's legitimate exceptions are explicit allowlist
data (``docs/static_analysis.md`` documents the workflow).
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Mapping, Optional, Set

from repro.lint.dataflow import FORBIDDEN_ATTRS, forbidden_module_of, is_env_name
from repro.lint.engine import Project, Rule, Violation

#: the trees every rule scans.
SCAN_DIRS = ("src/repro", "scripts")


def scan_files(project: Project) -> List[str]:
    """Relative paths of every Python file under :data:`SCAN_DIRS`."""
    return [rel for rel_dir in SCAN_DIRS for rel in project.iter_python(rel_dir)]


# --------------------------------------------------------------------- #
# R1 — determinism
# --------------------------------------------------------------------- #

R1_HINT = (
    "derive randomness from repro.util.rng (SplitMix64 / derive_seed) and "
    "wall-clock readings from repro.util.clock; if this module legitimately "
    "needs ambient state, add it to the R1 allowlist with a reason"
)


class DeterminismRule(Rule):
    """R1: no ambient randomness or wall-clock reads in simulator code."""

    name = "R1"
    title = "determinism: no random/clock/entropy outside repro.util.rng"

    DEFAULT_ALLOWLIST: Mapping[str, str] = {
        "src/repro/util/clock.py": "the one sanctioned wall-clock gateway",
        "scripts/profile_engine.py": "benchmark harness; timing wall-clock is its purpose",
    }

    def __init__(self, allowlist: Optional[Mapping[str, str]] = None) -> None:
        self.allowlist = dict(self.DEFAULT_ALLOWLIST if allowlist is None else allowlist)

    def check(self, project: Project) -> List[Violation]:
        violations: List[Violation] = []
        for rel in scan_files(project):
            if rel not in self.allowlist:
                violations.extend(self._check_file(project, rel))
        return violations

    def _check_file(self, project: Project, rel: str) -> List[Violation]:
        facts = project.facts(rel)
        violations: List[Violation] = []

        for stmt in facts["plain_imports"]:
            for module in stmt["names"]:
                if forbidden_module_of(module) is not None:
                    violations.append(
                        self.violation(
                            rel,
                            stmt["lineno"],
                            f"import of nondeterministic module {module!r}",
                            R1_HINT,
                        )
                    )

        for stmt in facts["from_imports"]:
            if stmt["level"]:  # relative import; nothing forbidden is local
                continue
            module = stmt["module"]
            if forbidden_module_of(module) is not None:
                violations.append(
                    self.violation(
                        rel,
                        stmt["lineno"],
                        f"import from nondeterministic module {module!r}",
                        R1_HINT,
                    )
                )
                continue
            for name in stmt["names"]:
                resolved = f"{module}.{name}" if module else name
                if resolved in FORBIDDEN_ATTRS:
                    violations.append(
                        self.violation(
                            rel,
                            stmt["lineno"],
                            f"import of ambient-state function {resolved!r}",
                            R1_HINT,
                        )
                    )

        for full, lineno in facts["uses"]:
            if full in FORBIDDEN_ATTRS:
                message = f"use of ambient-state function {full!r}"
            elif forbidden_module_of(full) is not None:
                message = f"use of nondeterministic API {full!r}"
            else:
                continue
            violations.append(self.violation(rel, lineno, message, R1_HINT))
        return violations


# --------------------------------------------------------------------- #
# R7 — env-config registry
# --------------------------------------------------------------------- #

R7_REGISTRY_MODULE = "src/repro/envvars.py"

R7_HINT = (
    "declare the variable in src/repro/envvars.py (constant + REGISTRY "
    "entry) and read it through that constant: "
    "`from repro.envvars import <NAME>`"
)


def _declared_names(project: Project) -> Set[str]:
    """The ``REPRO_*`` names the registry module assigns at module level."""
    return {
        target.id
        for node in project.tree(R7_REGISTRY_MODULE).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        if isinstance(target, ast.Name) and is_env_name(target.id)
    }


class EnvRegistryRule(Rule):
    """R7: every ``REPRO_*`` env access routes through the declared registry.

    Two static checks over :data:`SCAN_DIRS`, the registry module aside:
    no string literal spells a whole ``REPRO_*`` name, and every
    ``os.environ``/``os.getenv`` key is a string literal or a name imported
    from :mod:`repro.envvars` that the registry module assigns.  Dynamic
    keys, keys bound anywhere else and keys no import binds are flagged.
    The registry itself (each constant equals its name, constants and
    ``REGISTRY`` match one to one, the docs table is current) is checked by
    ``tests/unit/test_envvars.py``, which imports it.
    """

    name = "R7"
    title = "env registry: REPRO_* reads go through declared repro.envvars constants"

    def check(self, project: Project) -> List[Violation]:
        declared = (
            _declared_names(project) if project.exists(R7_REGISTRY_MODULE) else None
        )
        violations: List[Violation] = []
        uses_registry = False
        for rel in scan_files(project):
            if rel == R7_REGISTRY_MODULE:
                continue
            facts = project.facts(rel)
            bound = facts["bindings"].values()
            uses_registry = uses_registry or bool(facts["env_literals"]) or any(
                target.startswith("repro.envvars.") for target in bound
            )
            for value, lineno in facts["env_literals"]:
                violations.append(
                    self.violation(
                        rel,
                        lineno,
                        f"environment variable {value!r} spelled as a string "
                        "literal instead of its registry constant"
                        if declared and value in declared
                        else f"environment variable {value!r} is not declared "
                        "in the repro.envvars registry",
                        R7_HINT,
                    )
                )
            for access in facts["env_accesses"]:
                message = self._key_problem(facts, access, declared)
                if message is not None:
                    violations.append(
                        self.violation(rel, access["lineno"], message, R7_HINT)
                    )

        if uses_registry and declared is None:
            violations.append(
                self.violation(
                    "",
                    0,
                    "REPRO_* environment variables are read but the registry "
                    f"module {R7_REGISTRY_MODULE} does not exist",
                    "create the registry module declaring every REPRO_* "
                    "variable (constant + EnvVar REGISTRY entry)",
                )
            )
        return violations

    @staticmethod
    def _key_problem(
        facts: Dict[str, Any], access: Dict[str, Any], declared: Optional[Set[str]]
    ) -> Optional[str]:
        """Why *access*'s key is not a declared registry constant (None if it
        is, or if the key is a string literal: a ``REPRO_*`` literal is
        flagged where it is spelled)."""
        key = access["key"]
        if access["key_kind"] == "literal":
            return None
        if access["key_kind"] == "dynamic":
            return (
                "environment key is a dynamic expression; R7 cannot verify it "
                "against the registry"
            )
        resolved = facts["bindings"].get(key)
        if resolved is None:
            return (
                f"env key {key!r} cannot be statically resolved to a registry "
                "constant"
            )
        module, _, target = resolved.rpartition(".")
        if module != "repro.envvars":
            return (
                f"env key {key!r} resolves to {resolved!r}, not a repro.envvars "
                "registry constant"
            )
        if declared is None or target in declared:
            return None  # a missing registry is reported once, project-wide
        return (
            f"env key {key!r} resolves to {resolved}, which the registry does "
            "not declare"
        )


# --------------------------------------------------------------------- #
# R8 — determinism taint
# --------------------------------------------------------------------- #

R8_HINT = (
    "RunSpec-keyed state must be a pure function of the spec: derive "
    "randomness via repro.util.rng.derive_seed/SplitMix64, drop wall-clock "
    "values from keyed paths, and sort unordered collections before they "
    "feed a spec, run_system call or derived seed"
)


class DeterminismTaintRule(Rule):
    """R8: forbidden-source values must not flow into RunSpec-keyed state.

    R1 answers "does this module touch a forbidden API at all?"; R8 answers
    the sharper question "does a value *originating* there reach state that
    keys results?".  The shared dataflow pass tracks, per function, values
    produced by forbidden calls (clock, entropy, ``random``) and by
    iteration over unordered sets, propagates them through assignments
    (``sorted()`` sanitizes), and reports any flow into a ``RunSpec``
    construction, ``run_system``/``run_system_cached`` call or
    ``derive_seed`` — the places a nondeterministic value would silently
    poison the persistent result cache.  Because it is finer-grained than
    R1, it scans *all* of ``src/repro`` and ``scripts`` with no allowlist:
    even the wall-clock shim's values must never reach keyed state.
    """

    name = "R8"
    title = "determinism taint: forbidden sources never reach RunSpec-keyed state"

    def check(self, project: Project) -> List[Violation]:
        violations: List[Violation] = []
        for rel in scan_files(project):
            for flow in project.facts(rel)["taint"]:
                via = f" via {flow['via']!r}" if flow["via"] else ""
                violations.append(
                    self.violation(
                        rel,
                        flow["lineno"],
                        f"value from {flow['source']} (line "
                        f"{flow['source_line']}) flows into "
                        f"{flow['sink']}(...){via} — RunSpec-keyed state "
                        "would become nondeterministic",
                        R8_HINT,
                    )
                )
        return violations


def default_rules() -> List[Rule]:
    """The full rule set, in report order."""
    return [
        DeterminismRule(),
        EnvRegistryRule(),
        DeterminismTaintRule(),
    ]
