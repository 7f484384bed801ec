"""The project-specific invariant rules (R1, R4, R7, R8).

Each rule encodes one contract the reproduction's results depend on:

- **R1 determinism** — simulator code never reads ambient randomness or the
  host clock; only :mod:`repro.util.rng` streams (and the allowlisted
  :mod:`repro.util.clock` shim) are permitted.
- **R4 executor boundary** — worker-payload builders construct JSON-safe
  plain data only (no sets, lambdas, or ad-hoc class instances).
- **R7 env registry** — every ``REPRO_*`` environment read goes through a
  constant declared in :mod:`repro.envvars`, and the docs env table stays
  generated from that registry.
- **R8 determinism taint** — a value *originating* from a forbidden source
  (clock, entropy, unordered-set iteration) may not flow into
  RunSpec-keyed state, even when the importing module itself is clean.

R1, R7 and R8 run on the shared per-module analysis pass
(:mod:`repro.lint.dataflow`, incrementally cached by content hash), so
adding rules does not add parses.  Every rule takes an optional
``allowlist`` so legitimate exceptions are explicit constructor data
(tests exercise this; ``docs/static_analysis.md`` documents the
workflow).
"""

from __future__ import annotations

import ast
import re
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.lint.dataflow import FORBIDDEN_ATTRS, forbidden_module_of
from repro.lint.engine import Fix, Project, Rule, TextEdit, Violation

# --------------------------------------------------------------------- #
# R1 — determinism
# --------------------------------------------------------------------- #

R1_HINT = (
    "derive randomness from repro.util.rng (SplitMix64 / derive_seed) and "
    "wall-clock readings from repro.util.clock; if this module legitimately "
    "needs ambient state, add it to the R1 allowlist with a reason"
)


#: mechanical R1 rewrites: forbidden attribute use -> (sanctioned
#: replacement, import statement the replacement needs).
R1_FIX_ATTRS: Mapping[str, Tuple[str, str]] = {
    "time.time": ("clock.now", "from repro.util import clock"),
    "time.perf_counter": ("clock.perf_counter", "from repro.util import clock"),
    "time.monotonic": ("clock.monotonic", "from repro.util import clock"),
    "random.Random": ("rng.SplitMix64", "from repro.util import rng"),
}


def _span_edit(span: Sequence[int], replacement: str) -> TextEdit:
    return TextEdit(
        start_line=span[0],
        start_col=span[1],
        end_line=span[2],
        end_col=span[3],
        replacement=replacement,
    )


class DeterminismRule(Rule):
    """R1: no ambient randomness or wall-clock reads in simulator code."""

    name = "R1"
    title = "determinism: no random/clock/entropy outside repro.util.rng"

    DEFAULT_SCAN_DIRS = ("src/repro", "scripts")
    DEFAULT_ALLOWLIST: Mapping[str, str] = {
        "src/repro/util/clock.py": "the one sanctioned wall-clock gateway",
        "scripts/profile_engine.py": "benchmark harness; timing wall-clock is its purpose",
    }

    def __init__(
        self,
        scan_dirs: Optional[Sequence[str]] = None,
        allowlist: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.scan_dirs = tuple(scan_dirs if scan_dirs is not None else self.DEFAULT_SCAN_DIRS)
        self.allowlist = dict(self.DEFAULT_ALLOWLIST if allowlist is None else allowlist)

    def check(self, project: Project) -> List[Violation]:
        violations: List[Violation] = []
        for rel in self._scan_files(project):
            if rel in self.allowlist:
                continue
            violations.extend(self._check_file(project, rel))
        return violations

    def _scan_files(self, project: Project) -> List[str]:
        files: List[str] = []
        for rel_dir in self.scan_dirs:
            files.extend(project.iter_python(rel_dir))
        return sorted(set(files))

    def _check_file(self, project: Project, rel: str) -> List[Violation]:
        facts = project.facts(rel)
        violations: List[Violation] = []

        for stmt in facts["plain_imports"]:
            names = stmt["names"]
            for module, _asname in names:
                if forbidden_module_of(module) is None:
                    continue
                fix = None
                if names == [["random", None]]:
                    # `import random` alone rewrites cleanly to the shim.
                    fix = Fix(
                        edits=(_span_edit(stmt["span"], "from repro.util import rng"),),
                        description="replace `import random` with the rng shim",
                    )
                violations.append(
                    Violation(
                        rule=self.name,
                        path=rel,
                        line=stmt["span"][0],
                        message=f"import of nondeterministic module {module!r}",
                        hint=R1_HINT,
                        fix=fix,
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
            for name, _asname in stmt["names"]:
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

        for full, span in facts["uses"]:
            if full in FORBIDDEN_ATTRS:
                fix = None
                mapped = R1_FIX_ATTRS.get(full)
                if mapped is not None:
                    fix = Fix(
                        edits=(_span_edit(span, mapped[0]),),
                        imports=(mapped[1],),
                        description=f"rewrite {full} to {mapped[0]}",
                    )
                violations.append(
                    Violation(
                        rule=self.name,
                        path=rel,
                        line=span[0],
                        message=f"use of ambient-state function {full!r}",
                        hint=R1_HINT,
                        fix=fix,
                    )
                )
            elif forbidden_module_of(full) is not None:
                fix = None
                mapped = R1_FIX_ATTRS.get(full)
                if mapped is not None:
                    fix = Fix(
                        edits=(_span_edit(span, mapped[0]),),
                        imports=(mapped[1],),
                        description=f"rewrite {full} to {mapped[0]}",
                    )
                violations.append(
                    Violation(
                        rule=self.name,
                        path=rel,
                        line=span[0],
                        message=f"use of nondeterministic API {full!r}",
                        hint=R1_HINT,
                        fix=fix,
                    )
                )
        return violations


# --------------------------------------------------------------------- #
# R4 — executor boundary
# --------------------------------------------------------------------- #

#: builtins that construct values JSON cannot represent faithfully.
NON_JSON_BUILTINS = frozenset(
    {"set", "frozenset", "bytes", "bytearray", "complex", "memoryview", "object"}
)

R4_HINT = (
    "worker payloads must be JSON-safe plain data (dict/list/str/int/float/"
    "bool/None): encode sets as sorted lists and objects via their "
    "plain-data form, exactly like diskcache.result_to_payload does"
)


class ExecutorBoundaryRule(Rule):
    """R4: worker-payload builders construct JSON-safe plain data only.

    The executor ships payloads across process boundaries and persists them
    as JSON; anything that is not plain data either crashes the pool or —
    worse — silently round-trips to a different value (sets to lists,
    tuples losing identity).  This rule walks the designated payload
    builders and rejects non-plain constructions.
    """

    name = "R4"
    title = "executor boundary: payload builders emit JSON-safe plain data"

    DEFAULT_TARGETS: Mapping[str, Tuple[str, ...]] = {
        "src/repro/eval/diskcache.py": (
            "result_to_payload",
            "_config_to_dict",
            "_core_to_dict",
            "_link_to_dict",
        ),
        "src/repro/eval/executor.py": ("_worker", "report_to_summary"),
    }

    def __init__(
        self,
        targets: Optional[Mapping[str, Iterable[str]]] = None,
        allowed_calls: Optional[Mapping[str, str]] = None,
    ) -> None:
        source = self.DEFAULT_TARGETS if targets is None else targets
        self.targets = {path: tuple(names) for path, names in source.items()}
        self.allowed_calls = dict(allowed_calls or {})

    def check(self, project: Project) -> List[Violation]:
        violations: List[Violation] = []
        for rel, names in sorted(self.targets.items()):
            tree = project.tree(rel)
            functions = {
                node.name: node
                for node in tree.body
                if isinstance(node, ast.FunctionDef)
            }
            for name in names:
                func = functions.get(name)
                if func is None:
                    violations.append(
                        self.violation(
                            rel,
                            0,
                            f"payload builder {name!r} not found — R4 no longer "
                            "guards the executor boundary",
                            "update ExecutorBoundaryRule.DEFAULT_TARGETS to the "
                            "current payload-builder names",
                        )
                    )
                    continue
                violations.extend(self._check_builder(rel, func))
        return violations

    def _check_builder(self, rel: str, func: ast.FunctionDef) -> List[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(func):
            if isinstance(node, (ast.Set, ast.SetComp)):
                violations.append(
                    self.violation(
                        rel,
                        node.lineno,
                        f"set constructed inside payload builder {func.name!r} "
                        "(JSON cannot represent sets)",
                        R4_HINT,
                    )
                )
            elif isinstance(node, ast.Lambda):
                violations.append(
                    self.violation(
                        rel,
                        node.lineno,
                        f"lambda inside payload builder {func.name!r} "
                        "(functions cannot cross the worker boundary)",
                        R4_HINT,
                    )
                )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                called = node.func.id
                if called in self.allowed_calls:
                    continue
                if called in NON_JSON_BUILTINS:
                    violations.append(
                        self.violation(
                            rel,
                            node.lineno,
                            f"{called}() constructed inside payload builder "
                            f"{func.name!r} is not JSON-representable",
                            R4_HINT,
                        )
                    )
                elif called[:1].isupper():
                    violations.append(
                        self.violation(
                            rel,
                            node.lineno,
                            f"class instance {called}() constructed inside payload "
                            f"builder {func.name!r}; payloads must stay plain data",
                            R4_HINT + "; or allowlist the call if it provably "
                            "returns plain data",
                        )
                    )
        return violations


# --------------------------------------------------------------------- #
# R7 — env-config registry
# --------------------------------------------------------------------- #

R7_REGISTRY_MODULE = "src/repro/envvars.py"
R7_DOCS_PATH = "docs/performance.md"
R7_PREFIX = "REPRO_"

#: a *complete* REPRO_* variable name (the bare prefix, or prose that
#: merely starts with it, is not an env-var spelling).
_R7_NAME_RE = re.compile(r"^REPRO_[A-Z0-9][A-Z0-9_]*$")


def _is_env_name(value: object) -> bool:
    return isinstance(value, str) and _R7_NAME_RE.match(value) is not None
R7_TABLE_BEGIN = (
    "<!-- BEGIN REPRO ENV TABLE "
    "(generated: scripts/gen_env_docs.py; checked: repro.lint R7) -->"
)
R7_TABLE_END = "<!-- END REPRO ENV TABLE -->"

R7_HINT = (
    "declare the variable in src/repro/envvars.py (constant + REGISTRY "
    "entry) and read it through that constant: "
    "`from repro.envvars import <NAME>`"
)


def _registry_rows(
    project: Project, rel: str
) -> Tuple[List[Tuple[str, str, str]], List[Violation], Dict[str, int]]:
    """Statically extract ``REGISTRY`` rows from the registry module.

    Returns ``(rows, structural_violations, constants)`` where *rows* are
    ``(name, default, description)`` tuples and *constants* maps each
    declared ``REPRO_*`` constant to its line.  Never imports the module.
    """
    facts = project.facts(rel)
    violations: List[Violation] = []
    constants: Dict[str, int] = {}
    for name, entry in facts["module_constants"].items():
        if not _is_env_name(name):
            continue
        if entry["kind"] != "literal" or entry["value"] != name:
            violations.append(
                Violation(
                    rule="R7",
                    path=rel,
                    line=entry["lineno"],
                    message=(
                        f"registry constant {name!r} must be a string literal "
                        "equal to its own name"
                    ),
                    hint=f'declare it as {name} = "{name}"',
                )
            )
            continue
        constants[name] = entry["lineno"]

    rows: List[Tuple[str, str, str]] = []
    tree = project.tree(rel)
    registry_value: Optional[ast.expr] = None
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "REGISTRY" for t in node.targets
        ):
            registry_value = node.value
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "REGISTRY"
        ):
            registry_value = node.value
    if not isinstance(registry_value, (ast.Tuple, ast.List)):
        violations.append(
            Violation(
                rule="R7",
                path=rel,
                line=0,
                message="registry module has no literal REGISTRY tuple",
                hint="declare REGISTRY: Tuple[EnvVar, ...] = (...) with one "
                "EnvVar entry per constant",
            )
        )
        return rows, violations, constants

    seen: Dict[str, int] = {}
    for element in registry_value.elts:
        if not (isinstance(element, ast.Call) and len(element.args) == 3):
            violations.append(
                Violation(
                    rule="R7",
                    path=rel,
                    line=element.lineno,
                    message="REGISTRY entries must be EnvVar(name, default, "
                    "description) calls with literal arguments",
                    hint=R7_HINT,
                )
            )
            continue
        name_node, default_node, desc_node = element.args
        if isinstance(name_node, ast.Name):
            var_name = name_node.id
        elif isinstance(name_node, ast.Constant) and isinstance(name_node.value, str):
            var_name = name_node.value
        else:
            violations.append(
                Violation(
                    rule="R7",
                    path=rel,
                    line=element.lineno,
                    message="EnvVar name must be a declared constant or string "
                    "literal",
                    hint=R7_HINT,
                )
            )
            continue
        if var_name not in constants:
            violations.append(
                Violation(
                    rule="R7",
                    path=rel,
                    line=element.lineno,
                    message=f"REGISTRY entry {var_name!r} has no matching "
                    "module constant",
                    hint=f'add {var_name} = "{var_name}" to the registry module',
                )
            )
        if var_name in seen:
            violations.append(
                Violation(
                    rule="R7",
                    path=rel,
                    line=element.lineno,
                    message=f"REGISTRY declares {var_name!r} twice (first at "
                    f"line {seen[var_name]})",
                    hint="keep one entry per variable",
                )
            )
            continue
        seen[var_name] = element.lineno
        if not (
            isinstance(default_node, ast.Constant)
            and isinstance(default_node.value, str)
            and isinstance(desc_node, ast.Constant)
            and isinstance(desc_node.value, str)
        ):
            violations.append(
                Violation(
                    rule="R7",
                    path=rel,
                    line=element.lineno,
                    message=f"REGISTRY entry {var_name!r}: default and "
                    "description must be string literals (the docs table is "
                    "rendered statically)",
                    hint=R7_HINT,
                )
            )
            continue
        rows.append((var_name, default_node.value, desc_node.value))

    for name, line in sorted(constants.items()):
        if name not in seen:
            violations.append(
                Violation(
                    rule="R7",
                    path=rel,
                    line=line,
                    message=f"registry constant {name!r} has no REGISTRY "
                    "metadata entry",
                    hint="add an EnvVar entry (name, default, description) so "
                    "the docs table stays complete",
                )
            )
    return rows, violations, constants


def _render_env_table(rows: Sequence[Tuple[str, str, str]]) -> str:
    """Must stay byte-identical to ``repro.envvars.render_env_table``."""
    lines = ["| Variable | Default | Meaning |", "| --- | --- | --- |"]
    for name, default, description in rows:
        lines.append(f"| `{name}` | {default} | {description} |")
    return "\n".join(lines)


class EnvRegistryRule(Rule):
    """R7: every ``REPRO_*`` env access routes through the declared registry.

    Checks, in order: the registry module itself is well-formed (constant
    name == value, constants ↔ REGISTRY metadata 1:1); no module outside
    the registry spells a ``REPRO_*`` name as a string (neither at an
    ``os.environ`` access nor in a module-level constant); every env-access
    key statically resolves to a *declared* registry constant (directly
    imported or via a module-level alias); and the marker-delimited env
    table in ``docs/performance.md`` equals the one rendered from the
    registry.  Literal-key accesses of declared variables carry an autofix
    (constant substitution plus the registry import).
    """

    name = "R7"
    title = "env registry: REPRO_* reads go through declared repro.envvars constants"

    DEFAULT_SCAN_DIRS = ("src/repro", "scripts")

    def __init__(
        self,
        scan_dirs: Optional[Sequence[str]] = None,
        allowlist: Optional[Mapping[str, str]] = None,
        registry_module: str = R7_REGISTRY_MODULE,
        docs_path: str = R7_DOCS_PATH,
    ) -> None:
        self.scan_dirs = tuple(
            scan_dirs if scan_dirs is not None else self.DEFAULT_SCAN_DIRS
        )
        self.allowlist = dict(allowlist or {})
        self.registry_module = registry_module
        self.docs_path = docs_path

    def check(self, project: Project) -> List[Violation]:
        has_registry = project.exists(self.registry_module)
        declared: Dict[str, int] = {}
        violations: List[Violation] = []
        rows: List[Tuple[str, str, str]] = []
        structural: List[Violation] = []
        if has_registry:
            rows, structural, declared = _registry_rows(project, self.registry_module)
            violations.extend(structural)

        saw_repro_access = False
        for rel in self._scan_files(project):
            if rel == self.registry_module or rel in self.allowlist:
                continue
            file_violations, saw = self._check_file(project, rel, declared)
            saw_repro_access = saw_repro_access or saw
            violations.extend(file_violations)

        if saw_repro_access and not has_registry:
            violations.append(
                self.violation(
                    "",
                    0,
                    f"REPRO_* environment variables are read but the registry "
                    f"module {self.registry_module} does not exist",
                    "create the registry module declaring every REPRO_* "
                    "variable (constant + EnvVar REGISTRY entry)",
                )
            )
        if has_registry and not structural:
            # a structurally broken registry would make the rendered table
            # meaningless; its own violations point at the real problem.
            violations.extend(self._check_docs(project, rows))
        return violations

    def _scan_files(self, project: Project) -> List[str]:
        files: List[str] = []
        for rel_dir in self.scan_dirs:
            files.extend(project.iter_python(rel_dir))
        return sorted(set(files))

    def _resolve_key_name(
        self, facts: Dict[str, Any], name: str
    ) -> Tuple[str, Optional[str]]:
        """Classify an env-key name: ``(kind, registry_constant_or_None)``.

        kinds: ``registry`` (resolves to repro.envvars.X), ``literal``
        (module constant spelled as a string), ``foreign`` (resolves
        somewhere else), ``unknown`` (not statically resolvable).
        """
        constant = facts["module_constants"].get(name)
        if constant is not None:
            if constant["kind"] == "literal":
                return "literal", constant["value"]
            # alias values are pre-resolved through the module's imports
            # by the dataflow pass.
            target = constant["value"]
            if target.startswith("repro.envvars."):
                return "registry", target.rsplit(".", 1)[1]
            if "." in target:
                return "foreign", target
            return "unknown", None
        resolved = facts["bindings"].get(name)
        if resolved is None:
            return "unknown", None
        if resolved.startswith("repro.envvars."):
            return "registry", resolved.rsplit(".", 1)[1]
        return "foreign", resolved

    def _check_file(
        self, project: Project, rel: str, declared: Dict[str, int]
    ) -> Tuple[List[Violation], bool]:
        facts = project.facts(rel)
        violations: List[Violation] = []
        saw_repro = False

        for name, entry in facts["module_constants"].items():
            if entry["kind"] == "literal" and _is_env_name(entry["value"]):
                saw_repro = True
                value = entry["value"]
                violations.append(
                    self.violation(
                        rel,
                        entry["lineno"],
                        f"module constant {name!r} spells environment variable "
                        f"{value!r} as a string instead of aliasing the "
                        "registry constant",
                        f"write `from repro.envvars import {value}` and "
                        f"`{name} = {value}` (R7 verifies the registry "
                        "declaration exists)"
                        if value in declared
                        else R7_HINT,
                    )
                )

        for access in facts["env_accesses"]:
            kind = access["key_kind"]
            if kind == "literal":
                key = access["key"]
                if not _is_env_name(key):
                    continue
                saw_repro = True
                fix = None
                if key in declared:
                    fix = Fix(
                        edits=(_span_edit(access["span"], key),),
                        imports=(f"from repro.envvars import {key}",),
                        description=f"use the registry constant {key}",
                    )
                violations.append(
                    Violation(
                        rule=self.name,
                        path=rel,
                        line=access["lineno"],
                        message=(
                            f"environment variable {key!r} accessed via a "
                            "string literal instead of its registry constant"
                            if key in declared
                            else f"environment variable {key!r} is not declared "
                            "in the repro.envvars registry"
                        ),
                        hint=R7_HINT,
                        fix=fix,
                    )
                )
            elif kind == "name":
                resolution, target = self._resolve_key_name(facts, access["key"])
                if resolution == "registry":
                    saw_repro = True
                    if target not in declared and declared:
                        violations.append(
                            self.violation(
                                rel,
                                access["lineno"],
                                f"env key {access['key']!r} resolves to "
                                f"repro.envvars.{target}, which the registry "
                                "does not declare",
                                f'add {target} = "{target}" plus an EnvVar '
                                "REGISTRY entry to src/repro/envvars.py",
                            )
                        )
                elif resolution == "literal":
                    # flagged above at the constant's definition site
                    saw_repro = saw_repro or _is_env_name(target)
                elif resolution == "foreign":
                    violations.append(
                        self.violation(
                            rel,
                            access["lineno"],
                            f"env key {access['key']!r} resolves to {target!r}, "
                            "not a repro.envvars registry constant",
                            R7_HINT,
                        )
                    )
                else:
                    violations.append(
                        self.violation(
                            rel,
                            access["lineno"],
                            f"env key {access['key']!r} cannot be statically "
                            "resolved to a registry constant",
                            R7_HINT,
                        )
                    )
            else:  # dynamic expression
                violations.append(
                    self.violation(
                        rel,
                        access["lineno"],
                        "environment key is a dynamic expression; R7 cannot "
                        "verify it against the registry",
                        R7_HINT,
                    )
                )
        return violations, saw_repro

    def _check_docs(
        self, project: Project, rows: Sequence[Tuple[str, str, str]]
    ) -> List[Violation]:
        if not project.exists(self.docs_path):
            return []  # synthetic fixture trees carry no docs
        text = project.source(self.docs_path)
        begin = text.find(R7_TABLE_BEGIN)
        end = text.find(R7_TABLE_END)
        regenerate = (
            "regenerate with `PYTHONPATH=src python scripts/gen_env_docs.py` "
            "and commit the result"
        )
        if begin == -1 or end == -1 or end < begin:
            return [
                self.violation(
                    self.docs_path,
                    0,
                    "environment table markers are missing, so the docs table "
                    "cannot be checked against the registry",
                    regenerate,
                )
            ]
        committed = text[begin + len(R7_TABLE_BEGIN) : end].strip("\n")
        expected = _render_env_table(rows)
        if committed != expected:
            line = text[:begin].count("\n") + 1
            return [
                self.violation(
                    self.docs_path,
                    line,
                    "environment table is out of sync with the repro.envvars "
                    "registry",
                    regenerate,
                )
            ]
        return []


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

    DEFAULT_SCAN_DIRS = ("src/repro", "scripts")
    DEFAULT_ALLOWLIST: Mapping[str, str] = {}

    def __init__(
        self,
        scan_dirs: Optional[Sequence[str]] = None,
        allowlist: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.scan_dirs = tuple(
            scan_dirs if scan_dirs is not None else self.DEFAULT_SCAN_DIRS
        )
        self.allowlist = dict(
            self.DEFAULT_ALLOWLIST if allowlist is None else allowlist
        )

    def check(self, project: Project) -> List[Violation]:
        violations: List[Violation] = []
        for rel_dir in self.scan_dirs:
            for rel in project.iter_python(rel_dir):
                if rel in self.allowlist:
                    continue
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
        ExecutorBoundaryRule(),
        EnvRegistryRule(),
        DeterminismTaintRule(),
    ]
