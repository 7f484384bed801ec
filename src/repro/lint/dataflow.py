"""Shared per-module analysis pass for the lint rules.

One walk over each module's AST produces a :data:`ModuleFacts` dict — a
plain-data summary of everything any rule wants to know about the file:
import bindings, resolved dotted-name uses, ``os.environ`` accesses,
string literals that spell a ``REPRO_*`` name, and intra-procedural
determinism-taint flows.  Rules consume facts instead of re-walking the
tree, so the whole rule set costs one parse per module.
"""

from __future__ import annotations

import ast
import re
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import dotted_name

#: facts dict — see :func:`analyze_module` for the key inventory.
ModuleFacts = Dict[str, Any]

#: attribute paths that read ambient state (clock, OS entropy); shared by
#: rules R1 (use sites) and R8 (taint sources).
FORBIDDEN_ATTRS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: modules that are nondeterministic by construction.
FORBIDDEN_MODULES = ("random", "secrets", "numpy.random")

#: call targets whose arguments become RunSpec-keyed state (R8 sinks).
#: Matched on the trailing component(s) of the resolved dotted name, so
#: both ``RunSpec(...)`` and ``runspec.RunSpec(...)`` hit.
TAINT_SINKS = (
    "RunSpec",
    "RunSpec.create",
    "run_system",
    "run_system_cached",
    "derive_seed",
)

#: calls that launder order/ambient taint (deterministic output for any
#: input order; ``sorted`` is the canonical unordered-iteration fix).
TAINT_SANITIZERS = frozenset({"sorted", "len", "min", "max", "sum"})

_ENV_READ_CALLS = frozenset(
    {"os.environ.get", "os.environ.pop", "os.environ.setdefault", "os.getenv"}
)

#: a *complete* REPRO_* variable name (the bare prefix, or prose that
#: merely starts with it, is not an env-var spelling).
_ENV_NAME_RE = re.compile(r"^REPRO_[A-Z0-9][A-Z0-9_]*$")


def is_env_name(value: object) -> bool:
    return isinstance(value, str) and _ENV_NAME_RE.match(value) is not None


def module_matches(module: str, forbidden: str) -> bool:
    return module == forbidden or module.startswith(forbidden + ".")


def forbidden_module_of(dotted: str) -> Optional[str]:
    """The FORBIDDEN_MODULES entry *dotted* falls under, if any."""
    for forbidden in FORBIDDEN_MODULES:
        if module_matches(dotted, forbidden):
            return forbidden
    return None


def analyze_module(tree: ast.Module) -> ModuleFacts:
    """One-pass analysis of a parsed module.

    Returns a plain-data facts dict with these keys:

    - ``bindings`` — name bound in the module → dotted path it resolves to.
    - ``plain_imports`` — per ``import`` statement: ``{"names": [module,
      ...], "lineno"}``.
    - ``from_imports`` — per ``from`` statement: ``{"module", "level",
      "names": [name, ...], "lineno"}``.
    - ``uses`` — resolved dotted attribute uses: ``[[dotted, lineno], ...]``.
    - ``env_accesses`` — every ``os.environ``/``os.getenv`` access:
      ``{"key_kind": "literal"|"name"|"dynamic", "key", "lineno"}``.
    - ``env_literals`` — every string literal that is a whole ``REPRO_*``
      name: ``[[value, lineno], ...]``.
    - ``taint`` — R8 findings: ``{"lineno", "sink", "source",
      "source_line", "via"}`` per tainted-value-reaches-sink flow.
    """
    bindings: Dict[str, str] = {}
    plain_imports: List[Dict[str, Any]] = []
    from_imports: List[Dict[str, Any]] = []
    uses: List[List[Any]] = []
    env_accesses: List[Dict[str, Any]] = []
    env_literals: List[List[Any]] = []

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                bindings[bound] = alias.name if alias.asname else alias.name.split(".")[0]
            plain_imports.append(
                {"names": [alias.name for alias in node.names], "lineno": node.lineno}
            )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            from_imports.append(
                {
                    "module": module,
                    "level": node.level,
                    "names": [alias.name for alias in node.names],
                    "lineno": node.lineno,
                }
            )
            if not node.level:
                for alias in node.names:
                    resolved = f"{module}.{alias.name}" if module else alias.name
                    bindings[alias.asname or alias.name] = resolved

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is None:
                continue
            root, _, rest = dotted.partition(".")
            resolved = bindings.get(root)
            if resolved is None:
                continue
            full = f"{resolved}.{rest}" if rest else resolved
            uses.append([full, node.lineno])
        elif isinstance(node, ast.Constant) and is_env_name(node.value):
            env_literals.append([node.value, node.lineno])

    _collect_env_accesses(tree, bindings, env_accesses)

    taint = _analyze_taint(tree, bindings)

    return {
        "bindings": bindings,
        "plain_imports": plain_imports,
        "from_imports": from_imports,
        "uses": uses,
        "env_accesses": env_accesses,
        "env_literals": env_literals,
        "taint": taint,
    }


# --------------------------------------------------------------------- #
# environment accesses (rule R7)
# --------------------------------------------------------------------- #

def _resolve_dotted(node: ast.AST, bindings: Dict[str, str]) -> Optional[str]:
    dotted = dotted_name(node)
    if dotted is None:
        return None
    root, _, rest = dotted.partition(".")
    resolved = bindings.get(root)
    if resolved is None:
        return None
    return f"{resolved}.{rest}" if rest else resolved


def _key_record(key: ast.expr, lineno: int) -> Dict[str, Any]:
    if isinstance(key, ast.Constant) and isinstance(key.value, str):
        kind, value = "literal", key.value
    elif isinstance(key, ast.Name):
        kind, value = "name", key.id
    else:
        kind, value = "dynamic", ""
    return {"key_kind": kind, "key": value, "lineno": lineno}


def _collect_env_accesses(
    tree: ast.Module, bindings: Dict[str, str], out: List[Dict[str, Any]]
) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            resolved = _resolve_dotted(node.func, bindings)
            if resolved in _ENV_READ_CALLS and node.args:
                out.append(_key_record(node.args[0], node.lineno))
        elif isinstance(node, ast.Subscript):
            resolved = _resolve_dotted(node.value, bindings)
            if resolved == "os.environ":
                out.append(_key_record(node.slice, node.lineno))
        elif isinstance(node, ast.Compare):
            if len(node.ops) == 1 and isinstance(node.ops[0], (ast.In, ast.NotIn)):
                resolved = _resolve_dotted(node.comparators[0], bindings)
                if resolved == "os.environ":
                    out.append(_key_record(node.left, node.lineno))


# --------------------------------------------------------------------- #
# determinism taint (rule R8)
# --------------------------------------------------------------------- #

def _sink_match(resolved: str) -> Optional[str]:
    """The TAINT_SINKS entry *resolved* ends with (component-aligned)."""
    for sink in TAINT_SINKS:
        if resolved == sink or resolved.endswith("." + sink):
            return sink
    return None


def _call_args(call: ast.Call) -> List[ast.expr]:
    return list(call.args) + [kw.value for kw in call.keywords]


class _FunctionTaint:
    """One-function def-use taint walk (source order, two passes so
    loop-carried taint converges)."""

    def __init__(self, bindings: Dict[str, str], out: List[Dict[str, Any]]) -> None:
        self.bindings = bindings
        self.out = out
        self.tainted: Dict[str, Tuple[str, int]] = {}  # name -> (source, line)
        self.set_vars: Set[str] = set()
        self.reported: Set[Tuple[int, str]] = set()

    # -- expression classification ---------------------------------- #

    def resolve(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self.bindings.get(node.id, node.id)
        return _resolve_dotted(node, self.bindings)

    def call_source(self, node: ast.Call) -> Optional[Tuple[str, int]]:
        """Is this call itself a taint source?"""
        resolved = self.resolve(node.func)
        if resolved is None:
            return None
        if resolved in FORBIDDEN_ATTRS:
            return (f"{resolved}()", node.lineno)
        forbidden = forbidden_module_of(resolved)
        if forbidden is not None and resolved != forbidden:
            return (f"{resolved}()", node.lineno)
        return None

    def expr_taint(self, node: Optional[ast.AST]) -> Optional[Tuple[str, int]]:
        """Taint source of an expression's value, if any."""
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return self.tainted.get(node.id)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in TAINT_SANITIZERS:
                return None
            direct = self.call_source(node)
            if direct is not None:
                return direct
            for arg in _call_args(node):
                found = self.expr_taint(arg)
                if found is not None:
                    return found
            return None
        for child in ast.iter_child_nodes(node):
            found = self.expr_taint(child)
            if found is not None:
                return found
        return None

    def is_set_valued(self, node: Optional[ast.AST]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            resolved = self.resolve(node.func)
            if resolved in ("set", "frozenset"):
                return True
        if isinstance(node, ast.Name):
            return node.id in self.set_vars
        if isinstance(node, ast.BinOp):  # set union/intersection chains
            return self.is_set_valued(node.left) or self.is_set_valued(node.right)
        return False

    # -- statement walk ---------------------------------------------- #

    def assign_names(self, target: ast.expr) -> List[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, (ast.Tuple, ast.List)):
            names: List[str] = []
            for element in target.elts:
                names.extend(self.assign_names(element))
            return names
        return []

    def handle_assign(self, targets: Sequence[ast.expr], value: Optional[ast.expr]) -> None:
        if value is None:
            return
        source = self.expr_taint(value)
        set_valued = self.is_set_valued(value)
        for target in targets:
            for name in self.assign_names(target):
                if source is not None:
                    self.tainted[name] = source
                else:
                    self.tainted.pop(name, None)
                if set_valued:
                    self.set_vars.add(name)
                else:
                    self.set_vars.discard(name)

    def sink_of(self, node: ast.AST) -> Optional[str]:
        """The TAINT_SINKS entry *node* calls, if it is a sink call."""
        if not isinstance(node, ast.Call):
            return None
        resolved = self.resolve(node.func)
        return None if resolved is None else _sink_match(resolved)

    def reaches_inner_sink(self, arg: ast.AST, found: Tuple[str, int]) -> bool:
        """Does *found* reach a sink call inside *arg*?  That sink reports
        the flow, so each flow is reported once, at its innermost sink."""
        return any(
            self.sink_of(inner) is not None
            and any(self.expr_taint(a) == found for a in _call_args(inner))
            for inner in ast.walk(arg)
        )

    def check_sinks(self, node: ast.AST) -> None:
        for call in ast.walk(node):
            sink = self.sink_of(call)
            if sink is None:
                continue
            for arg in _call_args(call):
                found = self.expr_taint(arg)
                if found is None or self.reaches_inner_sink(arg, found):
                    continue
                key = (call.lineno, found[0])
                if key in self.reported:
                    continue
                self.reported.add(key)
                via = None
                if isinstance(arg, ast.Name):
                    via = arg.id
                self.out.append(
                    {
                        "lineno": call.lineno,
                        "sink": sink,
                        "source": found[0],
                        "source_line": found[1],
                        "via": via,
                    }
                )

    def walk_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                self.check_sinks(stmt.value)
                self.handle_assign(stmt.targets, stmt.value)
            elif isinstance(stmt, ast.AnnAssign):
                if stmt.value is not None:
                    self.check_sinks(stmt.value)
                self.handle_assign([stmt.target], stmt.value)
            elif isinstance(stmt, ast.AugAssign):
                self.check_sinks(stmt.value)
                source = self.expr_taint(stmt.value)
                for name in self.assign_names(stmt.target):
                    if source is not None:
                        self.tainted[name] = source
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self.check_sinks(stmt.iter)
                iter_taint = self.expr_taint(stmt.iter)
                for name in self.assign_names(stmt.target):
                    if self.is_set_valued(stmt.iter):
                        self.tainted[name] = (
                            "iteration over an unordered set",
                            stmt.iter.lineno,
                        )
                    elif iter_taint is not None:
                        self.tainted[name] = iter_taint
                    else:
                        self.tainted.pop(name, None)
                self.walk_body(stmt.body)
                self.walk_body(stmt.orelse)
            elif isinstance(stmt, (ast.If, ast.While)):
                test = stmt.test
                self.check_sinks(test)
                self.walk_body(stmt.body)
                self.walk_body(stmt.orelse)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self.check_sinks(item.context_expr)
                self.walk_body(stmt.body)
            elif isinstance(stmt, ast.Try):
                self.walk_body(stmt.body)
                for handler in stmt.handlers:
                    self.walk_body(handler.body)
                self.walk_body(stmt.orelse)
                self.walk_body(stmt.finalbody)
            elif isinstance(stmt, (ast.Expr, ast.Return)):
                if stmt.value is not None:
                    self.check_sinks(stmt.value)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested defs get their own walk
            else:
                self.check_sinks(stmt)


def _analyze_taint(tree: ast.Module, bindings: Dict[str, str]) -> List[Dict[str, Any]]:
    """R8 findings for every function (and the module body) of *tree*."""
    out: List[Dict[str, Any]] = []
    scopes: List[Sequence[ast.stmt]] = [tree.body]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append(node.body)
    for body in scopes:
        walker = _FunctionTaint(bindings, out)
        # two passes: the second sees assignments made later in the first,
        # so taint carried around a loop back-edge still reaches its sink.
        walker.walk_body(body)
        walker.walk_body(body)
    out.sort(key=lambda entry: (entry["lineno"], entry["source"]))
    return out
