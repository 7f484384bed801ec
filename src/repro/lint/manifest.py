"""Behavior manifest: content hashes of every result-affecting module.

The persistent artifacts — the on-disk result cache
(:mod:`repro.eval.diskcache`) and the compiled-trace store
(:mod:`repro.trace.store`) — are keyed by request content plus one schema
constant each (``SCHEMA_VERSION``, ``TRACE_SCHEMA_VERSION``).  A change to
the simulator's *code* changes results without changing any request key,
so the only thing standing between an engine edit and silently-stale
entries served from disk is remembering to bump the right constant.

This module makes that remembering mechanical.  A committed manifest
(``src/repro/lint/behavior_manifest.json``) records, per artifact, a
SHA-256 of each source file the artifact's contents depend on together
with the schema version the hashes were taken under.  Rule R2 recomputes
the hashes; if any differ while an artifact's constant still equals its
recorded version, the tree fails lint.  Bumping the constant acknowledges
the behavior change (and invalidates every entry of that artifact);
``python -m repro.lint --update-manifest`` then records the new hashes.

The trace-store artifact covers a subset of the result-cache modules (the
synthesis → lowering → packing chain), so a trace-affecting edit freezes
against **both** constants: bumping ``SCHEMA_VERSION`` alone still fails
lint until ``TRACE_SCHEMA_VERSION`` moves too.  The artifact activates
only when its schema module exists, so small synthetic lint trees (the
rule's own tests) are checked against the result cache alone.
"""

from __future__ import annotations

import ast
import hashlib
import json
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.lint.engine import LintError, Project

#: committed manifest location (project-root relative).
MANIFEST_PATH = "src/repro/lint/behavior_manifest.json"

#: module defining the result-cache schema version.
SCHEMA_MODULE = "src/repro/eval/diskcache.py"
SCHEMA_CONSTANT = "SCHEMA_VERSION"

#: module defining the compiled-trace-store schema version.
TRACE_SCHEMA_MODULE = "src/repro/trace/compiled.py"
TRACE_SCHEMA_CONSTANT = "TRACE_SCHEMA_VERSION"

#: directories and files whose source determines simulation results.
BEHAVIOR_PATHS = (
    "src/repro/api.py",
    "src/repro/branch",
    "src/repro/caches",
    "src/repro/cmp",
    "src/repro/core",
    "src/repro/isa",
    "src/repro/prefetch",
    "src/repro/swpf",
    "src/repro/timing",
    "src/repro/trace",
    "src/repro/util",
    "src/repro/eval/diskcache.py",
    "src/repro/eval/executor.py",
    "src/repro/eval/profiles.py",
    "src/repro/eval/runner.py",
    "src/repro/eval/runspec.py",
)

#: the subset whose source determines *compiled-trace* content: synthesis
#: (api.py → trace.synth, seeded via util.rng), the transition taxonomy and
#: discontinuity rule (isa), and the lowering/packing itself (trace).
TRACE_PATHS = (
    "src/repro/api.py",
    "src/repro/isa",
    "src/repro/trace",
    "src/repro/util",
)

#: the sources hashed under a BEHAVIOR_PATHS/TRACE_PATHS directory: Python
#: modules and the C units and headers compiled from them (the trace
#: synthesizer's ``trace/synth/native.c`` writes trace bytes as surely as
#: its Python specification does).
SOURCE_PATTERNS = ("*.py", "*.c", "*.h")

#: hashed-tree exclusions: modules under a BEHAVIOR_PATHS directory that
#: provably cannot affect results (the wall-clock shim only feeds progress
#: lines), so editing them should not demand a schema bump.
BEHAVIOR_EXCLUDE = frozenset({"src/repro/util/clock.py"})

class Artifact(NamedTuple):
    """One schema-versioned persistent artifact guarded by rule R2."""

    #: human name used in violation messages ("disk-cache", "trace-store").
    noun: str
    #: module and constant holding the artifact's schema version.
    schema_module: str
    schema_constant: str
    #: BEHAVIOR_PATHS-style entries the artifact's contents depend on.
    paths: Tuple[str, ...]
    #: manifest JSON keys for the version and the hash map.
    version_key: str
    files_key: str


#: checked in order; the first entry is the always-required result cache,
#: later entries activate only when their schema module exists in the tree.
ARTIFACTS: Tuple[Artifact, ...] = (
    Artifact(
        noun="disk-cache",
        schema_module=SCHEMA_MODULE,
        schema_constant=SCHEMA_CONSTANT,
        paths=BEHAVIOR_PATHS,
        version_key="schema_version",
        files_key="files",
    ),
    Artifact(
        noun="trace-store",
        schema_module=TRACE_SCHEMA_MODULE,
        schema_constant=TRACE_SCHEMA_CONSTANT,
        paths=TRACE_PATHS,
        version_key="trace_schema_version",
        files_key="trace_files",
    ),
)


def active_artifacts(project: Project) -> List[Artifact]:
    """The artifacts present in *project* (the result cache is required)."""
    return [
        artifact
        for index, artifact in enumerate(ARTIFACTS)
        if index == 0 or project.exists(artifact.schema_module)
    ]


def artifact_files(project: Project, artifact: Artifact) -> List[str]:
    """Sorted relative paths of every source covered by one artifact.

    Entries that do not exist are skipped rather than raised on: a deleted
    behavior module then surfaces as a manifest/tree mismatch in rule R2
    (with a fix-it hint) instead of aborting the whole lint run.  This also
    lets the rule's own unit tests lint small synthetic trees.
    """
    files: List[str] = []
    for entry in artifact.paths:
        if entry.endswith(".py"):
            if project.exists(entry):
                files.append(entry)
        else:
            files.extend(project.iter_files(entry, SOURCE_PATTERNS))
    return sorted(path for path in set(files) if path not in BEHAVIOR_EXCLUDE)


def artifact_hashes(project: Project, artifact: Artifact) -> Dict[str, str]:
    """SHA-256 of each covered module's newline-normalized source."""
    return {
        path: hashlib.sha256(project.source(path).encode("utf-8")).hexdigest()
        for path in artifact_files(project, artifact)
    }


def artifact_schema_version(project: Project, artifact: Artifact) -> int:
    """Statically read an artifact's schema constant from its module."""
    tree = project.tree(artifact.schema_module)
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == artifact.schema_constant:
                if isinstance(value, ast.Constant) and isinstance(value.value, int):
                    return value.value
                raise LintError(
                    f"{artifact.schema_module}: {artifact.schema_constant} must "
                    "be a literal int so cache invalidation stays statically "
                    "checkable"
                )
    raise LintError(
        f"{artifact.schema_module}: no {artifact.schema_constant} assignment found"
    )


def behavior_files(project: Project) -> List[str]:
    """Result-cache artifact coverage (the full behavior surface)."""
    return artifact_files(project, ARTIFACTS[0])


def compute_hashes(project: Project) -> Dict[str, str]:
    """Result-cache artifact hashes."""
    return artifact_hashes(project, ARTIFACTS[0])


def current_schema_version(project: Project) -> int:
    """Statically read ``SCHEMA_VERSION`` from the diskcache module."""
    return artifact_schema_version(project, ARTIFACTS[0])


def load_manifest(project: Project) -> Optional[Dict[str, Any]]:
    """Parsed committed manifest, or None when absent."""
    if not project.exists(MANIFEST_PATH):
        return None
    try:
        data = json.loads(project.source(MANIFEST_PATH))
    except ValueError as error:
        raise LintError(f"{MANIFEST_PATH}: invalid JSON: {error}") from None
    if not isinstance(data, dict) or "files" not in data:
        raise LintError(f"{MANIFEST_PATH}: expected an object with a 'files' map")
    return data


def update_manifest(project: Project) -> Dict[str, Any]:
    """Rewrite the manifest from the current tree; returns what was written."""
    manifest: Dict[str, Any] = {
        "_comment": (
            "Generated by `python -m repro.lint --update-manifest`. Per "
            "schema-versioned artifact (disk cache, trace store): hashes of "
            "every module its contents depend on, taken under the recorded "
            "schema version. Do not edit by hand."
        ),
    }
    for artifact in active_artifacts(project):
        manifest[artifact.version_key] = artifact_schema_version(project, artifact)
        manifest[artifact.files_key] = artifact_hashes(project, artifact)
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    target = project.path(MANIFEST_PATH)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")
    # Drop stale cached copies so a subsequent check in the same process
    # sees the rewrite.
    project._sources.pop(MANIFEST_PATH, None)
    project._trees.pop(MANIFEST_PATH, None)
    project._hashes.pop(MANIFEST_PATH, None)
    project._facts.pop(MANIFEST_PATH, None)
    return manifest
