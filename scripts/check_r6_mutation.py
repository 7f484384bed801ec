#!/usr/bin/env python3
"""CI mutation check: prove lint rule R6 catches backend drift.

Behaviourally mutates one fingerprinted reference hot path
(``CoreEngine._process_visit``) by inserting a statement into its body,
expects ``python -m repro.lint --rules R6`` to exit non-zero naming the
jit counterpart (the kernel's engine C unit), then restores the file
byte-for-byte.  A zero exit
from the mutated tree means the drift detector has gone silent — this
script (and the CI lint job running it) fails in that case.

Run from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import ast
import pathlib
import subprocess
import sys

TARGET = pathlib.Path("src/repro/core/engine.py")
CLASS_NAME = "CoreEngine"
FUNC_NAME = "_process_visit"
COUNTERPART = "src/repro/core/kernel/engine.c"


def mutate(source: str) -> str:
    """Insert a statement at the top of the target method's body."""
    tree = ast.parse(source)
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name == CLASS_NAME):
            continue
        for member in node.body:
            if (
                isinstance(member, ast.FunctionDef)
                and member.name == FUNC_NAME
            ):
                lineno = member.body[0].lineno
                lines = source.split("\n")
                anchor = lines[lineno - 1]
                indent = anchor[: len(anchor) - len(anchor.lstrip())]
                lines.insert(lineno - 1, f"{indent}_r6_mutation_probe = 0")
                return "\n".join(lines)
    raise SystemExit(f"{TARGET}: {CLASS_NAME}.{FUNC_NAME} not found")


def main() -> int:
    original = TARGET.read_text(encoding="utf-8")
    TARGET.write_text(mutate(original), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--rules", "R6", "--no-cache"],
            capture_output=True,
            text=True,
        )
    finally:
        TARGET.write_text(original, encoding="utf-8")
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode == 0:
        print(
            "R6 mutation check FAILED: a behavioural reference-engine edit "
            "went undetected",
            file=sys.stderr,
        )
        return 1
    if COUNTERPART not in proc.stdout:
        print(
            "R6 mutation check FAILED: the violation does not name the "
            f"jit counterpart ({COUNTERPART})",
            file=sys.stderr,
        )
        return 1
    print("R6 mutation check OK: drift detected, counterpart named")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
