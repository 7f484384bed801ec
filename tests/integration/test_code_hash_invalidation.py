"""An edit to the simulator can never serve entries written before it.

The test copies the ``repro`` package to a scratch directory, fills a
result cache and a trace store from that copy in one process, edits the
copy's ``core/engine.py``, and probes both stores from a fresh process:
every entry written before the edit must read as a miss.  A rerun then
overwrites the stale entries in place, so disk use stays bounded.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: runs inside the scratch copy; ``write`` fills both stores, ``probe``
#: reports which entries load.  Uses only long-standing store APIs.
SCRIPT = textwrap.dedent(
    """
    import json
    import sys

    from repro.eval import diskcache
    from repro.eval.profiles import ExperimentScale
    from repro.eval.runner import trace_budget
    from repro.eval.runspec import RunSpec
    from repro.trace import store

    scale = ExperimentScale(
        name="tiny",
        warm_instructions=2_000,
        measure_instructions=6_000,
        cmp_measure_instructions=3_000,
    )
    spec = RunSpec.create("db", 2, "next-4-line", scale=scale, engine_backend="reference")
    total, _ = trace_budget(scale, spec.n_cores)
    trace_keys = [("db", spec.seed, core, total, 64) for core in range(spec.n_cores)]
    if sys.argv[1] == "write":
        from repro.eval import executor

        executor.execute_spec(spec)
    print(json.dumps({
        "result": diskcache.load(spec) is not None,
        "traces": [store.load(*key) is not None for key in trace_keys],
        "result_files": diskcache.entry_count(),
        "trace_files": store.entry_count(),
    }))
    """
)


def _run(root: Path, mode: str) -> dict:
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(root / "src"),
        REPRO_CACHE_DIR=str(root / "cache"),
        REPRO_TRACE_DIR=str(root / "traces"),
        REPRO_JIT_CACHE_DIR=str(root / "jit"),
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_engine_edit_invalidates_both_stores(tmp_path):
    package = tmp_path / "src" / "repro"
    shutil.copytree(SRC, package, ignore=shutil.ignore_patterns("__pycache__"))

    written = _run(tmp_path, "write")
    assert written == {"result": True, "traces": [True, True], "result_files": 1, "trace_files": 2}
    assert _run(tmp_path, "probe") == written

    engine = package / "core" / "engine.py"
    engine.write_text(engine.read_text() + "\n_EDITED = True\n")

    stale = _run(tmp_path, "probe")
    assert stale["result"] is False
    assert stale["traces"] == [False, False]

    # A rerun overwrites the stale entries instead of adding new ones.
    assert _run(tmp_path, "write") == written
