"""The shared C toolchain layer (``repro.util.ccompile``).

Every compiled unit — the jit engine kernel and the trace synthesizer —
is published with a sha256 sidecar and loaded only when the object still
matches it.  A truncated object used to reach ``dlopen`` and kill the
process with ``SIGBUS``; it must now be rebuilt, with identical results.
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.envvars import REPRO_JIT_CACHE_DIR
from repro.util import ccompile

SRC = Path(ccompile.__file__).resolve().parents[2]

needs_cc = pytest.mark.skipif(ccompile.compiler() is None, reason="needs a C compiler")

UNIT = "long long repro_answer(void) { return 42; }\n"


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv(REPRO_JIT_CACHE_DIR, str(tmp_path))
    return tmp_path


def _so(cache: Path) -> Path:
    return cache / f"repro_test_{ccompile.source_hash(UNIT)}.so"


@needs_cc
def test_build_publishes_object_and_sidecar(cache):
    lib, seconds = ccompile.load("repro_test", UNIT)
    assert lib.repro_answer() == 42
    assert seconds > 0.0
    sidecar = _so(cache).with_name(_so(cache).name + ".sha256")
    assert sidecar.read_text().strip() == ccompile._digest(_so(cache))
    assert not list(cache.glob(".*.tmp"))


@needs_cc
def test_verified_object_loads_without_compiling(cache, monkeypatch):
    ccompile.load("repro_test", UNIT)

    def no_compiler(*args, **kwargs):
        raise AssertionError("a verified cached object must not be recompiled")

    monkeypatch.setattr(ccompile.subprocess, "run", no_compiler)
    lib, seconds = ccompile.load("repro_test", UNIT)
    assert seconds == 0.0
    assert lib.repro_answer() == 42


@needs_cc
@pytest.mark.parametrize("damage", ["truncate", "drop_sidecar", "stale_sidecar"])
def test_unverified_object_is_rebuilt(cache, damage):
    ccompile.load("repro_test", UNIT)
    so_path = _so(cache)
    good = so_path.read_bytes()
    sidecar = so_path.with_name(so_path.name + ".sha256")
    if damage == "truncate":
        # Replace, not truncate in place: this process has the object mapped.
        so_path.unlink()
        so_path.write_bytes(good[:2000])
    elif damage == "drop_sidecar":
        sidecar.unlink()
    else:
        sidecar.write_text("0" * 64 + "\n")
    assert not ccompile._verified(so_path)
    _, seconds = ccompile.load("repro_test", UNIT)
    assert seconds > 0.0
    assert ccompile._verified(so_path)
    assert len(so_path.read_bytes()) == len(good)


@needs_cc
def test_concurrent_rewrite_of_the_shared_source_cannot_break_a_build(
    cache, monkeypatch
):
    """A concurrent builder of the same unit rewrites ``<stem>_<digest>.c``
    (truncating it first) while this build's compiler runs; the build must
    compile a source file that no other process writes."""
    shared = cache / f"repro_test_{ccompile.source_hash(UNIT)}.c"
    real_run = subprocess.run

    def racing_run(args, **kwargs):
        shared.write_text("")
        return real_run(args, **kwargs)

    monkeypatch.setattr(ccompile.subprocess, "run", racing_run)
    lib, seconds = ccompile.load("repro_test", UNIT)
    assert seconds > 0.0
    assert lib.repro_answer() == 42
    assert not list(cache.glob(".*.c"))


def test_no_compiler_raises_naming_the_cause(cache, monkeypatch):
    monkeypatch.setattr(ccompile, "compiler", lambda: None)
    with pytest.raises(RuntimeError, match="no C compiler"):
        ccompile.load("repro_test", UNIT)


def test_load_or_warn_names_the_cause_once(caplog):
    logger = logging.getLogger("repro.test.ccompile")

    def broken():
        raise OSError("toolchain exploded")

    with caplog.at_level(logging.WARNING, logger=logger.name):
        assert ccompile.load_or_warn(broken, logger, "widget", "using the slow path") is None
    (record,) = [r for r in caplog.records if r.name == logger.name]
    assert record.getMessage() == (
        "widget unavailable (toolchain exploded); using the slow path"
    )
    assert ccompile.load_or_warn(lambda: 7, logger, "widget", "unused") == 7


#: builds both units into the cache directory, runs each, prints the
#: results as JSON.
_PROBE = """
import json
from repro.cmp.system import System, SystemConfig
from repro.core import jitted
from repro.eval import runner
from repro.trace.synth import native

assert jitted.jit_available() and native.available()
traces = runner.get_compiled_traces("web", 2, 4_000, seed=5, line_size=64)
result = System(SystemConfig(n_cores=2, engine_backend="jit"), traces).run()
print(json.dumps({
    "traces": [trace.to_bytes().hex() for trace in traces],
    "ipc": result.aggregate_ipc,
    "cycles": [core.cycles for core in result.cores],
    "kernel_compile_s": jitted.kernel_compile_seconds(),
    "synth_compile_s": native.compile_seconds(),
}))
"""


def _probe(tmp_path: Path) -> dict:
    env = {
        key: value for key, value in os.environ.items() if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    env[REPRO_JIT_CACHE_DIR] = str(tmp_path / "jit")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["REPRO_TRACE_STORE"] = "0"
    done = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@needs_cc
def test_truncated_cached_objects_are_rebuilt_in_a_fresh_process(tmp_path):
    first = _probe(tmp_path)
    assert first["kernel_compile_s"] > 0.0 and first["synth_compile_s"] > 0.0
    objects = sorted((tmp_path / "jit").glob("*.so"))
    assert [path.name.split("_")[1] for path in objects] == ["jit", "synth"]
    sizes = {path: path.stat().st_size for path in objects}
    for path in objects:
        with open(path, "r+b") as handle:
            handle.truncate(2000)
    second = _probe(tmp_path)
    assert second["kernel_compile_s"] > 0.0 and second["synth_compile_s"] > 0.0
    assert {path: path.stat().st_size for path in objects} == sizes
    assert all(ccompile._verified(path) for path in objects)
    for key in ("traces", "ipc", "cycles"):
        assert second[key] == first[key]
    # And the rebuilt objects are now served from the cache.
    third = _probe(tmp_path)
    assert third["kernel_compile_s"] == 0.0 and third["synth_compile_s"] == 0.0
