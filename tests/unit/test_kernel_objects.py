"""The kernel's shared objects: one core, one per stateful family.

Covers what the split build promises: a family object that cannot be
built sends only that family to reference stepping, the source hash and
the compile-time report cover every object, and concurrent first-use
builds, from threads of one process or from a pooled batch, publish one
object per family and leave no temporary files behind.  No object is
checked against its struct layouts when it loads: every ctypes type is
read from its C typedef (``jitted.STRUCTS``), and ``test_ccompile.py``
proves that reader against the compiler.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cmp.system import System, SystemConfig
from repro.core import jitted
from repro.envvars import REPRO_JIT_CACHE_DIR
from repro.eval.diskcache import _core_to_dict
from repro.eval.runner import get_compiled_traces
from repro.trace.synth import native
from repro.util import ccompile

pytestmark = pytest.mark.skipif(
    not jitted.jit_available(), reason="no C compiler: jit kernel unbuildable"
)

SRC = Path(jitted.__file__).resolve().parents[2]


@pytest.fixture
def fresh_families(monkeypatch):
    """No family object probed yet in this process (restored afterwards)."""
    monkeypatch.setattr(jitted, "_family_libs", {})
    monkeypatch.setattr(jitted, "_family_errors", {})
    monkeypatch.setattr(jitted, "_compile_seconds", {})


def _engine(prefetcher: str):
    config = SystemConfig(prefetcher=prefetcher, engine_backend="jit")
    return System(config, get_compiled_traces("db", 1, 3_000)).engines[0]


def test_a_family_that_fails_to_build_falls_back_alone(monkeypatch, fresh_families) -> None:
    real = jitted._load_object

    def failing(stem):
        if stem == "repro_jit_mana":
            raise RuntimeError("repro_jit_mana compilation failed: boom")
        return real(stem)

    monkeypatch.setattr(jitted, "_load_object", failing)
    system = System(
        SystemConfig(prefetcher="mana", engine_backend="jit"),
        get_compiled_traces("db", 1, 3_000),
    )
    reference = System(
        SystemConfig(prefetcher="mana", engine_backend="reference"),
        get_compiled_traces("db", 1, 3_000),
    )
    assert "boom" in system.engines[0].kernel_fallback_reason()
    assert repr(_core_to_dict(system.run().cores[0])) == repr(
        _core_to_dict(reference.run().cores[0])
    )
    assert system.engines[0].fallback_reason.startswith("kernel object repro_jit_mana")
    assert _engine("markov").kernel_fallback_reason() is None


def test_source_hash_covers_every_object(monkeypatch, tmp_path) -> None:
    before = jitted.kernel_source_hash()
    edited = tmp_path / "kernel"
    edited.mkdir()
    for path in jitted.KERNEL_DIR.iterdir():
        (edited / path.name).write_text(path.read_text())
    (edited / "mana.c").write_text((edited / "mana.c").read_text() + "\n/* edit */\n")
    monkeypatch.setattr(jitted, "KERNEL_DIR", edited)
    jitted.kernel_source.cache_clear()
    try:
        assert jitted.kernel_source_hash() != before
        assert jitted.kernel_source_hash(jitted.CORE) == jitted.ccompile.source_hash(
            jitted.kernel_source(jitted.CORE)
        )
    finally:
        monkeypatch.undo()
        jitted.kernel_source.cache_clear()
    assert jitted.kernel_source_hash() == before


def test_compile_seconds_cover_every_object(monkeypatch, tmp_path, fresh_families) -> None:
    monkeypatch.setenv(REPRO_JIT_CACHE_DIR, str(tmp_path))
    assert jitted.jit_available("repro_jit_mana")
    assert jitted.jit_available("repro_jit_history")
    seconds = jitted._compile_seconds
    assert set(seconds) == {"repro_jit_mana", "repro_jit_history"}
    assert jitted.kernel_compile_seconds() == sum(seconds.values()) > 0.0


def test_concurrent_first_probes_build_each_object_once(
    monkeypatch, tmp_path, fresh_families
) -> None:
    """Threads of one process probing an empty jit cache all get their
    object: each compiles once, and no tmp file is left behind."""
    monkeypatch.setenv(REPRO_JIT_CACHE_DIR, str(tmp_path))
    monkeypatch.setattr(jitted, "_kernel_lib", None)
    monkeypatch.setattr(jitted, "_kernel_probed", False)
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_probed", False)
    monkeypatch.setattr(native, "_compile_seconds", 0.0)
    compiled = []
    real_load = ccompile.load

    def counting_load(stem, source):
        lib, seconds = real_load(stem, source)
        if seconds:
            compiled.append(stem)
        return lib, seconds

    monkeypatch.setattr(ccompile, "load", counting_load)
    stems = ("repro_jit_disc", "repro_jit_mana")
    start = threading.Barrier(4)
    answers = []

    def probe(stem: str) -> None:
        start.wait(timeout=60)
        answers.append((jitted.jit_available(stem), native.available()))

    threads = [threading.Thread(target=probe, args=(stems[i % 2],)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [(True, True)] * 4
    assert sorted(compiled) == sorted((jitted.CORE, "repro_synth") + stems)
    leftovers = [
        path.name
        for path in tmp_path.iterdir()
        if path.name.startswith(".") or path.name.endswith(".tmp")
    ]
    assert leftovers == []


#: a pooled batch starts markov and mana specs on an empty jit cache (the
#: parent builds their objects before the pool starts), then the same
#: specs run serially; prints both payload sets and the cache directory's
#: file names as JSON.
_RACE = """
import json, os
from repro.eval import diskcache, executor
from repro.eval.profiles import ExperimentScale
from repro.eval.runspec import RunSpec

scale = ExperimentScale(
    name="race", warm_instructions=2_000, measure_instructions=6_000,
    cmp_measure_instructions=6_000,
)
specs = [
    RunSpec.create("db", 2, scheme, scale=scale, l2_policy="bypass",
                   engine_backend="jit", prefetcher_overrides={"table_entries": size})
    for scheme in ("markov", "mana") for size in (64, 128)
]

def payloads(results):
    return {spec.describe() + str(spec.overrides): diskcache.result_to_payload(result, spec)
            for spec, result in results.items()}

pooled, _ = executor.run_specs_report(specs, jobs=2)
executor.clear_memo()
serial, _ = executor.run_specs_report(specs, jobs=1)
print(json.dumps({
    "pooled": payloads(pooled),
    "serial": payloads(serial),
    "files": sorted(os.listdir(os.environ["REPRO_JIT_CACHE_DIR"])),
}))
"""


def test_concurrent_first_use_builds_from_pool_workers(tmp_path) -> None:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env[REPRO_JIT_CACHE_DIR] = str(tmp_path / "jit")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["REPRO_DISK_CACHE"] = "0"
    done = subprocess.run(
        [sys.executable, "-c", _RACE], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["pooled"] == out["serial"]
    assert len(out["pooled"]) == 4
    files = out["files"]
    for stem in ("repro_jit_history", "repro_jit_mana"):
        objects = [name for name in files if name.startswith(stem + "_")]
        assert len(objects) == 2, objects  # one .so and its .sha256 sidecar
        assert any(name.endswith(".so") for name in objects)
    assert not [name for name in files if name.startswith(".") or name.endswith(".tmp")]
