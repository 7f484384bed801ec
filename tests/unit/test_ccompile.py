"""The shared C toolchain layer (``repro.util.ccompile``).

Every compiled unit — the jit engine kernel and the trace synthesizer —
is published with a sha256 sidecar and loaded only when the object still
matches it.  A truncated object used to reach ``dlopen`` and kill the
process with ``SIGBUS``; it must now be rebuilt, with identical results.

Python reaches both units' structs only through the ctypes types
:func:`~repro.util.ccompile.struct_types` reads from their typedefs; a
compiled probe of every struct proves the reader against the compiler.
"""

from __future__ import annotations

import ctypes
import json
import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core import jitted
from repro.envvars import REPRO_JIT_CACHE_DIR
from repro.trace.synth import native
from repro.util import ccompile, clock, filestore

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
    assert not list(cache.glob(".*"))


@needs_cc
def test_each_toolchain_call_runs_one_phase_into_a_named_private_file(
    cache, monkeypatch
):
    """The build compiles, assembles and links in three calls, each with
    an explicit ``-o`` under the build's private stem, so the compiler
    driver never makes a temporary file of its own."""
    calls = []
    real_run = subprocess.run

    def recording_run(args, **kwargs):
        calls.append(list(args))
        return real_run(args, **kwargs)

    monkeypatch.setattr(ccompile.subprocess, "run", recording_run)
    ccompile.load("repro_test", UNIT)
    private = f".repro_test_{ccompile.source_hash(UNIT)}.{os.getpid()}.{threading.get_ident()}"
    stem = str(cache / private)
    phases = []
    for argv in calls:
        assert argv.count("-o") == 1, argv
        output = argv[argv.index("-o") + 1]
        (source,) = [arg for arg in argv[1:] if not arg.startswith("-") and arg != output]
        phase = "-S" if "-S" in argv else "-c" if "-c" in argv else "link"
        phases.append((phase, source, output))
    assert phases == [
        ("-S", f"{stem}.c", f"{stem}.s"),
        ("-c", f"{stem}.s", f"{stem}.o"),
        ("link", f"{stem}.o", f"{stem}.so"),
    ]
    assert set(ccompile.COMPILE_FLAGS) <= set(calls[0])
    assert set(ccompile.LINK_FLAGS) <= set(calls[2])
    assert not set(ccompile.LINK_FLAGS) & set(calls[0] + calls[1])


@needs_cc
def test_a_compile_error_leaves_no_intermediate_file(cache):
    with pytest.raises(RuntimeError, match="repro_test compilation failed"):
        ccompile.load("repro_test", "this is not C;\n")
    assert list(cache.iterdir()) == []


@needs_cc
def test_a_build_sweeps_stale_tmp_orphans(cache):
    """A writer that crashed between creating and renaming its ``*.tmp``
    file left an orphan; the next build's publish removes it once it is
    older than the sweep age, and spares a concurrent writer's fresh one."""
    stale = cache / "tmpcrashed.tmp"
    stale.write_bytes(b"half an object")
    hour_ago = clock.now() - filestore.TMP_MAX_AGE_SECONDS - 60
    os.utime(stale, (hour_ago, hour_ago))
    fresh = cache / "tmplive.tmp"
    fresh.write_bytes(b"a concurrent writer's live file")
    ccompile.load("repro_test", UNIT)
    assert not stale.exists()
    assert fresh.exists()


def test_unwritable_cache_dir_raises_and_is_named_once(tmp_path, monkeypatch, caplog):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    monkeypatch.setenv(REPRO_JIT_CACHE_DIR, str(blocker / "jit"))
    monkeypatch.setattr(ccompile, "compiler", lambda: "cc")
    with pytest.raises(RuntimeError, match="cannot write the jit cache"):
        ccompile.load("repro_test", UNIT)
    logger = logging.getLogger("repro.test.ccompile")
    with caplog.at_level(logging.WARNING, logger=logger.name):
        assert ccompile.load_or_warn(
            lambda: ccompile.load("repro_test", UNIT), logger, "widget", "slow path"
        ) is None
    (record,) = [r for r in caplog.records if r.name == logger.name]
    assert "cannot write the jit cache" in record.getMessage()


def test_source_hash_covers_the_link_flags(monkeypatch):
    before = ccompile.source_hash(UNIT)
    monkeypatch.setattr(ccompile, "LINK_FLAGS", (*ccompile.LINK_FLAGS, "-Wl,-O1"))
    assert ccompile.source_hash(UNIT) != before


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


def _layout_rows(structs: dict):
    """``(label, C expression, ctypes value)`` of every struct's size and,
    per field, its offset, its size and, through each pointer or array
    level, the element's size; a scalar also gets its kind (1 signed,
    2 floating)."""
    for name, struct in structs.items():
        yield f"sizeof({name})", f"sizeof({name})", ctypes.sizeof(struct)
        for field, ctype in ccompile.struct_fields(struct):
            label = f"{name}.{field}"
            yield f"{label} offset", f"offsetof({name}, {field})", getattr(struct, field).offset
            expr = f"(({name} *)0)->{field}"
            while True:
                yield f"{label} size", f"sizeof({expr})", ctypes.sizeof(ctype)
                if issubclass(ctype, (ctypes._Pointer, ctypes.Array)):
                    expr, ctype, label = f"({expr})[0]", ctype._type_, f"{label}[0]"
                    continue
                if ctype in ccompile.C_TYPES.values():
                    floating = isinstance(ctype(0).value, float)
                    signed = ctype(-1).value < 0
                    cast = f"(__typeof__({expr}))"
                    yield (
                        f"{label} kind",
                        f"2 * ({cast}0.5 != 0) + ({cast}-1 < 0)",
                        2 * floating + signed,
                    )
                break


def _probe_source(structs: dict) -> tuple:
    rows = list(_layout_rows(structs))
    body = "".join(f"    out[{k}] = {expr};\n" for k, (_, expr, _) in enumerate(rows))
    probe = f"\n#include <stddef.h>\nvoid repro_probe(long long *out) {{\n{body}}}\n"
    return rows, probe


def _object_structs(stem: str) -> tuple:
    """One compiled unit's source and the ctypes types its caller uses
    for the structs that source declares."""
    if stem == "repro_synth":
        return native.source(), native.STRUCTS
    source = jitted.kernel_source(stem)
    return source, {name: jitted.STRUCTS[name] for name in ccompile.struct_types(source)}


def test_every_kernel_struct_is_declared_in_an_object() -> None:
    declared = set()
    for stem in jitted.KERNEL_OBJECTS:
        declared.update(ccompile.struct_types(jitted.kernel_source(stem)))
    assert declared == set(jitted.STRUCTS)


@needs_cc
@pytest.mark.parametrize("stem", [*jitted.KERNEL_OBJECTS, "repro_synth"])
def test_struct_types_match_the_compiled_layout(cache, stem) -> None:
    """Each struct the reader returns has the size, field offsets, field
    sizes, element sizes and scalar kinds the compiler gives it."""
    source, structs = _object_structs(stem)
    assert structs
    rows, probe = _probe_source(structs)
    lib, _ = ccompile.load(f"repro_probe_{stem}", source + probe)
    out = (ctypes.c_longlong * len(rows))()
    lib.repro_probe(out)
    compiled = {label: value for (label, _, _), value in zip(rows, out)}
    assert compiled == {label: value for label, _, value in rows}


def test_a_type_outside_the_table_raises_naming_the_field() -> None:
    source = "typedef struct { long long id; } Tag;\ntypedef struct { Tag tag; float x; } Point;"
    with pytest.raises(ValueError, match=r"Point\.x: C type 'float'"):
        ccompile.struct_types(source)
