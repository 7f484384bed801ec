"""One robustness suite for both persistent stores.

The result cache (:mod:`repro.eval.diskcache`) and the compiled-trace store
(:mod:`repro.trace.store`) share their file mechanics
(:class:`repro.util.filestore.EntryDir`); each case runs against both.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pytest

import repro
from repro import version
from repro.cmp.link import OffChipLink
from repro.cmp.system import SystemConfig, SystemResult
from repro.core.metrics import CoreStats
from repro.envvars import REPRO_CACHE_DIR, REPRO_TRACE_DIR
from repro.eval import diskcache
from repro.eval.runspec import RunSpec
from repro.trace import store as trace_store
from repro.trace.compiled import CompiledTrace
from repro.trace.record import BlockEvent
from repro.trace.stream import Trace
from repro.util import filestore


@dataclass
class Store:
    """One store behind a common face: write the entry, load it, find it."""

    dir_env: str
    locate: Callable[[], Path]
    write: Callable[[], bool]
    load: Callable[[], Any]
    path: Callable[[], Path]
    entry_count: Callable[[], int]


def _result_cache() -> Store:
    spec = RunSpec.create("db", 1, "none", scale="smoke")
    core = CoreStats(instructions=1000, cycles=1234.5, l1i_fetches=300, l1i_misses=7)
    result = SystemResult(
        SystemConfig(n_cores=1), [core], OffChipLink(bytes_per_cycle=2.0, line_size=64)
    )
    return Store(
        REPRO_CACHE_DIR,
        diskcache.cache_dir,
        lambda: diskcache.store(spec, diskcache.encode(spec, result)),
        lambda: diskcache.load(spec),
        lambda: diskcache.path_for(spec),
        diskcache.entry_count,
    )


def _trace_store() -> Store:
    events = [BlockEvent(0x1000, 16, 0, (0x9000,)), BlockEvent(0x1040, 8, 2, ())]
    key = dict(workload="manual", seed=3, core=0, n_instructions=24)
    compiled = CompiledTrace.compile(Trace("manual", 3, events), 64, **key)
    return Store(
        REPRO_TRACE_DIR,
        trace_store.trace_dir,
        lambda: trace_store.store(compiled),
        lambda: trace_store.load(**key, line_size=64),
        lambda: trace_store.path_for(**key, line_size=64),
        trace_store.entry_count,
    )


@pytest.fixture(params=[_result_cache, _trace_store], ids=["result-cache", "trace-store"])
def entries(request) -> Store:
    return request.param()


def test_truncated_entry_is_a_miss(entries):
    assert entries.write()
    path = entries.path()
    blob = path.read_bytes()
    for cut in (0, 1, len(blob) // 2, len(blob) - 1):
        path.write_bytes(blob[:cut])
        assert entries.load() is None
    assert entries.write()
    assert entries.load() is not None


def test_first_write_sweeps_stale_tmp_files(entries):
    directory = entries.locate()
    directory.mkdir(parents=True, exist_ok=True)
    stale = directory / "orphan.tmp"
    stale.write_bytes(b"partial write of a crashed process")
    ancient = 1_000_000_000  # far older than TMP_MAX_AGE_SECONDS
    os.utime(stale, (ancient, ancient))
    live = directory / "live.tmp"
    live.write_bytes(b"a concurrent writer's file")

    assert entries.write()
    assert not stale.exists()
    assert live.exists()
    assert entries.path().stat().st_mode & 0o777 == filestore.ENTRY_MODE


def test_unwritable_directory_degrades_to_no_store(entries, tmp_path, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the directory should be")
    monkeypatch.setenv(entries.dir_env, str(blocker / "store"))
    assert not entries.write()
    assert entries.load() is None
    assert entries.entry_count() == 0


def test_entry_from_other_code_is_a_miss_and_is_overwritten(entries, monkeypatch):
    assert entries.write()
    monkeypatch.setattr(version, "code_hash", lambda: "0" * 64)
    assert entries.load() is None
    assert entries.write()
    assert entries.load() is not None
    assert entries.entry_count() == 1


#: one writer process: announce readiness, wait for the start signal, then
#: overwrite one entry with its own payload, again and again.
_WRITER = """
import sys, time
from pathlib import Path
from repro.util.filestore import EntryDir

directory, fill = Path(sys.argv[1]), sys.argv[2]
entries = EntryDir(lambda: directory, ".bin")
payload = fill.encode() * (4 << 20)
(directory.parent / ("ready-" + fill)).touch()
while not (directory.parent / "go").exists():
    time.sleep(0.001)
for _ in range(10):
    assert entries.write("shared", payload)
"""


def test_concurrent_writers_leave_one_whole_entry(tmp_path):
    """Two processes writing one entry at once leave exactly one whole,
    readable entry and no tmp file."""
    directory = tmp_path / "store"
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", _WRITER, str(directory), fill], env=env
        )
        for fill in "ab"
    ]
    try:
        deadline = time.monotonic() + 60
        while not all((tmp_path / f"ready-{fill}").exists() for fill in "ab"):
            assert all(writer.poll() is None for writer in writers)
            assert time.monotonic() < deadline, "writers never became ready"
            time.sleep(0.01)
        (tmp_path / "go").touch()
        assert [writer.wait(timeout=120) for writer in writers] == [0, 0]
    finally:
        for writer in writers:
            if writer.poll() is None:
                writer.kill()
                writer.wait()
    assert sorted(path.name for path in directory.iterdir()) == ["shared.bin"]
    data = filestore.EntryDir(lambda: directory, ".bin").read("shared")
    assert data in (b"a" * (4 << 20), b"b" * (4 << 20))
