"""Unit tests for the compiled-trace binary format and on-disk store.

The store's contract is "never serve a wrong trace, never crash on a bad
file": corruption, truncation, stale schema and mislabeled files must all
read as misses that the caller answers by recompiling.
"""

import os

import pytest

from repro.envvars import REPRO_TRACE_DIR, REPRO_TRACE_STORE
from repro.eval.runner import (
    clear_trace_cache,
    get_compiled_traces,
    get_traces,
)
from repro.trace import store
from repro import version
from repro.trace.compiled import CompiledTrace, CompiledTraceError
from repro.trace.record import BlockEvent
from repro.trace.stream import Trace


KEY = dict(workload="manual", seed=3, core=0, n_instructions=500)


def make_compiled(line_size=64, **overrides):
    params = dict(KEY)
    params.update(overrides)
    events = [
        BlockEvent(0x1000, 16, 0, (0x9000, 0x9008)),
        BlockEvent(0x1040, 40, 2, ()),
        BlockEvent(0x1040, 4, 0, (0x9010,)),
    ]
    trace = Trace("manual", 77, events)
    return CompiledTrace.compile(trace, line_size, **params)


class TestBinaryFormat:
    def test_roundtrip(self):
        compiled = make_compiled()
        loaded = CompiledTrace.from_bytes(compiled.to_bytes())
        assert list(loaded.iter_visits()) == list(compiled.iter_visits())
        assert loaded.workload == "manual"
        assert loaded.seed == 3
        assert loaded.name == "manual"

    def test_truncation_raises(self):
        blob = make_compiled().to_bytes()
        for cut in (0, 4, len(blob) // 2, len(blob) - 1):
            with pytest.raises(CompiledTraceError):
                CompiledTrace.from_bytes(blob[:cut])

    def test_trailing_garbage_raises(self):
        blob = make_compiled().to_bytes()
        with pytest.raises(CompiledTraceError):
            CompiledTrace.from_bytes(blob + b"\x00")

    def test_payload_corruption_raises(self):
        blob = bytearray(make_compiled().to_bytes())
        blob[-3] ^= 0xFF  # flip bits inside the data column
        with pytest.raises(CompiledTraceError, match="checksum"):
            CompiledTrace.from_bytes(bytes(blob))

    def test_bad_magic_raises(self):
        blob = bytearray(make_compiled().to_bytes())
        blob[0] ^= 0xFF
        with pytest.raises(CompiledTraceError, match="magic"):
            CompiledTrace.from_bytes(bytes(blob))

    def test_stale_schema_raises(self):
        # The header's version field is the writer's code hash (raw SHA-256
        # after the 8-byte magic); a file from other code never loads.
        blob = bytearray(make_compiled().to_bytes())
        assert bytes(blob[8:40]) == bytes.fromhex(version.code_hash())
        blob[8] ^= 0xFF
        with pytest.raises(CompiledTraceError, match="other code"):
            CompiledTrace.from_bytes(bytes(blob))


class TestStore:
    def test_store_then_load(self):
        compiled = make_compiled()
        assert store.store(compiled)
        loaded = store.load(**KEY, line_size=64)
        assert loaded is not None
        assert list(loaded.iter_visits()) == list(compiled.iter_visits())
        assert store.entry_count() == 1

    def test_missing_file_is_a_miss(self):
        assert store.load("nosuch", 1, 0, 100, 64) is None

    def test_corrupt_file_is_a_miss_not_a_crash(self):
        compiled = make_compiled()
        store.store(compiled)
        path = store.path_for(line_size=64, **KEY)
        path.write_bytes(path.read_bytes()[:-5])
        assert store.load(**KEY, line_size=64) is None

    def test_mislabeled_file_is_a_miss(self):
        # Internally consistent file filed under a different key (renamed).
        compiled = make_compiled()
        store.store(compiled)
        src = store.path_for(line_size=64, **KEY)
        dst = store.path_for("other", 3, 0, 500, 64)
        os.replace(src, dst)
        assert store.load("other", 3, 0, 500, 64) is None

    def test_disable_env(self, monkeypatch):
        monkeypatch.setenv(REPRO_TRACE_STORE, "0")
        assert not store.store(make_compiled())
        assert store.load(**KEY, line_size=64) is None
        assert not store.enabled()

    def test_clear(self):
        store.store(make_compiled())
        assert store.clear() == 1
        assert store.entry_count() == 0

    def test_trace_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(REPRO_TRACE_DIR, str(tmp_path / "override"))
        assert store.trace_dir() == tmp_path / "override"
        monkeypatch.delenv(REPRO_TRACE_DIR)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert store.trace_dir() == tmp_path / "cache" / "traces"


class TestRunnerIntegration:
    """get_compiled_traces resolves memo → store → synthesize+compile."""

    def setup_method(self):
        clear_trace_cache()

    def test_compile_populates_store_and_warm_load_skips_synthesis(self):
        first = get_compiled_traces("db", 1, 20_000, seed=11, line_size=64)
        assert store.entry_count() == 1
        clear_trace_cache()
        again = get_compiled_traces("db", 1, 20_000, seed=11, line_size=64)
        assert list(again[0].lines) == list(first[0].lines)
        assert list(again[0].data) == list(first[0].data)

    def test_store_keys_include_line_size(self):
        get_compiled_traces("db", 1, 20_000, seed=11, line_size=32)
        get_compiled_traces("db", 1, 20_000, seed=11, line_size=128)
        assert store.entry_count() == 2

    def test_corrupt_store_entry_recompiles(self):
        get_compiled_traces("db", 1, 20_000, seed=11, line_size=64)
        path = store.path_for("db", 11, 0, 20_000, 64)
        path.write_bytes(b"garbage")
        clear_trace_cache()
        traces = get_compiled_traces("db", 1, 20_000, seed=11, line_size=64)
        assert traces[0].visit_count > 0
        # The bad entry was overwritten with a good one.
        assert store.load("db", 11, 0, 20_000, 64) is not None

    def test_compiled_matches_live_lowering(self):
        compiled = get_compiled_traces("db", 1, 20_000, seed=11, line_size=64)[0]
        raw = get_traces("db", 1, 20_000, seed=11)[0]
        from repro.trace.compiled import visits_equal

        equal, mismatch = visits_equal(compiled, raw)
        assert equal, f"first mismatch at visit {mismatch}"
