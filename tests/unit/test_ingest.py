"""External PC-stream ingestion: parsing, classification, persistence and
round-trip bit-identity through the compiled-trace store."""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.envvars import REPRO_EXTERNAL_TRACES
from repro.isa.kinds import TransitionKind
from repro.trace import ingest
from repro.trace import io as trace_io
from repro.trace import store as trace_store
from repro.trace.compiled import CompiledTrace
from repro.trace.io import read_trace

SEQ = int(TransitionKind.SEQUENTIAL)
CALL = int(TransitionKind.CALL)
RET = int(TransitionKind.RETURN)
COND_FWD = int(TransitionKind.COND_TAKEN_FWD)
COND_BWD = int(TransitionKind.COND_TAKEN_BWD)
JUMP = int(TransitionKind.JUMP)


@pytest.fixture(autouse=True)
def isolated_dirs(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_EXTERNAL_TRACES", str(tmp_path / "external"))
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))


class TestParsing:
    def test_text_accepts_prefixes_comments_and_blanks(self):
        lines = ["0x1000", "", "# header", "1004  # inline", "  0x1008  "]
        assert ingest.parse_text(lines) == [0x1000, 0x1004, 0x1008]

    def test_text_bad_token_names_the_line(self):
        with pytest.raises(ingest.IngestError, match="line 2.*'zz'"):
            ingest.parse_text(["0x1000", "zz"])

    def test_text_rejects_out_of_range_pc(self):
        with pytest.raises(ingest.IngestError, match="u64 range"):
            ingest.parse_text(["1" + "0" * 16])

    def test_binary_roundtrip(self):
        pcs = [0x1000, 0x1004, 0xFFFF_FFFF_FFFF_FFFF]
        blob = struct.pack(f"<{len(pcs)}Q", *pcs)
        assert ingest.parse_binary(blob) == pcs

    def test_binary_rejects_ragged_length(self):
        with pytest.raises(ingest.IngestError, match="multiple of 8"):
            ingest.parse_binary(b"\x00" * 12)

    def test_empty_stream_rejected(self):
        with pytest.raises(ingest.IngestError, match="empty"):
            ingest.events_from_pcs([])

    def test_invalid_name_rejected(self):
        with pytest.raises(ingest.IngestError, match="invalid external trace name"):
            ingest.validate_name("../evil")


class TestClassification:
    def test_sequential_run_collapses_to_one_block(self):
        events = ingest.events_from_pcs([0x1000 + 4 * i for i in range(10)])
        assert len(events) == 1
        assert events[0].addr == 0x1000
        assert events[0].ninstr == 10
        assert events[0].kind == SEQ

    def test_call_and_return(self):
        pcs = [0x1000, 0x1004, 0x9000, 0x9004, 0x1008, 0x100C]
        events = ingest.events_from_pcs(pcs)
        assert [(e.addr, e.ninstr, e.kind) for e in events] == [
            (0x1000, 2, SEQ),
            (0x9000, 2, CALL),
            (0x1008, 2, RET),
        ]

    def test_short_forward_branch_is_conditional(self):
        events = ingest.events_from_pcs([0x1000, 0x1100])
        assert events[1].kind == COND_FWD

    def test_backward_branch_is_loop(self):
        events = ingest.events_from_pcs([0x1000, 0x1004, 0x1000])
        assert events[1].kind == COND_BWD

    def test_far_backward_transfer_is_jump(self):
        events = ingest.events_from_pcs([0x90000, 0x1000])
        assert events[1].kind == JUMP

    def test_instruction_count_is_preserved(self):
        pcs = [0x1000, 0x1004, 0x9000, 0x1008, 0x2000, 0x2004]
        events = ingest.events_from_pcs(pcs)
        assert sum(e.ninstr for e in events) == len(pcs)


class TestPersistence:
    def test_ingest_file_writes_trace_and_manifest(self, tmp_path):
        stream = tmp_path / "s.txt"
        stream.write_text("0x1000\n0x1004\n0x9000\n")
        manifest = ingest.ingest_file(stream, name="s")
        assert manifest["n_pcs"] == 3
        assert manifest["format"] == "text"
        assert ingest.external_exists("s")
        assert ingest.available_external() == ["s"]
        on_disk = json.loads(ingest.manifest_path("s").read_text())
        assert on_disk["sha256"] == manifest["sha256"]

    def test_reingest_unchanged_is_noop(self, tmp_path):
        stream = tmp_path / "s.txt"
        stream.write_text("0x1000\n")
        first = ingest.ingest_file(stream, name="s")
        again = ingest.ingest_file(stream, name="s")
        assert "unchanged" not in first
        assert again["unchanged"] is True

    def test_changed_source_reingests(self, tmp_path):
        stream = tmp_path / "s.txt"
        stream.write_text("0x1000\n")
        first = ingest.ingest_file(stream, name="s")
        stream.write_text("0x2000\n0x2004\n")
        second = ingest.ingest_file(stream, name="s")
        assert second["sha256"] != first["sha256"]
        assert "unchanged" not in second
        assert ingest.load_external("s").events[0].addr == 0x2000

    def test_failed_reingest_leaves_the_previous_trace_whole(self, tmp_path, monkeypatch):
        """Event packing that fails after the header leaves the previous
        ``.trc`` byte-identical under its manifest, so re-ingesting the old
        source is still a no-op over a readable trace."""
        stream = tmp_path / "s.txt"
        old_text = "0x1000\n0x1004\n0x9000\n"
        stream.write_text(old_text)
        ingest.ingest_file(stream, name="s")
        trace_before = ingest.trace_path("s").read_bytes()
        manifest_before = ingest.manifest_path("s").read_bytes()

        real_event = trace_io._EVENT

        class FailingEvent:
            size = real_event.size

            def pack(self, *fields):
                raise OSError("the disk gave out mid-trace")

        monkeypatch.setattr(trace_io, "_EVENT", FailingEvent())
        stream.write_text("0x2000\n0x2004\n")
        with pytest.raises(OSError, match="mid-trace"):
            ingest.ingest_file(stream, name="s")
        monkeypatch.setattr(trace_io, "_EVENT", real_event)

        assert ingest.trace_path("s").read_bytes() == trace_before
        assert ingest.manifest_path("s").read_bytes() == manifest_before
        stream.write_text(old_text)
        assert ingest.ingest_file(stream, name="s")["unchanged"] is True
        assert ingest.load_external("s").events[0].addr == 0x1000

    def test_unwritable_directory_raises_an_ingest_error(self, tmp_path, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        monkeypatch.setenv(REPRO_EXTERNAL_TRACES, str(blocker / "external"))
        stream = tmp_path / "s.txt"
        stream.write_text("0x1000\n")
        with pytest.raises(ingest.IngestError, match="cannot write external trace 's'"):
            ingest.ingest_file(stream, name="s")

    def test_load_missing_raises(self):
        with pytest.raises(ingest.IngestError, match="not ingested"):
            ingest.load_external("ghost")


# A plausible PC-stream shape: short sequential runs stitched by taken
# branches of every distance class (the absolute PCs stay within u64).
_pc_runs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**40),  # run start
        st.integers(min_value=1, max_value=20),  # run length
    ),
    min_size=1,
    max_size=30,
)


@st.composite
def pc_streams(draw):
    pcs = []
    for start, length in draw(_pc_runs):
        pcs.extend(start + 4 * i for i in range(length))
    return pcs


class TestRoundTrip:
    # the autouse env-isolation fixture is function-scoped by design; the
    # store path is collision-safe across examples (atomic overwrite).
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(stream=pc_streams())
    def test_text_to_store_and_back_is_bit_identical(self, tmp_path_factory, stream):
        """text → Trace → RPTRACE1 → CompiledTrace → store → load preserves
        every field bit-for-bit."""
        text = "\n".join(hex(pc) for pc in stream)
        trace, _ = ingest.ingest_bytes("rt", text.encode("utf-8"))
        assert sum(e.ninstr for e in trace.events) == len(stream)

        # RPTRACE1 round-trip
        path = tmp_path_factory.mktemp("rt") / "rt.trc"
        from repro.trace.io import write_trace

        write_trace(trace, path)
        loaded = read_trace(path)
        assert list(loaded.events) == list(trace.events)
        assert (loaded.name, loaded.seed) == (trace.name, trace.seed)

        # compiled + store round-trip
        budget = max(1, len(stream) // 2)
        compiled = CompiledTrace.compile(
            trace, 64, workload="external:rt", seed=1, core=0, n_instructions=budget
        )
        assert trace_store.store(compiled)
        reloaded = trace_store.load("external:rt", 1, 0, budget, 64)
        assert reloaded is not None
        for field in ("lines", "kinds", "ninstr", "data", "offsets", "disc"):
            assert getattr(reloaded, field) == getattr(compiled, field), field

    def test_compile_external_matches_direct_compilation(self, tmp_path):
        stream = tmp_path / "s.txt"
        stream.write_text("\n".join(hex(0x4000 + 4 * (i % 32)) for i in range(256)))
        ingest.ingest_file(stream, name="s")
        assert ingest.compile_external("s", 2, 500) == 2
        for core, trace in enumerate(ingest.external_traces("s", 2, 500)):
            direct = CompiledTrace.compile(
                trace, 64, workload="external:s", seed=1337, core=core, n_instructions=500
            )
            stored = trace_store.load("external:s", 1337, core, 500, 64)
            assert stored is not None
            assert stored.lines == direct.lines
            assert stored.ninstr == direct.ninstr
