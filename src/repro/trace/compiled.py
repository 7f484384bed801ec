"""Compiled (pre-lowered) traces: packed line-visit columns + file format.

:func:`~repro.trace.stream.iter_line_visits` lowers block events to line
visits lazily, allocating one generator frame and one ``LineVisit`` tuple
per visit — fine for a single pass, wasteful when the same trace replays
across a line-size sweep or a pool of worker processes.  A
:class:`CompiledTrace` materializes that stream **once** into parallel
packed columns (``array`` typecodes keep them compact and index-addressable
with no per-visit allocation):

- ``lines``   (``'q'``) — cache-line index per visit;
- ``kinds``   (``'b'``) — :class:`~repro.isa.TransitionKind` as int;
- ``ninstr``  (``'i'``) — instructions executed in the visit;
- ``data``    (``'q'``) — flat byte addresses of all data accesses, with
  ``offsets`` (``'q'``, ``n_visits + 1`` entries) delimiting each visit's
  slice;
- ``disc``    (``'b'``) — precomputed "this visit is a discontinuity from
  the previous one" flag (:func:`~repro.isa.classify.is_discontinuity`
  depends only on trace content, so it is compile-time constant).

:meth:`CompiledTrace.iter_visits` reproduces the generator's output
*exactly* (property-tested), and :class:`~repro.core.engine.CoreEngine`
consumes the columns directly by index on its fast path.

The on-disk form (see :mod:`repro.trace.store` for the keyed store) is a
little-endian binary file: magic, the :func:`~repro.version.code_hash` of
the code that wrote it, the full provenance key (workload, seed, core,
n_instructions, line_size), column lengths, a CRC-32 of the column
payload, and an exact-length check.  Any mismatch — wrong magic, other
code, truncation, bit rot, provenance that does not match the requested
key — raises :class:`CompiledTraceError`, which callers treat as a miss
and recompile.  Because the code hash covers every source file of the
package (the compiled synthesizer's C unit and this layout included), a
file written before any edit is never read back after it.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from typing import Iterator, List, Tuple, Union

from repro import version
from repro.isa.classify import is_discontinuity
from repro.isa.kinds import TransitionKind
from repro.trace.stream import LineVisit, Trace, iter_line_visits

_MAGIC = b"RPCTRC01"

#: fixed-size header: magic, code hash (raw SHA-256), line_size, seed, core,
#: n_instructions, n_visits, n_data, payload crc32, workload-name length,
#: trace-name length.
_HEADER = struct.Struct("<8s32sIqiQQQIHH")

_KIND_MEMBERS = list(TransitionKind)


class CompiledTraceError(ValueError):
    """A compiled-trace blob is corrupt, truncated, stale or mismatched."""


def _column_bytes(column: array) -> bytes:
    """Column payload bytes, normalized to little-endian."""
    if sys.byteorder == "big":
        swapped = array(column.typecode, column)
        swapped.byteswap()
        return swapped.tobytes()
    return column.tobytes()


def _column_from(typecode: str, blob: Union[bytes, memoryview]) -> array:
    column = array(typecode)
    column.frombytes(blob)
    if sys.byteorder == "big":
        column.byteswap()
    return column


class CompiledTrace:
    """Packed, index-addressable form of one core's line-visit stream."""

    __slots__ = (
        "workload",
        "name",
        "seed",
        "core",
        "n_instructions",
        "line_size",
        "lines",
        "kinds",
        "ninstr",
        "data",
        "offsets",
        "disc",
        "l1d_filters",
    )

    def __init__(
        self,
        workload: str,
        name: str,
        seed: int,
        core: int,
        n_instructions: int,
        line_size: int,
        lines: array,
        kinds: array,
        ninstr: array,
        data: array,
        offsets: array,
        disc: array,
    ) -> None:
        self.workload = workload
        self.name = name
        self.seed = seed
        self.core = core
        self.n_instructions = n_instructions
        self.line_size = line_size
        self.lines = lines
        self.kinds = kinds
        self.ninstr = ninstr
        self.data = data
        self.offsets = offsets
        self.disc = disc
        #: the jit kernel's L1D filters of this trace, one per L1D geometry
        #: (:func:`repro.core.jitted.l1d_filter`); they live as long as the
        #: trace, so every run of a memoized trace shares them.
        self.l1d_filters: dict = {}

    @property
    def visit_count(self) -> int:
        return len(self.lines)

    @property
    def total_instructions(self) -> int:
        return sum(self.ninstr)

    def __len__(self) -> int:
        return len(self.lines)

    # ------------------------------------------------------------------ #
    # Compilation and replay
    # ------------------------------------------------------------------ #

    @classmethod
    def compile(
        cls,
        trace: Trace,
        line_size: int,
        workload: str,
        seed: int,
        core: int,
        n_instructions: int,
    ) -> "CompiledTrace":
        """Materialize ``iter_line_visits(trace.events, line_size)``.

        ``workload``/``seed``/``core``/``n_instructions`` are the *request*
        key the store files this trace under — NOT ``trace.seed``: for
        ``mix`` the per-core trace name differs from the workload name, and
        ``trace.seed`` is a derived (hashed, 64-bit) sub-seed, while store
        lookups present the experiment seed.  ``trace.name`` still travels
        along as informational provenance.
        """
        lines = array("q")
        kinds = array("b")
        ninstr = array("i")
        data = array("q")
        offsets = array("q", [0])
        disc = array("b")
        members = _KIND_MEMBERS
        prev = -1
        for line, kind, count, visit_data in iter_line_visits(trace.events, line_size):
            lines.append(line)
            kinds.append(kind)
            ninstr.append(count)
            if visit_data:
                data.extend(visit_data)
            offsets.append(len(data))
            disc.append(
                1
                if prev >= 0 and line != prev and is_discontinuity(members[kind], prev, line)
                else 0
            )
            prev = line
        return cls(
            workload=workload,
            name=trace.name,
            seed=seed,
            core=core,
            n_instructions=n_instructions,
            line_size=line_size,
            lines=lines,
            kinds=kinds,
            ninstr=ninstr,
            data=data,
            offsets=offsets,
            disc=disc,
        )

    def iter_visits(self) -> Iterator[LineVisit]:
        """Replay the exact :func:`iter_line_visits` output (round-trip)."""
        lines, kinds, ninstr = self.lines, self.kinds, self.ninstr
        data, offsets = self.data, self.offsets
        for i in range(len(lines)):
            start, end = offsets[i], offsets[i + 1]
            yield LineVisit(
                lines[i],
                kinds[i],
                ninstr[i],
                tuple(data[start:end]) if end > start else (),
            )

    # ------------------------------------------------------------------ #
    # Binary serialization
    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        workload_raw = self.workload.encode("utf-8")
        name_raw = self.name.encode("utf-8")
        columns = [
            _column_bytes(self.lines),
            _column_bytes(self.kinds),
            _column_bytes(self.ninstr),
            _column_bytes(self.disc),
            _column_bytes(self.offsets),
            _column_bytes(self.data),
        ]
        crc = 0
        for blob in columns:
            crc = zlib.crc32(blob, crc)
        header = _HEADER.pack(
            _MAGIC,
            bytes.fromhex(version.code_hash()),
            self.line_size,
            self.seed,
            self.core,
            self.n_instructions,
            len(self.lines),
            len(self.data),
            crc & 0xFFFFFFFF,
            len(workload_raw),
            len(name_raw),
        )
        return b"".join([header, workload_raw, name_raw] + columns)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CompiledTrace":
        if len(blob) < _HEADER.size:
            raise CompiledTraceError(
                f"blob too short for header ({len(blob)} < {_HEADER.size} bytes)"
            )
        (
            magic,
            written_by,
            line_size,
            seed,
            core,
            n_instructions,
            n_visits,
            n_data,
            crc_expected,
            workload_len,
            name_len,
        ) = _HEADER.unpack_from(blob)
        if magic != _MAGIC:
            raise CompiledTraceError(f"bad magic {magic!r} (expected {_MAGIC!r})")
        if written_by.hex() != version.code_hash():
            raise CompiledTraceError(
                f"written by other code {written_by.hex()[:12]} "
                f"(current {version.code_hash()[:12]})"
            )
        sizes = [n_visits * 8, n_visits, n_visits * 4, n_visits, (n_visits + 1) * 8, n_data * 8]
        expected_len = _HEADER.size + workload_len + name_len + sum(sizes)
        if len(blob) != expected_len:
            raise CompiledTraceError(
                f"length mismatch: {len(blob)} bytes, expected {expected_len} "
                "(truncated or trailing garbage)"
            )
        pos = _HEADER.size
        workload = blob[pos : pos + workload_len].decode("utf-8")
        pos += workload_len
        name = blob[pos : pos + name_len].decode("utf-8")
        pos += name_len
        # Slices of a memoryview copy nothing: each column is copied once,
        # into its array.
        payload = memoryview(blob)[pos:]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc_expected:
            raise CompiledTraceError("payload checksum mismatch (corrupt columns)")
        chunks: List[memoryview] = []
        for size in sizes:
            chunks.append(payload[:size])
            payload = payload[size:]
        offsets = _column_from("q", chunks[4])
        if offsets[0] != 0 or offsets[-1] != n_data:
            raise CompiledTraceError("offsets column inconsistent with data length")
        return cls(
            workload=workload,
            name=name,
            seed=seed,
            core=core,
            n_instructions=n_instructions,
            line_size=line_size,
            lines=_column_from("q", chunks[0]),
            kinds=_column_from("b", chunks[1]),
            ninstr=_column_from("i", chunks[2]),
            disc=_column_from("b", chunks[3]),
            offsets=offsets,
            data=_column_from("q", chunks[5]),
        )


#: what :class:`~repro.cmp.system.System` / the engine accept per core.
TraceLike = Union[Trace, CompiledTrace]


def compile_traces(
    traces: List[Trace],
    line_size: int,
    workload: str,
    seed: int,
    n_instructions: int,
) -> List[CompiledTrace]:
    """Compile one trace per core under a shared request key."""
    return [
        CompiledTrace.compile(
            trace,
            line_size,
            workload=workload,
            seed=seed,
            core=core,
            n_instructions=n_instructions,
        )
        for core, trace in enumerate(traces)
    ]


def visits_equal(compiled: CompiledTrace, trace: Trace) -> Tuple[bool, int]:
    """Exhaustively compare a compiled trace against the live lowering.

    Returns ``(equal, first_mismatch_index)`` (index is -1 when equal);
    used by tests and by ``scripts/profile_engine.py --verify``.
    """
    live = iter_line_visits(trace.events, compiled.line_size)
    for index, replayed in enumerate(compiled.iter_visits()):
        expected = next(live, None)
        if expected != replayed:
            return False, index
    if next(live, None) is not None:
        return False, compiled.visit_count
    return True, -1
