"""Binary trace file format.

The paper's traces are proprietary; this repo generates synthetic ones.  To
let users snapshot a generated trace (generation is the slowest step for
large runs) or import traces from their own tools, we define a compact
binary format:

Header (little endian)::

    magic     : 8 bytes  = b"RPTRACE1"
    seed      : u64
    n_events  : u64
    name_len  : u16
    name      : utf-8 bytes

Per event::

    addr   : u64   byte address of the block visit
    ninstr : u16   instructions executed
    kind   : u8    TransitionKind value
    ndata  : u8    number of data accesses (capped at 255 at write time)
    data   : ndata * u64

The format is deliberately boring: fixed-width struct records, no
compression, validated eagerly on read.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import List, Union

from repro.isa.kinds import TransitionKind
from repro.trace.record import BlockEvent
from repro.trace.stream import Trace

_MAGIC = b"RPTRACE1"
_HEADER = struct.Struct("<8sQQH")
_EVENT = struct.Struct("<QHBB")

_VALID_KINDS = frozenset(int(kind) for kind in TransitionKind)


class TraceFormatError(Exception):
    """Raised when a trace file is malformed."""


def trace_bytes(trace: Trace) -> bytes:
    """*trace* serialised in the RPTRACE1 format."""
    name_bytes = trace.name.encode("utf-8")
    if len(name_bytes) > 0xFFFF:
        raise ValueError("trace name too long to serialise")
    parts = [_HEADER.pack(_MAGIC, trace.seed, len(trace.events), len(name_bytes)), name_bytes]
    pack_event = _EVENT.pack
    append = parts.append
    for addr, ninstr, kind, data in trace.events:
        ndata = len(data)
        if ndata > 255:
            data = data[:255]
            ndata = 255
        append(pack_event(addr, ninstr, kind, ndata))
        if ndata:
            append(struct.pack(f"<{ndata}Q", *data))
    return b"".join(parts)


def write_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Serialise *trace* to *path* in the RPTRACE1 format.

    The whole file is serialised before *path* is opened, so a trace that
    cannot be serialised leaves an existing file untouched.
    """
    Path(path).write_bytes(trace_bytes(trace))


def read_trace(path: Union[str, Path]) -> Trace:
    """Deserialise a trace previously written by :func:`write_trace`.

    Raises :class:`TraceFormatError` on any structural problem (bad magic,
    truncation, unknown transition kinds).
    """
    with open(path, "rb") as handle:
        blob = handle.read()

    if len(blob) < _HEADER.size:
        raise TraceFormatError("file shorter than header")
    magic, seed, n_events, name_len = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}")
    offset = _HEADER.size
    if len(blob) < offset + name_len:
        raise TraceFormatError("truncated name field")
    try:
        name = blob[offset : offset + name_len].decode("utf-8")
    except UnicodeDecodeError:
        raise TraceFormatError("trace name is not valid UTF-8") from None
    offset += name_len

    # Reject absurd event counts up front: every event needs at least one
    # fixed-width record, so a header declaring more events than the file
    # could possibly hold is corrupt (and would otherwise spin the read
    # loop through n_events iterations before noticing).
    if n_events * _EVENT.size > len(blob) - offset:
        raise TraceFormatError(
            f"header declares {n_events} events but only "
            f"{len(blob) - offset} bytes follow the name"
        )

    events: List[BlockEvent] = []
    unpack_event = _EVENT.unpack_from
    event_size = _EVENT.size
    for index in range(n_events):
        if len(blob) < offset + event_size:
            raise TraceFormatError(f"truncated at event {index}")
        addr, ninstr, kind, ndata = unpack_event(blob, offset)
        offset += event_size
        if kind not in _VALID_KINDS:
            raise TraceFormatError(f"unknown transition kind {kind} at event {index}")
        if ninstr == 0:
            raise TraceFormatError(f"zero-instruction event at index {index}")
        if ndata:
            end = offset + 8 * ndata
            if len(blob) < end:
                raise TraceFormatError(f"truncated data list at event {index}")
            data = struct.unpack_from(f"<{ndata}Q", blob, offset)
            offset = end
        else:
            data = ()
        events.append(BlockEvent(addr, ninstr, kind, data))

    if offset != len(blob):
        raise TraceFormatError(f"{len(blob) - offset} trailing bytes after last event")
    return Trace(name, seed, events)
