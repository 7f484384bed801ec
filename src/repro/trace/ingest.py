"""External PC-stream ingestion: ChampSim-style traces → the trace pipeline.

The synthetic profiles cover the paper's workloads; this module lets the
harness replay *real* fetch streams.  Two input encodings are accepted:

- **text** — one program counter per line, hexadecimal (a ``0x`` prefix is
  optional); blank lines and ``#`` comments are skipped;
- **binary** — packed little-endian ``u64`` program counters, no header
  (the raw PC column of a ChampSim-like tracer).

Ingestion reconstructs :class:`~repro.trace.record.BlockEvent` streams by
collapsing sequential ``pc + 4`` runs into basic-block visits and
classifying every taken transition with distance heuristics plus a
return-address stack (forward/backward conditional windows, far-forward
jumps treated as calls, targets matching the stack treated as returns).
The result is a first-class :class:`~repro.trace.stream.Trace`: it rides
the exact same lowering, compiled-trace and store path as the synthetic
workloads.

Ingested traces are persisted under ``$REPRO_EXTERNAL_TRACES`` (default:
an ``external/`` subdirectory of the result-cache directory) as one
RPTRACE1 file plus a JSON manifest per name, each written atomically
through :class:`~repro.util.filestore.EntryDir`.  The manifest records the
SHA-256 of the *source* bytes, so an entry is content-addressed: re-ingest
of identical input is a no-op, and a changed source is detectable.  The
``external:<name>`` trace source (:mod:`repro.trace.source`) serves these
entries to the runner; :func:`compile_external` additionally pre-packs
them into content-addressed RPCTRC01 entries in the compiled trace store
so sweep workers only ever load.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.envvars import REPRO_CACHE_DIR, REPRO_EXTERNAL_TRACES
from repro.isa.kinds import TransitionKind
from repro.trace import store as trace_store
from repro.trace.compiled import CompiledTrace
from repro.trace.io import read_trace, trace_bytes
from repro.trace.record import INSTRUCTION_SIZE, BlockEvent
from repro.trace.stream import Trace
from repro.util.filestore import EntryDir

#: workload-name prefix under which ingested traces are addressable from a
#: :class:`~repro.eval.runspec.RunSpec` (resolved by :mod:`repro.trace.source`).
EXTERNAL_PREFIX = "external:"

#: mirrors the trace store's default-directory derivation without importing
#: eval.
_DEFAULT_RESULT_CACHE_DIR = ".repro-cache"
_SUBDIR = "external"

TRACE_SUFFIX = ".trc"
MANIFEST_SUFFIX = ".json"

#: ingested names must be filesystem- and store-key-safe.
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")

#: a taken forward branch landing within this many bytes is a conditional
#: taken-forward; the paper observes most such targets fall within a few
#: cache lines.
COND_FWD_WINDOW = 1024
#: a taken backward branch within this many bytes is a loop branch.
COND_BWD_WINDOW = 4096
#: depth of the return-address stack used to classify returns.
RAS_DEPTH = 64

#: seed recorded on ingested traces — external content carries no seed; the
#: store still files compiled entries under each *request* seed.
INGEST_SEED = 0

_SEQ = int(TransitionKind.SEQUENTIAL)
_COND_FWD = int(TransitionKind.COND_TAKEN_FWD)
_COND_BWD = int(TransitionKind.COND_TAKEN_BWD)
_CALL = int(TransitionKind.CALL)
_JUMP = int(TransitionKind.JUMP)
_RETURN = int(TransitionKind.RETURN)

#: RPTRACE1 caps a block's instruction count at u16.
_MAX_BLOCK_INSTR = 0xFFFF

_PC_LIMIT = 1 << 64


class IngestError(ValueError):
    """Raised when an external PC stream cannot be ingested."""


# --------------------------------------------------------------------- #
# The external-trace directory (one RPTRACE1 + manifest per name)
# --------------------------------------------------------------------- #


def external_dir() -> Path:
    """Directory holding ingested external traces."""
    explicit = os.environ.get(REPRO_EXTERNAL_TRACES)
    if explicit:
        return Path(explicit)
    cache_root = os.environ.get(REPRO_CACHE_DIR) or _DEFAULT_RESULT_CACHE_DIR
    return Path(cache_root) / _SUBDIR


_TRACES = EntryDir(external_dir, TRACE_SUFFIX)
_MANIFESTS = EntryDir(external_dir, MANIFEST_SUFFIX)


def trace_path(name: str) -> Path:
    return _TRACES.path(name)


def manifest_path(name: str) -> Path:
    return _MANIFESTS.path(name)


def validate_name(name: str) -> str:
    """Check *name* is usable as a file stem and store-key component."""
    if not _NAME_RE.match(name):
        raise IngestError(
            f"invalid external trace name {name!r} (use letters, digits, "
            "'.', '_' and '-', starting with a letter or digit)"
        )
    return name


def available_external() -> List[str]:
    """Names of every ingested external trace, sorted."""
    directory = external_dir()
    if not directory.is_dir():
        return []
    return sorted(path.stem for path in directory.glob(f"*{TRACE_SUFFIX}"))


def external_exists(name: str) -> bool:
    return trace_path(name).is_file()


def load_external(name: str) -> Trace:
    """Load one ingested trace (raises :class:`IngestError` on a miss)."""
    path = trace_path(name)
    if not path.is_file():
        raise IngestError(
            f"external trace {name!r} is not ingested "
            f"(ingested: {available_external()})"
        )
    return read_trace(path)


def load_manifest(name: str) -> Optional[Dict[str, object]]:
    """The ingest manifest for *name*, or None if absent/unreadable."""
    try:
        return json.loads(manifest_path(name).read_text())
    except (OSError, ValueError):
        return None


# --------------------------------------------------------------------- #
# Parsing: PC streams → block events
# --------------------------------------------------------------------- #


def parse_text(lines: Iterable[str]) -> List[int]:
    """Parse a text PC stream: one hexadecimal PC per line."""
    pcs: List[int] = []
    for lineno, raw in enumerate(lines, start=1):
        token = raw.split("#", 1)[0].strip()
        if not token:
            continue
        try:
            pc = int(token, 16)
        except ValueError:
            raise IngestError(
                f"line {lineno}: {token!r} is not a hexadecimal program counter"
            ) from None
        if not 0 <= pc < _PC_LIMIT:
            raise IngestError(f"line {lineno}: PC {token!r} out of u64 range")
        pcs.append(pc)
    return pcs


def parse_binary(blob: bytes) -> List[int]:
    """Parse a binary PC stream: packed little-endian u64 PCs."""
    if len(blob) % 8:
        raise IngestError(
            f"binary PC stream length {len(blob)} is not a multiple of 8"
        )
    return list(struct.unpack(f"<{len(blob) // 8}Q", blob))


def _classify(prev_pc: int, target: int, ras: List[int]) -> int:
    """Transition kind of a taken control transfer ``prev_pc → target``."""
    if target in ras[-2:]:
        while ras[-1] != target:
            ras.pop()
        ras.pop()
        return _RETURN
    if prev_pc < target <= prev_pc + COND_FWD_WINDOW:
        return _COND_FWD
    if prev_pc - COND_BWD_WINDOW <= target < prev_pc:
        return _COND_BWD
    if target > prev_pc:
        ras.append(prev_pc + INSTRUCTION_SIZE)
        del ras[:-RAS_DEPTH]
        return _CALL
    return _JUMP


def events_from_pcs(pcs: Sequence[int]) -> List[BlockEvent]:
    """Collapse a PC stream into classified block events.

    Sequential ``pc + 4`` runs become one block; every taken transition
    terminates the open block and stamps the *next* block's entry kind
    (matching the synth walker's convention: an event's kind is the
    transition that brought the fetch stream to it).
    """
    if not pcs:
        raise IngestError("empty PC stream")
    events: List[BlockEvent] = []
    ras: List[int] = []
    block_start = pcs[0]
    count = 1
    kind = _SEQ
    prev = pcs[0]
    for pc in pcs[1:]:
        if pc == prev + INSTRUCTION_SIZE and count < _MAX_BLOCK_INSTR:
            count += 1
            prev = pc
            continue
        events.append(BlockEvent(block_start, count, kind, ()))
        kind = _SEQ if pc == prev + INSTRUCTION_SIZE else _classify(prev, pc, ras)
        block_start = pc
        count = 1
        prev = pc
    events.append(BlockEvent(block_start, count, kind, ()))
    return events


# --------------------------------------------------------------------- #
# Ingestion entry points
# --------------------------------------------------------------------- #


def ingest_text(name: str, lines: Iterable[str]) -> Trace:
    """Build a :class:`Trace` from a text PC stream (no persistence)."""
    validate_name(name)
    return Trace(name, INGEST_SEED, events_from_pcs(parse_text(lines)))


def ingest_bytes(name: str, blob: bytes, fmt: str = "auto") -> Tuple[Trace, Dict[str, object]]:
    """Ingest raw source bytes; returns ``(trace, manifest)``.

    ``fmt`` is ``"text"``, ``"binary"`` or ``"auto"`` (text if the bytes
    decode as UTF-8, binary otherwise).
    """
    validate_name(name)
    if fmt == "auto":
        try:
            blob.decode("utf-8")
            fmt = "text"
        except UnicodeDecodeError:
            fmt = "binary"
    if fmt == "text":
        pcs = parse_text(blob.decode("utf-8").splitlines())
    elif fmt == "binary":
        pcs = parse_binary(blob)
    else:
        raise IngestError(f"unknown ingest format {fmt!r} (text/binary/auto)")
    trace = Trace(name, INGEST_SEED, events_from_pcs(pcs))
    manifest: Dict[str, object] = {
        "name": name,
        "format": fmt,
        "sha256": hashlib.sha256(blob).hexdigest(),
        "n_pcs": len(pcs),
        "n_events": len(trace.events),
        "n_instructions": trace.total_instructions,
    }
    return trace, manifest


def ingest_file(
    source: Union[str, Path], name: Optional[str] = None, fmt: str = "auto"
) -> Dict[str, object]:
    """Ingest *source* into the external-trace directory; returns the manifest.

    Re-ingesting an unchanged source under the same name is a cheap no-op
    (the manifest's content hash matches).
    """
    source = Path(source)
    if name is None:
        name = source.stem
    blob = source.read_bytes()
    previous = load_manifest(name)
    if previous is not None and previous.get("sha256") == hashlib.sha256(blob).hexdigest():
        if external_exists(name):
            previous["unchanged"] = True
            return previous
    trace, manifest = ingest_bytes(name, blob, fmt=fmt)
    manifest_blob = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
    # Both files are serialised before either is replaced, and each is
    # replaced atomically: a failed or concurrent ingest never leaves a
    # partial trace under any manifest.
    if not (
        _TRACES.write(name, trace_bytes(trace)) and _MANIFESTS.write(name, manifest_blob)
    ):
        raise IngestError(f"cannot write external trace {name!r} to {external_dir()}")
    return manifest


# --------------------------------------------------------------------- #
# Serving and pre-compilation
# --------------------------------------------------------------------- #


def _tiled_events(
    events: Sequence[BlockEvent], start: int, n_instructions: int
) -> List[BlockEvent]:
    """Cyclically replay *events* from *start* until ≥ *n_instructions*."""
    picked: List[BlockEvent] = []
    total = 0
    index = start
    n = len(events)
    while total < n_instructions:
        event = events[index]
        picked.append(event)
        total += event[1]
        index += 1
        if index == n:
            index = 0
    return picked


def external_traces(name: str, n_cores: int, n_instructions: int) -> List[Trace]:
    """Per-core traces served from one ingested external stream.

    The finite stream is treated as a steady-state loop: each core replays
    it cyclically until the instruction budget is met, starting at a
    core-staggered event offset (decorrelated threads of one binary, the
    same convention the synth walker uses for its cores).
    """
    base = load_external(name)
    events = list(base.events)
    return [
        Trace(
            name,
            INGEST_SEED,
            _tiled_events(events, (core * len(events)) // n_cores, n_instructions),
        )
        for core in range(n_cores)
    ]


def compile_external(
    name: str,
    n_cores: int,
    n_instructions: int,
    line_size: int = 64,
    seed: int = 1337,
) -> int:
    """Pack one ingested trace into the compiled trace store.

    Compiles the per-core tiled streams exactly as the runner would and
    persists them under the ``external:<name>`` workload key; returns the
    number of store files written.  Workers of a later sweep then *load*
    instead of re-parsing.
    """
    workload = EXTERNAL_PREFIX + name
    written = 0
    for core, trace in enumerate(external_traces(name, n_cores, n_instructions)):
        compiled = CompiledTrace.compile(
            trace,
            line_size,
            workload=workload,
            seed=seed,
            core=core,
            n_instructions=n_instructions,
        )
        if trace_store.store(compiled):
            written += 1
    return written
