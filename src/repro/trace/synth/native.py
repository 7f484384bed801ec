"""Compiled trace synthesis: ``native.c`` through :mod:`ctypes`.

``native.c`` transcribes the Python synthesizer (program construction,
the transaction walk, the data stream, the per-core and mix rebases) and
the line-visit lowering into one C unit.  Given the same
:class:`~repro.trace.synth.walker.CoreWalk` s it produces the block-event
stream of :func:`~repro.trace.synth.walker.walk_traces` and then the
packed columns of :meth:`CompiledTrace.compile
<repro.trace.compiled.CompiledTrace.compile>` over it, byte for byte
(``tests/unit/test_synth_native.py`` holds the differential test).  The
runner serves synthetic workloads through it without building Python
:class:`~repro.trace.stream.Trace` objects; the Python modules stay the
specification, the source of every ``Trace`` object, and the path taken
when no C compiler is available.

Two steps, so a sweep across line sizes synthesizes once:

- :func:`synthesize` runs the walks into per-core
  :class:`BlockColumns` (block events plus their data addresses);
- :func:`lower` turns one core's block columns into a
  :class:`~repro.trace.compiled.CompiledTrace` for one line size.  The
  visit data column *is* the block data column (the lowering only moves
  visit boundaries), so every line size shares that array.

The unit is built on the first :func:`available` call — never at import —
through :mod:`repro.util.ccompile`, under its own source hash.  The
ctypes types of its structs (:data:`STRUCTS`) are read from its typedefs.
"""

from __future__ import annotations

import ctypes
import logging
import threading
from array import array
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.trace.compiled import CompiledTrace
from repro.trace.stream import check_line_size
from repro.trace.synth.params import WorkloadProfile
from repro.trace.synth.walker import CORE_CODE_STRIDE, CoreWalk
from repro.util import ccompile

logger = logging.getLogger(__name__)

#: the C unit, shipped beside this module.
SOURCE_PATH = Path(__file__).with_name("native.c")

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p


class BlockColumns(NamedTuple):
    """One core's block events: event *i* executed ``ninstr[i]``
    instructions from ``addr[i]``, entered by transition ``kind[i]``, and
    accessed ``data[data_offsets[i]:data_offsets[i + 1]]``."""

    name: str
    addr: array
    ninstr: array
    kind: array
    data_offsets: array
    data: array


def source() -> str:
    """The C unit's text."""
    return SOURCE_PATH.read_text(encoding="utf-8")


#: the unit's structs as ctypes types (C name -> type), read from its
#: typedefs.
STRUCTS = ccompile.struct_types(source())
_PROFILE = STRUCTS["Profile"]
_BLOCKS = STRUCTS["Blocks"]


def source_hash() -> str:
    """Hash naming the cached shared object (and the CI cache key)."""
    return ccompile.source_hash(source())


_lib: object = None
_probed = False
_compile_seconds = 0.0
#: held while the probe builds or loads the unit, so a concurrent first
#: caller waits for it instead of reading an unfinished probe.
_probe_lock = threading.Lock()


def _build():
    """Compile (or load from cache) the unit; return the loaded library."""
    global _compile_seconds
    lib, seconds = ccompile.load("repro_synth", source())
    if seconds:
        _compile_seconds = seconds
    lib.repro_synth_program.argtypes = [ctypes.POINTER(_PROFILE), ctypes.c_uint64]
    lib.repro_synth_program.restype = _PTR
    lib.repro_synth_program_free.argtypes = [_PTR]
    lib.repro_synth_program_free.restype = None
    lib.repro_synth_walk.argtypes = [
        _PTR,
        ctypes.c_uint64,
        _I64,
        _I64,
        _I64,
        _I64,
        ctypes.POINTER(_BLOCKS),
    ]
    lib.repro_synth_walk.restype = ctypes.c_int
    lib.repro_synth_blocks_free.argtypes = [ctypes.POINTER(_BLOCKS)]
    lib.repro_synth_blocks_free.restype = None
    lib.repro_synth_lower.argtypes = [_PTR] * 4 + [_I64, _I64] + [_PTR] * 5
    lib.repro_synth_lower.restype = _I64
    return lib


def _library():
    """The loaded library, or None when unavailable (one warning)."""
    global _lib, _probed
    if not _probed:
        with _probe_lock:
            if not _probed:
                _lib = ccompile.load_or_warn(
                    _build, logger, "compiled trace synthesis", "synthesizing in Python"
                )
                _probed = True
    return _lib


def available() -> bool:
    """True when the unit can be (or has been) loaded; builds it lazily."""
    return _library() is not None


def compile_seconds() -> float:
    """One-time compile cost paid by *this* process (0.0 on a cache hit)."""
    return _compile_seconds


def _profile_struct(profile: WorkloadProfile) -> ctypes.Structure:
    """``Profile`` with each field set from *profile*'s attribute of its name."""
    struct = _PROFILE()
    for name, ctype in ccompile.struct_fields(_PROFILE):
        convert = float if ctype is ctypes.c_double else int
        setattr(struct, name, convert(getattr(profile, name)))
    return struct


def _copy(typecode: str, pointer, count: int) -> array:
    column = array(typecode)
    if count:
        column.frombytes(ctypes.string_at(pointer, count * column.itemsize))
    return column


def _address(column: array) -> int:
    return column.buffer_info()[0]


def synthesize(walks: Sequence[CoreWalk], n_instructions: int) -> List[BlockColumns]:
    """Block columns for each walk (walks sharing a program build it once).

    Callers check :func:`available` first.
    """
    if n_instructions <= 0:
        raise ValueError(f"n_instructions must be positive, got {n_instructions}")
    lib = _library()
    programs: Dict[Tuple[WorkloadProfile, int], int] = {}
    out: List[BlockColumns] = []
    try:
        for walk in walks:
            key = (walk.profile, walk.structure_seed)
            program = programs.get(key)
            if program is None:
                program = lib.repro_synth_program(_profile_struct(walk.profile), key[1])
                if not program:
                    raise MemoryError("trace synthesis: program build failed")
                programs[key] = program
            blocks = _BLOCKS()
            try:
                status = lib.repro_synth_walk(
                    program,
                    walk.run_seed,
                    walk.core,
                    CORE_CODE_STRIDE,
                    walk.offset,
                    n_instructions,
                    ctypes.byref(blocks),
                )
                if status != 0:
                    raise MemoryError("trace synthesis: walk failed")
                n = blocks.n_events
                out.append(
                    BlockColumns(
                        name=walk.profile.name,
                        addr=_copy("q", blocks.addr, n),
                        ninstr=_copy("i", blocks.ninstr, n),
                        kind=_copy("b", blocks.kind, n),
                        data_offsets=_copy("q", blocks.data_offsets, n + 1),
                        data=_copy("q", blocks.data, blocks.n_data),
                    )
                )
            finally:
                lib.repro_synth_blocks_free(ctypes.byref(blocks))
    finally:
        for program in programs.values():
            lib.repro_synth_program_free(program)
    return out


def lower(
    blocks: BlockColumns,
    line_size: int,
    workload: str,
    seed: int,
    core: int,
    n_instructions: int,
) -> CompiledTrace:
    """One core's compiled trace at *line_size* (the request key as in
    :meth:`CompiledTrace.compile <repro.trace.compiled.CompiledTrace.compile>`)."""
    check_line_size(line_size)
    lib = _library()
    inputs = [
        _address(blocks.addr),
        _address(blocks.ninstr),
        _address(blocks.kind),
        _address(blocks.data_offsets),
        len(blocks.addr),
        line_size,
    ]
    n_visits = lib.repro_synth_lower(*inputs, None, None, None, None, None)
    lines = array("q", [0]) * n_visits
    kinds = array("b", [0]) * n_visits
    ninstr = array("i", [0]) * n_visits
    offsets = array("q", [0]) * (n_visits + 1)
    disc = array("b", [0]) * n_visits
    lib.repro_synth_lower(
        *inputs,
        _address(lines),
        _address(kinds),
        _address(ninstr),
        _address(offsets),
        _address(disc),
    )
    return CompiledTrace(
        workload=workload,
        name=blocks.name,
        seed=seed,
        core=core,
        n_instructions=n_instructions,
        line_size=line_size,
        lines=lines,
        kinds=kinds,
        ninstr=ninstr,
        data=blocks.data,
        offsets=offsets,
        disc=disc,
    )
