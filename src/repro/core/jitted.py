"""The jit engine backend: compiled scalar-exact kernels via the C toolchain.

:class:`JittedCoreEngine` executes the reference
:class:`~repro.core.engine.CoreEngine` per-visit semantics inside one
compiled kernel and produces **bit-identical** results — same stats, same
floats, same eviction order.  It also owns the *multi-core* interleave
loop: :meth:`JittedCoreEngine.run_multicore` runs the whole
smallest-clock-first core interleave of
:meth:`repro.cmp.system.System.run` inside the kernel, so ``n_cores > 1``
is batch-stepped instead of one Python step per visit.

How it is compiled
------------------

The kernel is plain C, kept as one unit per component under
``repro/core/kernel/`` (package data) and built as several shared objects
(:data:`KERNEL_OBJECTS`), each from the shared header ``kernel.h`` (the
``CCand`` and ``PfOps`` types) plus its units
concatenated into one translation unit by :func:`kernel_source`:

- the **core** (``repro_jit``): ``cache.c``, ``queue.c`` (prefetch queue +
  MSHR), ``link.c``, ``engine.c`` (visit processing and the multi-core
  interleave) and ``sequential.c``.  It is built when the kernel is first
  probed (:func:`jit_available`);
- one object per **stateful family**: ``discontinuity.c``, ``branch.c``
  (fdp and shadow), ``history.c`` (target and markov) and ``mana.c``.
  Each is built the first time a core binds that family, so a run pays
  only for the families it uses, and one that fails to build sends only
  its family to reference stepping, with a logged reason.

Each object is compiled once per hash of its flags and source with the
system C compiler (``-O1 -fPIC -ffp-contract=off``, linked ``-shared``), cached
under ``REPRO_JIT_CACHE_DIR`` (default ``.repro-cache/jit``), and loaded
through :mod:`ctypes` — all by :mod:`repro.util.ccompile`, which also
builds the compiled trace synthesizer.  :func:`kernel_source_hash` with no
argument hashes every object (the CI cache key) and
:func:`kernel_compile_seconds` sums every object this process built.
This needs no third-party package: the kernel is available wherever a C
compiler is — environments without one fall back to the reference backend
with one logged warning.

Each struct's ``typedef`` in the units is its only declaration: at import
:data:`STRUCTS` reads every typedef of the header and the units into a
ctypes type (:func:`repro.util.ccompile.struct_types`), so Python and C
cannot disagree on a layout.  ``tests/unit/test_ccompile.py`` compiles a
probe of every struct's ``sizeof`` and ``offsetof`` to prove the reader.

Prefetcher families
-------------------

The engine unit calls a prefetcher only through a ``PfOps`` table of
hooks (demand fetch, discontinuity, credit), one table per family
exported by the family's unit; ``CCore.pf_ops`` points into whichever
object holds it.  Each family has one Python binding
(:class:`_Family`), looked up by the prefetcher's *exact* type in
:data:`_PF_MODES`: it names the family's object and ops table, sizes the
core's candidate buffer, builds the family's C state and syncs its
counters back.  A family's demand hook fills the candidate buffer; the
engine counts every candidate as generated and offers each one whose
line differs from the demand line, as ``CoreEngine._process_visit`` does.
Candidate and line provenance is encoded as ``(kind, index, line)``
(:func:`_encode_prov`): ``("seq",)`` 1, ``("disc", index, line)`` 2,
``("fdp",)`` 3, ``("shadow", line)`` 4, ``("tgt", line)`` 5,
``("markov", probe_line)`` 6 and ``("mana", trigger)`` 7; 0 is none.

Why the results are exactly equal
---------------------------------

CPython floats are IEEE-754 doubles; the kernel performs the *same
operations in the same order* on C ``double``.  ``-ffp-contract=off``
forbids fused multiply-add contraction and no fast-math flags are used,
so every intermediate rounds exactly like the interpreter's.  Integer
state (line indices, counters) is ``long long``; ``int(credit)`` becomes
the equally-truncating C cast.  Each reference structure is replicated
with explicit arrays:

- cache sets become per-set way arrays ordered LRU → MRU (an
  ``OrderedDict.move_to_end`` is a remove + append, ``popitem(last=False)``
  removes index 0);
- the prefetch queue and its recent-demand filter become two node pools
  with doubly linked age lists (every entry, the waiting entries, the
  recent lines) and one open-addressed index from a line to its nodes,
  so offer, note-demand, hoist, overflow and pop move no memory and need
  no scan (:func:`queue_image`); the MSHR stays an insertion-ordered flat
  array;
- the discontinuity table becomes three flat arrays (``None`` sources
  encoded as ``-1``);
- the gshare PHT, the tagless BTB (``-1`` = no target), the return
  address stack and the shadow target buffer's per-set way lists become
  flat arrays in the reference's list order;
- the target and Markov tables' ``OrderedDict`` becomes an LRU map of
  nodes: an open-addressed index plus a doubly linked recency list that
  replays ``get``, ``move_to_end`` and ``popitem(last=False)`` exactly;
  Markov successors stay in the canonical ``(-count, target)`` order;
- the MANA record table becomes per-set way arrays ordered LRU → MRU,
  each footprint an unsigned 64-bit bitmap.

Eligibility: all-LRU caches, no inclusive-L2 back-invalidation hook, and
a prefetcher whose semantics the kernel replicates — ``none``, the
sequential and lookahead families, discontinuity, fetch-directed
(``fdp``), shadow-branch (``shadow``), ``target``, ``markov`` and
``mana`` with regions of at most 64 lines.  Anything else (software
prefetching, FIFO/PLRU/random replacement, an inclusive L2, a family
whose object did not build) degrades to exact reference stepping via
``super()`` — never to approximate fast behavior — so every registered
prefetcher passes the backend parity suite by construction.
:meth:`JittedCoreEngine.kernel_fallback_reason` says why a configuration
falls back.

State ownership: an engine binds into the kernel on its first
``step()``/``run()`` on an eligible config, and binding builds every C
image from configuration and construction scalars only: caches, queue,
MSHR, return address stack and predictor tables start empty (or at their
initial contents) and every counter at zero, with no copy of Python
contents.  So an engine binds only while it still holds its construction
state (:meth:`JittedCoreEngine._touched`); one whose state was touched
before binding (a cache installed into, a table read, a counter moved)
steps on reference, and its fallback reason names the component.  From
then on the C state is authoritative for cache/queue/MSHR/predictor-table
*contents*.  Scalars and every stats object (including the discontinuity,
Markov and MANA table stats and the shadow prefetcher's
``shadow_discoveries``) are synced back after each kernel call, so
``--verify`` lockstep, the CMP interleave driven from Python, and all
result aggregation see exact values; each flat stats dataclass is copied
field by field under its own field names (:func:`_sync_fields`).  Queue,
MSHR and predictor-table contents have no reader outside the engine and
stay C-resident.  Engines of one system share one :class:`_JitSystem`
(the C images of the shared L2 and off-chip link), keyed by link
identity; a core that binds after a sibling uses that image as it is.

Cache sets through a kernel run (:class:`~repro.caches.cache.LazySets`):

1. **unbuilt** — a new cache holds a ``LazySets`` stand-in, no per-set
   ``OrderedDict``.  Binding the L1I or the L2 (:class:`_CacheImage`) only
   allocates the C arrays, which ctypes zero-fills: an empty cache, with
   no Python loop (a 2 MB L2 has 8,192 sets).  The L1D binds its counters
   only (see below).  A cache that was read or installed into before
   binding has built sets, so its engine steps on reference;
2. **C image** — while the kernel runs, the image is authoritative;
3. **decoded on read** — when an engine finishes inside the kernel
   (``run()``, ``run_multicore()`` or the final ``step()``), its L1I and
   the shared L2 get a ``LazySets`` whose builder is the image's
   :meth:`_CacheImage.decode`.  The first read (``probe``,
   ``resident_lines``, ``in``, ``len``) decodes it into the plain list the
   reference engine would have left, so a sweep that never inspects a
   cache never builds its sets.  The L1D is decoded by replay: after
   every kernel call, a partial ``step()`` run's too, it gets a
   ``LazySets`` whose builder replays the trace's data column through
   ``repro_l1d_filter`` up to the engine's visit index (:func:`_l1d_sets`).

The L1D filter (:func:`l1d_filter`): in the kernel only the core's own
demand data reaches its L1D, an LRU cache that no inclusive L2
back-invalidates, so its hits, misses and evictions depend on the trace
and the L1D geometry alone.  ``repro_l1d_filter`` runs a trace's data
column through an empty L1D once per geometry and lists each visit's
misses (the evicted bit :data:`L1D_EVICTED` set when the install
evicted); the filter is memoized on the :class:`CompiledTrace`, and
``process_visit`` counts a visit's lookups and hits in bulk and steps
only its listed misses through the L2.

Family tables follow the same first state: the discontinuity table's
columns, the gshare PHT, the BTB, the shadow target buffer's sets and
MANA's record sets are :class:`~repro.util.containers.LazyTable`
stand-ins until first read, and bind as their initial C image — zeroed,
or filled by one ``memset`` (:func:`_filled`) — with no Python loop or
list copy; the target and Markov tables and the return address stack
bind empty.  Each family declares what it binds that way
(:meth:`_Family.held`).

Every ctypes pointer into a buffer is cast from the buffer's address
(:func:`_ptr`), and the buffer is held by its engine or image: a cast from
the buffer object itself stores the buffer in a reference cycle, which
only the cyclic garbage collector frees.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import logging
import threading
import weakref
from array import array
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.caches.cache import LazySets, SetAssociativeCache
from repro.caches.line import LineState
from repro.caches.missclass import MissBreakdown
from repro.core.engine import CoreEngine
from repro.core.metrics import CoreStats
from repro.isa.kinds import TransitionKind
from repro.prefetch.base import NullPrefetcher
from repro.prefetch.discontinuity import DiscontinuityPrefetcher
from repro.prefetch.fdp import FetchDirectedPrefetcher
from repro.prefetch.mana import ManaPrefetcher
from repro.prefetch.markov import MarkovPrefetcher
from repro.prefetch.sequential import (
    LookaheadN,
    NextLineAlways,
    NextLineOnMiss,
    NextLineTagged,
    NextNLineTagged,
)
from repro.prefetch.shadow import ShadowBranchPrefetcher
from repro.prefetch.target import TargetPrefetcher
from repro.trace.compiled import CompiledTrace
from repro.util import ccompile
from repro.util.containers import LazyTable, pristine

logger = logging.getLogger(__name__)

_N_KINDS = len(TransitionKind)

#: most candidates one demand fetch may produce in the kernel (the core's
#: candidate buffer is sized per family at bind time; a configuration
#: needing more — e.g. a discontinuity prefetch-ahead above 62 — steps on
#: reference instead).
_MAX_CANDIDATES = 4096

#: most cores one compiled interleave can hold (paper CMP is 4).
_MAX_CORES = 256

#: directory of the kernel's C units (package data).
KERNEL_DIR = Path(__file__).resolve().parent / "kernel"

#: the header every kernel object starts with (``CCand`` and ``PfOps``).
KERNEL_HEADER = "kernel.h"

#: the core object's stem: its units build whenever the kernel is probed.
CORE = "repro_jit"

#: each shared object of the kernel -> its units, in translation-unit order
#: after the header (a unit may use every type and function of the units
#: before it).  The core holds the engine and the stateless families;
#: each stateful family's object is built the first time a core binds it.
KERNEL_OBJECTS = {
    CORE: ("cache.c", "queue.c", "link.c", "engine.c", "sequential.c"),
    "repro_jit_disc": ("discontinuity.c",),
    "repro_jit_branch": ("branch.c",),
    "repro_jit_history": ("history.c",),
    "repro_jit_mana": ("mana.c",),
}


@functools.lru_cache(maxsize=None)
def kernel_source(stem: str = CORE) -> str:
    """One kernel object's source: the header, then its units of
    :data:`KERNEL_OBJECTS` in order, as one translation unit.

    Every C function mirrors one reference hot path (named in the comment
    above it).  ``tests/property/test_prop_backend_diff.py`` runs random
    systems on both backends and fails on any divergence, so editing
    ``engine.py``/``queue.py``/a prefetcher's hot path without its unit
    fails there.
    """
    return _with_header(KERNEL_OBJECTS[stem])


def _with_header(units: Tuple[str, ...]) -> str:
    return "".join((KERNEL_DIR / name).read_text() for name in (KERNEL_HEADER,) + units)


#: every kernel struct's ctypes type (C name -> type), read from the
#: typedefs of the header and of every unit in :data:`KERNEL_OBJECTS`.
STRUCTS = ccompile.struct_types(_with_header(sum(KERNEL_OBJECTS.values(), ())))

_LL = ctypes.c_longlong
_DBL = ctypes.c_double


# --------------------------------------------------------------------- #
# Kernel build + cache + availability
# --------------------------------------------------------------------- #

_kernel_lib: object = None
_kernel_probed = False
#: held while a probe builds or loads an object, so concurrent first
#: callers (threads of one sweep) wait for the build instead of reading an
#: unfinished probe as "unavailable".
_probe_lock = threading.Lock()
#: seconds this process spent compiling, per kernel object.
_compile_seconds: Dict[str, float] = {}
#: family objects probed so far (stem -> library, None when unbuildable),
#: and why each unbuildable one failed.
_family_libs: Dict[str, object] = {}
_family_errors: Dict[str, str] = {}


def kernel_source_hash(stem: Optional[str] = None) -> str:
    """Hash naming one object's cached shared object or, by default, the
    hash of every kernel object together (the CI cache key)."""
    if stem is not None:
        return ccompile.source_hash(kernel_source(stem))
    return ccompile.source_hash("".join(kernel_source(name) for name in KERNEL_OBJECTS))


def _load_object(stem: str):
    """Compile (or load from cache) one kernel object."""
    lib, seconds = ccompile.load(stem, kernel_source(stem))
    if seconds:
        _compile_seconds[stem] = seconds
    return lib


def _build_kernel():
    """Compile (or load from cache) the core object; return the library."""
    lib = _load_object(CORE)
    lib.repro_span.argtypes = [ctypes.POINTER(STRUCTS["CCore"]), _LL]
    lib.repro_span.restype = None
    lib.repro_run.argtypes = [ctypes.POINTER(STRUCTS["CCore"])]
    lib.repro_run.restype = None
    lib.repro_run_system.argtypes = [ctypes.POINTER(ctypes.POINTER(STRUCTS["CCore"])), _LL]
    lib.repro_run_system.restype = None
    lib.repro_queue_init.argtypes = [ctypes.POINTER(STRUCTS["CQueue"])]
    lib.repro_queue_init.restype = None
    lib.repro_l1d_filter.argtypes = [
        ctypes.POINTER(_LL),
        ctypes.POINTER(_LL),
        _LL,
        _LL,
        _LL,
        _LL,
        ctypes.POINTER(_LL),
        ctypes.POINTER(_LL),
        ctypes.POINTER(_LL),
        ctypes.POINTER(ctypes.c_uint),
    ]
    lib.repro_l1d_filter.restype = _LL
    return lib


def _kernel():
    """The loaded core object, or None when unavailable (one warning)."""
    global _kernel_lib, _kernel_probed
    if not _kernel_probed:
        with _probe_lock:
            if not _kernel_probed:
                _kernel_lib = ccompile.load_or_warn(
                    _build_kernel,
                    logger,
                    "jit engine backend",
                    "falling back to the reference backend",
                )
                _kernel_probed = True
    return _kernel_lib


def _family_lib(stem: str):
    """A family's object, built on first use; None (after one warning)
    when it cannot be built, which sends only that family to reference."""
    if stem not in _family_libs:
        with _probe_lock:
            if stem not in _family_libs:
                try:
                    lib = _load_object(stem)
                except Exception as exc:
                    _family_errors[stem] = f"kernel object {stem} unavailable: {exc}"
                    logger.warning(
                        "%s; its family steps on reference", _family_errors[stem]
                    )
                    lib = None
                _family_libs[stem] = lib
    return _family_libs[stem]


def jit_available(stem: str = CORE) -> bool:
    """True when the compiled kernel can be (or has been) loaded; given a
    family object's stem, also that object (building it on first use)."""
    if _kernel() is None:
        return False
    return stem == CORE or _family_lib(stem) is not None


def kernel_compile_seconds() -> float:
    """One-time compile cost of every kernel object *this* process built
    (0.0 when each was a cache hit)."""
    return sum(_compile_seconds.values(), 0.0)


# --------------------------------------------------------------------- #
# Image helpers
# --------------------------------------------------------------------- #


#: provenance tags carrying one line -> their kind (``kernel.h``).
_LINE_PROV_KINDS = {"shadow": 4, "tgt": 5, "markov": 6, "mana": 7}
_LINE_PROV_TAGS = {kind: tag for tag, kind in _LINE_PROV_KINDS.items()}


def _encode_prov(provenance):
    """(kind, index, line) encoding of a candidate/line provenance."""
    if provenance is None:
        return 0, 0, 0
    tag = provenance[0]
    if tag == "seq":
        return 1, 0, 0
    if tag == "disc":
        return 2, provenance[1], provenance[2]
    if tag == "fdp":
        return 3, 0, 0
    if tag in _LINE_PROV_KINDS:
        return _LINE_PROV_KINDS[tag], 0, provenance[1]
    raise ValueError(f"unsupported provenance {provenance!r}")


def _decode_prov(kind: int, index: int, line: int):
    """Inverse of :func:`_encode_prov`."""
    if kind == 0:
        return None
    if kind == 1:
        return ("seq",)
    if kind == 2:
        return ("disc", index, line)
    if kind == 3:
        return ("fdp",)
    return (_LINE_PROV_TAGS[kind], line)


def _ptr(buffer, ctype):
    """*buffer* (a ctypes array) as a ``POINTER(ctype)``.

    Cast from the address, not the array: ``ctypes.cast(buffer, ...)``
    stores the array in its own ``_objects`` dict, a cycle that only the
    cyclic garbage collector frees (a 2 MB L2's line array is 1.6 MB).
    The pointer keeps nothing alive; the caller holds *buffer* (``keep``
    or an image).
    """
    return ctypes.cast(ctypes.addressof(buffer), ctypes.POINTER(ctype))


def _column(column: array, ctype):
    """An ``array`` column as a ``POINTER(ctype)``; the caller holds it."""
    return ctypes.cast(column.buffer_info()[0], ctypes.POINTER(ctype))


def _filled(n: int, initial: int, ctype, keep: list):
    """A C array of *n* entries of *ctype*, each *initial*: zero-filled by
    ctypes and, unless *initial* is 0, filled by one ``memset`` (*initial*
    is -1 for a ``long long`` column)."""
    buffer = (ctype * n)()
    if initial:
        ctypes.memset(buffer, initial & 0xFF, ctypes.sizeof(buffer))
    keep.append(buffer)
    return _ptr(buffer, ctype)


def _sync_fields(stats, state) -> None:
    """Copy every field of the flat stats dataclass *stats* from the C
    struct *state*, whose counters carry the same names (a counter missing
    from *state* raises on the first sync)."""
    for field in dataclasses.fields(stats):
        setattr(stats, field.name, getattr(state, field.name))


def _fresh(value) -> bool:
    """True when *value* still holds its construction state: a never-read
    :class:`~repro.util.containers.LazyTable`, a stats dataclass (or
    breakdown) of zero counters, a zero scalar or an empty container."""
    if type(value) is int or type(value) is float:  # most values: counters
        return not value
    if isinstance(value, LazyTable):
        return pristine(value)
    if dataclasses.is_dataclass(value):
        return all(map(_fresh, vars(value).values()))
    if isinstance(value, MissBreakdown):
        return not any(value._counts)
    return not value


# --------------------------------------------------------------------- #
# Prefetcher families: one binding per kernel unit's ops table
# --------------------------------------------------------------------- #


class _Family:
    """Kernel binding of one prefetcher family.

    ``ops`` names the ``PfOps`` table the family's C unit exports and
    ``stem`` the kernel object holding it (None: the core).  The base
    class is the stateless ``none`` family.
    """

    ops = "repro_pf_none"
    stem: Optional[str] = None

    def library(self):
        """The loaded object exporting :attr:`ops`."""
        return _kernel() if self.stem is None else _family_lib(self.stem)

    def unsupported(self, prefetcher) -> Optional[str]:
        """Why the kernel cannot replicate *prefetcher*'s parameters, or
        None when it can."""
        return None

    def candidates(self, prefetcher) -> int:
        """Most candidates one demand fetch can produce (buffer size)."""
        return 0

    def held(self, prefetcher) -> tuple:
        """The tables and containers of *prefetcher* that :meth:`bind`
        does not read: its C state starts as their construction state, so
        each must still hold it (:func:`_fresh`)."""
        return ()

    def stats(self, prefetcher):
        """The family's flat stats dataclass, whose fields the C state
        counts under the same names (None: it has none)."""
        return None

    def bind(self, prefetcher, keep: list) -> Optional[ctypes.Structure]:
        """The family's C state, built from *prefetcher*'s configuration
        and scalars (None when stateless): its tables start as their
        construction contents and its counters at zero.  Every buffer it
        points into is appended to *keep*."""
        return None

    def sync_out(self, prefetcher, state) -> None:
        """Copy the family's counters from *state* back to *prefetcher*."""
        stats = self.stats(prefetcher)
        if stats is not None:
            _sync_fields(stats, state)


class _Sequential(_Family):
    """``sequential.c``: one trigger and one (first, count) reach."""

    ops = "repro_pf_seq"

    #: CSeq.trigger values.
    ALWAYS, ON_MISS, TAGGED = 0, 1, 2

    def __init__(self, trigger: int, reach: Callable[[object], Tuple[int, int]]):
        self.trigger = trigger
        self.reach = reach

    def candidates(self, prefetcher) -> int:
        return self.reach(prefetcher)[1]

    def bind(self, prefetcher, keep):
        first, count = self.reach(prefetcher)
        return STRUCTS["CSeq"](trigger=self.trigger, first=first, count=count)


class _Discontinuity(_Family):
    """``discontinuity.c``: the table plus the prefetch-ahead window."""

    ops = "repro_pf_disc"
    stem = "repro_jit_disc"

    def candidates(self, prefetcher) -> int:
        ahead = prefetcher.prefetch_ahead
        probes = ahead + 1 if prefetcher.probe_ahead else 1
        return ahead + probes * (ahead + 1)

    def held(self, prefetcher):
        table = prefetcher.table
        return (table._sources, table._targets, table._counters)

    def stats(self, prefetcher):
        return prefetcher.table.stats

    def bind(self, prefetcher, keep):
        table = prefetcher.table
        n = table.entries
        return STRUCTS["CDisc"](
            mask=table._mask,
            counter_max=table.counter_max,
            sources=_filled(n, -1, _LL, keep),  # -1: no source (None)
            targets=_filled(n, 0, _LL, keep),
            counters=_filled(n, 0, _LL, keep),
            ahead=prefetcher.prefetch_ahead,
            probe=1 if prefetcher.probe_ahead else 0,
        )


class _FetchDirected(_Family):
    """``branch.c``: gshare + tagless BTB + RAS run-ahead."""

    ops = "repro_pf_fdp"
    stem = "repro_jit_branch"

    def candidates(self, prefetcher) -> int:
        return prefetcher.lookahead

    def held(self, prefetcher):
        return (prefetcher.gshare._pht, prefetcher.btb._targets, prefetcher.ras._stack)

    def bind(self, prefetcher, keep) -> ctypes.Structure:
        gshare, btb, ras = prefetcher.gshare, prefetcher.btb, prefetcher.ras
        return STRUCTS["CBranch"](
            pht=_filled(gshare.entries, 1, ctypes.c_ubyte, keep),
            pht_mask=gshare._mask,
            history=gshare._history,
            history_mask=gshare._history_mask,
            btb=_filled(btb.entries, -1, _LL, keep),
            btb_mask=btb._mask,
            ras=_filled(ras.capacity, 0, _LL, keep),
            ras_cap=ras.capacity,
            prev_line=prefetcher._prev_line,
            lookahead=prefetcher.lookahead,
            k_call=int(TransitionKind.CALL),
            k_jump=int(TransitionKind.JUMP),
            k_return=int(TransitionKind.RETURN),
        )


class _ShadowBranch(_FetchDirected):
    """``branch.c``: the fdp walk into an FTQ, then STB predecode."""

    ops = "repro_pf_shadow"

    def candidates(self, prefetcher) -> int:
        steps = min(prefetcher.lookahead, prefetcher.ftq_entries)
        return steps * (1 + prefetcher.shadow_degree)

    def held(self, prefetcher):
        return super().held(prefetcher) + (prefetcher.stb._sets, prefetcher.shadow_discoveries)

    def bind(self, prefetcher, keep):
        stb = prefetcher.stb
        ways = (STRUCTS["CStbEntry"] * stb.entries)()
        keep.append(ways)
        steps = min(prefetcher.lookahead, prefetcher.ftq_entries)
        return STRUCTS["CShadow"](
            b=super().bind(prefetcher, keep),
            ftq_entries=prefetcher.ftq_entries,
            degree=prefetcher.shadow_degree,
            ftq_lines=_filled(steps, 0, _LL, keep),
            ftq_seq=_filled(steps, 0, _LL, keep),
            stb_set_mask=stb._set_mask,
            stb_assoc=stb.assoc,
            stb=_ptr(ways, STRUCTS["CStbEntry"]),
            stb_counts=_filled(stb._set_mask + 1, 0, _LL, keep),
        )

    def sync_out(self, prefetcher, state) -> None:
        prefetcher.shadow_discoveries = state.discoveries


def _hist_map(capacity: int, keep: list) -> ctypes.Structure:
    """``history.c``'s map of a table holding at most *capacity* entries,
    empty once ``repro_hist_init`` has run."""
    nodes = capacity + 1
    slot_bits = (2 * nodes - 1).bit_length()
    buffers = [(_LL * nodes)(), (_LL * nodes)(), (_LL * nodes)()]
    slots = (_LL * (1 << slot_bits))()
    keep.extend(buffers + [slots])
    keys, prev, nxt = (_ptr(buffer, _LL) for buffer in buffers)
    return STRUCTS["CHist"](
        capacity=capacity,
        keys=keys,
        prev=prev,
        next=nxt,
        slots=_ptr(slots, _LL),
        slot_bits=slot_bits,
    )


class _History(_Family):
    """``history.c``: the OrderedDict map shared by target and markov."""

    stem = "repro_jit_history"

    def _init(self, state) -> None:
        """Set up the empty map of a freshly built *state*."""
        init = self.library().repro_hist_init
        init.argtypes = [ctypes.POINTER(STRUCTS["CHist"])]
        init.restype = None
        init(ctypes.byref(state.map))


class _Target(_History):
    """``history.c``: the line -> next-line table, probed with the
    current line."""

    ops = "repro_pf_target"

    def candidates(self, prefetcher) -> int:
        return prefetcher.degree

    def held(self, prefetcher):
        return (prefetcher._table,)

    def bind(self, prefetcher, keep) -> ctypes.Structure:
        state = STRUCTS["CTarget"](
            map=_hist_map(prefetcher.capacity, keep),
            targets=_filled(prefetcher.capacity + 1, 0, _LL, keep),
            degree=prefetcher.degree,
        )
        self._init(state)
        return state


class _Markov(_History):
    """``history.c``: per-source successor lists in canonical order."""

    ops = "repro_pf_markov"

    def candidates(self, prefetcher) -> int:
        ahead = prefetcher.prefetch_ahead
        top = min(prefetcher.fanout, prefetcher.table.targets_per_entry)
        return ahead + top * (ahead + 1) * (ahead + 2) // 2

    def held(self, prefetcher):
        return (prefetcher.table._table,)

    def stats(self, prefetcher):
        return prefetcher.table.stats

    def bind(self, prefetcher, keep) -> ctypes.Structure:
        table = prefetcher.table
        width = table.targets_per_entry
        nodes = table.capacity + 1
        succ = (STRUCTS["CSucc"] * (nodes * width))()
        keep.append(succ)
        state = STRUCTS["CMarkov"](
            map=_hist_map(table.capacity, keep),
            succ=_ptr(succ, STRUCTS["CSucc"]),
            succ_n=_filled(nodes, 0, _LL, keep),
            targets_per_entry=width,
            fanout=prefetcher.fanout,
            ahead=prefetcher.prefetch_ahead,
        )
        self._init(state)
        return state


#: widest region whose footprint fits ``mana.c``'s 64-bit bitmap.
_MANA_MAX_REGION = 64


class _Mana(_Family):
    """``mana.c``: the record table, SAB recorder and replay chain."""

    ops = "repro_pf_mana"
    stem = "repro_jit_mana"

    def unsupported(self, prefetcher) -> Optional[str]:
        if prefetcher.region_lines > _MANA_MAX_REGION:
            return (
                f"ManaPrefetcher region_lines {prefetcher.region_lines} exceeds the "
                f"kernel's {_MANA_MAX_REGION}-bit footprint"
            )
        return None

    def candidates(self, prefetcher) -> int:
        return prefetcher.replay_depth * prefetcher.region_lines

    def held(self, prefetcher):
        return (prefetcher.table._sets,)

    def stats(self, prefetcher):
        return prefetcher.table.stats

    def bind(self, prefetcher, keep) -> ctypes.Structure:
        table = prefetcher.table
        ways = (STRUCTS["CManaRecord"] * table.entries)()
        keep.append(ways)
        return STRUCTS["CMana"](
            set_mask=table._set_mask,
            assoc=table.assoc,
            ways=_ptr(ways, STRUCTS["CManaRecord"]),
            counts=_filled(table._set_mask + 1, 0, _LL, keep),
            region_shift=prefetcher._region_shift,
            offset_mask=prefetcher._offset_mask,
            replay_depth=prefetcher.replay_depth,
            rec_region=prefetcher._rec_region,
            rec_trigger=prefetcher._rec_trigger,
            rec_footprint=prefetcher._rec_footprint,
            prev_trigger=prefetcher._prev_trigger,
        )


#: exact prefetcher type -> kernel family (subclasses with overridden
#: behavior must not match, hence ``type() is``-style lookup).
_PF_MODES = {
    NullPrefetcher: _Family(),
    NextLineAlways: _Sequential(_Sequential.ALWAYS, lambda pf: (1, 1)),
    NextLineOnMiss: _Sequential(_Sequential.ON_MISS, lambda pf: (1, 1)),
    NextLineTagged: _Sequential(_Sequential.TAGGED, lambda pf: (1, 1)),
    NextNLineTagged: _Sequential(_Sequential.TAGGED, lambda pf: (1, pf.degree)),
    LookaheadN: _Sequential(_Sequential.TAGGED, lambda pf: (pf.distance, 1)),
    DiscontinuityPrefetcher: _Discontinuity(),
    FetchDirectedPrefetcher: _FetchDirected(),
    ShadowBranchPrefetcher: _ShadowBranch(),
    TargetPrefetcher: _Target(),
    MarkovPrefetcher: _Markov(),
    ManaPrefetcher: _Mana(),
}


def config_fallback_reason(
    prefetcher, all_lru: bool, inclusive_l2: bool
) -> Optional[str]:
    """Why the kernel cannot replicate a core configured with *prefetcher*,
    or None when it can.

    *all_lru* says whether the core's L1I, L1D and L2 all replace LRU, and
    *inclusive_l2* whether the L2 back-invalidates the L1s.  The one list
    of configuration fallbacks: :meth:`JittedCoreEngine.kernel_fallback_reason`
    adds only the touched-state check, and the sweep executor asks it of a
    spec before any system exists
    (:func:`repro.eval.runner.kernel_fallback_reason`).  It builds the
    family's object on first use.
    """
    family = _PF_MODES.get(type(prefetcher))
    if family is None:
        return f"prefetcher {type(prefetcher).__name__} has no kernel twin"
    if not all_lru:
        return "non-LRU replacement"
    if inclusive_l2:
        return "inclusive L2 (eviction hook)"
    unsupported = family.unsupported(prefetcher)
    if unsupported is not None:
        return unsupported
    wanted = family.candidates(prefetcher)
    if wanted > _MAX_CANDIDATES:
        return (
            f"{type(prefetcher).__name__} parameters need {wanted} candidates "
            f"per fetch, over the kernel cap of {_MAX_CANDIDATES}"
        )
    if not jit_available():
        return "no C compiler: the kernel is unbuildable"
    if family.stem is not None and not jit_available(family.stem):
        return _family_errors[family.stem]
    return None


# --------------------------------------------------------------------- #
# The L1D filter
# --------------------------------------------------------------------- #

#: the bit of an L1D filter entry that says its install evicted a line
#: (``L1D_EVICTED`` in ``engine.c``).
L1D_EVICTED = 1 << 62

#: held while an L1D filter is computed, so the pool threads of a sweep
#: that share a trace compute its filter once.
_filter_lock = threading.Lock()


def _replay_l1d(trace: CompiledTrace, key: tuple, visits: int, misses=None, offsets=None):
    """Run the first *visits* visits of *trace*'s data column through an
    empty LRU L1D of geometry *key* (``repro_l1d_filter``); return the
    L1D's image ``(tags, counts)`` and the number of misses.  With
    *misses* and *offsets*, the misses and the per-visit offsets are
    written to them."""
    set_mask, assoc, line_shift = key
    tags = (_LL * ((set_mask + 1) * assoc))()
    counts = (_LL * (set_mask + 1))()
    n = _kernel().repro_l1d_filter(
        _column(trace.data, _LL),
        _column(trace.offsets, _LL),
        visits,
        line_shift,
        set_mask,
        assoc,
        _ptr(tags, _LL),
        _ptr(counts, _LL),
        None if misses is None else _ptr(misses, _LL),
        None if offsets is None else _column(offsets, ctypes.c_uint),
    )
    if n < 0:
        raise ValueError(f"trace {trace.name}: a data line does not fit below bit 62")
    return tags, counts, n


def _compute_l1d_filter(trace: CompiledTrace, key: tuple) -> Tuple[array, array]:
    """*trace*'s L1D filter for geometry *key*: each miss's line (with
    :data:`L1D_EVICTED` set when it evicted) and the per-visit offsets
    into them, as 32-bit counts."""
    if len(trace.data) > 0xFFFFFFFF:
        raise ValueError(f"trace {trace.name}: too many data accesses for 32-bit offsets")
    # ctypes allocates zeroed memory, so only the pages the misses fill
    # become resident; the misses are then copied out at their size.
    scratch = (_LL * len(trace.data))()
    offsets = array("I", [0]) * (trace.visit_count + 1)
    _, _, n = _replay_l1d(trace, key, trace.visit_count, scratch, offsets)
    misses = array("q")
    misses.frombytes(memoryview(scratch).cast("B")[: 8 * n])
    return misses, offsets


def l1d_filter(trace: CompiledTrace, key: tuple) -> Tuple[array, array]:
    """*trace*'s L1D filter for the geometry *key* ``(set mask,
    associativity, line shift)``: the misses and per-visit offsets that
    ``process_visit`` steps.

    Only the core's own demand data reaches its L1D in the kernel (an LRU
    cache that no inclusive L2 back-invalidates), so its misses depend on
    the trace and the geometry alone.  The filter is computed once per
    trace and geometry under :data:`_filter_lock` and memoized on the
    trace (``CompiledTrace.l1d_filters``): every run of a memoized trace,
    on any pool thread, shares it, and it is dropped with the trace.
    """
    filters = trace.l1d_filters
    found = filters.get(key)
    if found is None:
        with _filter_lock:
            found = filters.get(key)
            if found is None:
                found = filters[key] = _compute_l1d_filter(trace, key)
    return found


def _l1d_sets(trace: CompiledTrace, key: tuple, visits: int) -> list:
    """The L1D's sets after the first *visits* visits of *trace*, as the
    reference engine leaves them: the filter replayed and decoded.  Every
    line is a demand install, ``LineState(used=True)``, which no L1D hit
    changes."""
    assoc = key[1]
    tags, counts, _ = _replay_l1d(trace, key, visits)
    return [
        OrderedDict(
            (tag, LineState(used=True)) for tag in tags[si * assoc : si * assoc + count]
        )
        for si, count in enumerate(counts)
    ]


# --------------------------------------------------------------------- #
# Cache and system images
# --------------------------------------------------------------------- #


class _CacheImage:
    """C image of one empty :class:`SetAssociativeCache` (LRU sets as
    arrays): ctypes zero-fills the arrays and the counters, which is an
    empty cache, so binding runs no Python loop (a 2 MB L2 has 8,192
    sets)."""

    def __init__(self, cache: SetAssociativeCache) -> None:
        n_sets = cache._set_mask + 1
        self.lines = (STRUCTS["CLine"] * (n_sets * cache._assoc))()
        self.counts = (_LL * n_sets)()
        self.struct = STRUCTS["CCache"](
            set_mask=cache._set_mask,
            assoc=cache._assoc,
            lines=_ptr(self.lines, STRUCTS["CLine"]),
            counts=_ptr(self.counts, _LL),
        )

    def decode(self) -> list:
        """The image's contents as a cache's per-set ``OrderedDict`` list
        (ways in LRU -> MRU order, every :class:`LineState` field)."""
        assoc = self.struct.assoc
        lines = self.lines
        sets = []
        for si, count in enumerate(self.counts):
            cache_set: OrderedDict = OrderedDict()
            for cl in lines[si * assoc : si * assoc + count]:
                cache_set[cl.tag] = LineState(
                    prefetched=bool(cl.prefetched),
                    used=bool(cl.used),
                    arrival=cl.arrival,
                    bypass_pending=bool(cl.bypass_pending),
                    from_memory=bool(cl.from_memory),
                    useless_hint=bool(cl.useless_hint),
                    provenance=_decode_prov(cl.prov_kind, cl.prov_index, cl.prov_line),
                )
            sets.append(cache_set)
        return sets


class _JitSystem:
    """Shared C images (L2 + off-chip link) for one system's engines.

    Sibling engines of one :class:`~repro.cmp.system.System` share the L2
    and link objects; their kernels must therefore share one C image of
    each.  Instances are discovered through a :data:`weakref` registry
    keyed by link identity — safe against id reuse because a live entry
    holds its link alive — and kept alive by the engines that bound them.
    """

    def __init__(self, link, l2: SetAssociativeCache) -> None:
        self.link = link
        self.l2 = l2
        self.l2_image = _CacheImage(l2)
        self.c_l2 = self.l2_image.struct
        self.c_link = STRUCTS["CLink"](occupancy=link.occupancy_cycles)

    def sync_out(self) -> None:
        _sync_fields(self.l2.stats, self.c_l2)
        _sync_fields(self.link.stats, self.c_link)
        self.link._next_free = self.c_link.next_free


_SYSTEMS: "weakref.WeakValueDictionary[int, _JitSystem]" = weakref.WeakValueDictionary()


def _imaged(link, l2) -> Optional[_JitSystem]:
    """The :class:`_JitSystem` already imaging *link* and *l2*, or None."""
    jitsys = _SYSTEMS.get(id(link))
    if jitsys is not None and jitsys.link is link and jitsys.l2 is l2:
        return jitsys
    return None


def _system_for(link, l2) -> _JitSystem:
    jitsys = _imaged(link, l2)
    if jitsys is None:
        jitsys = _SYSTEMS[id(link)] = _JitSystem(link, l2)
    return jitsys


def _index(nodes: int, keep: list) -> ctypes.Structure:
    """An empty ``CIndex`` for up to *nodes* lines, at most a quarter full."""
    bits = max(2, (4 * nodes - 1).bit_length())
    slots = (STRUCTS["CSlot"] * (1 << bits))()
    keep.append(slots)
    return STRUCTS["CIndex"](slots=_ptr(slots, STRUCTS["CSlot"]), bits=bits)


def _list(nodes: int, keep: list) -> ctypes.Structure:
    """A ``CList`` over a pool of *nodes* nodes (``repro_queue_init`` links it)."""
    links = (_LL * (2 * nodes))()
    keep.append(links)
    return STRUCTS["CList"](links=_ptr(links, _LL))


def queue_image(config, keep: list, init) -> ctypes.Structure:
    """C image (``CQueue``) of an empty
    :class:`~repro.prefetch.queue.PrefetchQueue` with *config* (its
    ``_config``): *init* (the kernel's ``repro_queue_init``) sets up the
    empty lists; every buffer is appended to *keep*.
    """
    entries = (STRUCTS["CQEntry"] * config.capacity)()
    keep.append(entries)
    state = STRUCTS["CQueue"](
        capacity=config.capacity,
        recent_capacity=config.recent_capacity,
        lifo=1 if config.lifo else 0,
        filtering=1 if config.filtering else 0,
        entries=_ptr(entries, STRUCTS["CQEntry"]),
        age=_list(config.capacity, keep),
        ready=_list(config.capacity, keep),
        recent=_filled(config.recent_capacity, 0, _LL, keep),
        recency=_list(config.recent_capacity, keep),
        index=_index(config.capacity + config.recent_capacity, keep),
    )
    init(ctypes.byref(state))
    return state


# --------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------- #


class JittedCoreEngine(CoreEngine):
    """Drop-in :class:`CoreEngine` stepping through the compiled kernel."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._twin_ok: Optional[bool] = None
        #: why this engine steps on reference (None: it runs in the
        #: kernel, or eligibility is not decided yet).
        self.fallback_reason: Optional[str] = None
        self._c: Optional[ctypes.Structure] = None
        self._c_started = False
        self._lib = None
        self._jit_system: Optional[_JitSystem] = None
        self._family: Optional[_Family] = None
        self._pf_state: Optional[ctypes.Structure] = None
        self._buffers: list = []
        self._cache_images: tuple = ()
        self._l1d_key: tuple = ()

    # ------------------------------------------------------------------ #
    # Eligibility + binding
    # ------------------------------------------------------------------ #

    def kernel_fallback_reason(self) -> Optional[str]:
        """Why the kernel cannot replicate this configuration exactly, or
        None when it can (binding may still fail; see :meth:`_twin_ready`).
        """
        reason = config_fallback_reason(
            self.prefetcher,
            all_lru=self.l1i._is_lru and self.l1d._is_lru and self.l2._is_lru,
            inclusive_l2=self.l2_eviction_hook is not None,
        )
        if reason is None and self._c is None:  # once bound, C is authoritative
            touched = self._touched()
            if touched is not None:
                reason = f"{touched} touched before the kernel bound"
        return reason

    def _touched(self) -> Optional[str]:
        """The first component that no longer holds its construction
        state (:func:`_fresh`), or None.

        :meth:`_bind` builds every cache, the queue, the MSHR and the
        prefetcher's tables as constructed and every counter at zero, so
        it must not bind a touched one.  The shared L2 and link are checked
        only until a sibling core images them; from then on their C image
        is authoritative.
        """
        queue, prefetcher = self.queue, self.prefetcher
        family = _PF_MODES[type(prefetcher)]
        components = [
            ("core stats", (self.stats,)),
            ("l1i", (self.l1i._sets, self.l1i.stats)),
            ("l1d", (self.l1d._sets, self.l1d.stats)),
            ("queue", (queue._entries, queue._recent, queue.stats)),
            ("mshr", (self._mshr._entries,)),
            ("prefetcher", family.held(prefetcher) + (family.stats(prefetcher),)),
        ]
        if _imaged(self.link, self.l2) is None:
            components += [
                ("l2", (self.l2._sets, self.l2.stats)),
                ("link", (self.link.stats, self.link._next_free)),
            ]
        for name, values in components:
            if not all(_fresh(value) for value in values):
                return name
        return None

    def _twin_ready(self) -> bool:
        """Decide (once, lazily — the system wires ``l2_eviction_hook``
        after construction) whether the kernel replicates this
        configuration exactly; bind the state into C if so."""
        ok = self._twin_ok
        if ok is None:
            reason = self.kernel_fallback_reason()
            if reason is None:
                try:
                    self._bind()
                except Exception as exc:
                    logger.exception(
                        "jit bind failed; falling back to reference stepping"
                    )
                    reason = f"bind error: {exc}"
            self.fallback_reason = reason
            ok = self._twin_ok = reason is None
        return ok

    def _bind(self) -> None:
        """Build the engine's ``CCore`` from its configuration and scalars;
        every container and counter starts as constructed (checked by
        :meth:`_touched`)."""
        lib = _kernel()
        assert lib is not None  # guarded by jit_available() in _twin_ready
        self._lib = lib
        trace = self.trace
        c = STRUCTS["CCore"]()
        keep = self._buffers

        # Trace columns and filters are borrowed; self.trace keeps the
        # arrays alive.
        c.t_lines = _column(trace.lines, _LL)
        c.t_kinds = _column(trace.kinds, ctypes.c_byte)
        c.t_ninstr = _column(trace.ninstr, ctypes.c_int)
        c.t_offsets = _column(trace.offsets, _LL)
        c.t_disc = _column(trace.disc, ctypes.c_byte)
        l1d = self.l1d
        self._l1d_key = (l1d._set_mask, l1d._assoc, self._line_shift)
        misses, offsets = l1d_filter(trace, self._l1d_key)
        c.f_misses = _column(misses, _LL)
        c.f_offsets = _column(offsets, ctypes.c_uint)
        c.visit_index = self._visit_index
        c.visit_count = self._c_count

        c.cycle = self.cycle
        c.slot_credit = self._slot_credit
        c.last_slot_cycle = self._last_slot_cycle
        c.cycle_mark = self._cycle_mark
        c.prev_line = self._prev_line
        c.total_instructions = self.total_instructions
        c.warmed = 1 if self._warmed else 0
        c.warm_target = self._warm_target
        c.finished = 1 if self._finished else 0

        c.slot_rate = self._slot_rate
        c.exec_cpi = self._exec_cpi
        c.l2_latency = self._l2_latency
        c.memory_latency = self._memory_latency
        c.fetch_stall_exposed = self._fetch_stall_exposed
        c.data_l2_exposed = self._data_l2_exposed
        c.data_memory_exposed = self._data_memory_exposed
        c.line_shift = self._line_shift

        c.useless_hint_filter = 1 if self._useless_hint_filter else 0
        policy = self._l2_policy
        c.pol_install_fills = 1 if policy.install_prefetch_fills else 0
        c.pol_promote = 1 if policy.promote_on_prefetch_hit else 0
        c.pol_evict_install = 1 if policy.install_used_on_eviction else 0
        free_kind = (ctypes.c_byte * _N_KINDS)(
            *(1 if flag else 0 for flag in self._free_kind)
        )
        keep.append(free_kind)
        c.free_kind = _ptr(free_kind, ctypes.c_byte)

        # Prefetcher: the family's ops table, state and candidate buffer.
        prefetcher = self.prefetcher
        family = _PF_MODES[type(prefetcher)]
        state = family.bind(prefetcher, keep)
        cand = (STRUCTS["CCand"] * max(1, family.candidates(prefetcher)))()
        keep.append(cand)
        c.pf_ops = ctypes.pointer(STRUCTS["PfOps"].in_dll(family.library(), family.ops))
        c.pf = ctypes.addressof(state) if state is not None else None
        c.cand = _ptr(cand, STRUCTS["CCand"])
        self._family = family
        self._pf_state = state

        # CoreStats counters are zero-filled; the breakdowns are arrays.
        l1i_bd = (_LL * _N_KINDS)()
        l2i_bd = (_LL * _N_KINDS)()
        keep.extend((l1i_bd, l2i_bd))
        c.l1i_breakdown = _ptr(l1i_bd, _LL)
        c.l2i_breakdown = _ptr(l2i_bd, _LL)
        self._c_l1i_bd = l1i_bd
        self._c_l2i_bd = l2i_bd

        # Private caches are inline; the shared L2 + link live in the
        # per-system image so sibling cores mutate one copy.  The L1D
        # binds its counters only: the filter holds its contents.
        l1i_image = _CacheImage(self.l1i)
        keep.append(l1i_image)
        c.l1i = l1i_image.struct
        c.l1d = STRUCTS["CCache"](set_mask=l1d._set_mask, assoc=l1d._assoc)
        jitsys = _system_for(self.link, self.l2)
        self._jit_system = jitsys
        self._cache_images = ((self.l1i, l1i_image), (self.l2, jitsys.l2_image))
        c.l2 = ctypes.pointer(jitsys.c_l2)
        c.link = ctypes.pointer(jitsys.c_link)

        c.queue = queue_image(self.queue._config, keep, lib.repro_queue_init)

        # MSHR (insertion-ordered flat arrays).
        capacity = self._mshr._capacity
        c.mshr = STRUCTS["CMshr"](
            lines=_filled(capacity, 0, _LL, keep),
            arrivals=_filled(capacity, 0, _DBL, keep),
            cap=capacity,
        )

        self._c = c

    # ------------------------------------------------------------------ #
    # Sync-out: C -> Python after every kernel call
    # ------------------------------------------------------------------ #

    def _sync_out(self) -> None:
        """Copy scalars and every stats object back to the Python side.

        The L1D's contents follow at once, as a replay to this visit; the
        other caches' once the run finishes (:meth:`_finish`);
        queue/MSHR/predictor-table contents stay C-resident (see the
        module docstring) — everything result aggregation, ``--verify``
        lockstep or the CMP driver reads is synced exactly.
        """
        c = self._c
        self.cycle = c.cycle
        self._slot_credit = c.slot_credit
        self._last_slot_cycle = c.last_slot_cycle
        self._cycle_mark = c.cycle_mark
        self._prev_line = c.prev_line
        self.total_instructions = c.total_instructions
        self._visit_index = c.visit_index
        self._warmed = bool(c.warmed)

        stats = self.stats
        stats.instructions = c.instructions
        stats.cycles = c.st_cycles
        stats.exec_cycles = c.exec_cycles
        stats.fetch_stall_cycles = c.fetch_stall_cycles
        stats.data_stall_cycles = c.data_stall_cycles
        stats.l1i_fetches = c.l1i_fetches
        stats.l1i_misses = c.l1i_misses
        stats.l2i_demand_accesses = c.l2i_demand_accesses
        stats.l2i_demand_misses = c.l2i_demand_misses
        stats.data_accesses = c.data_accesses
        stats.l1d_misses = c.l1d_misses
        stats.l2d_accesses = c.l2d_accesses
        stats.l2d_misses = c.l2d_misses
        stats.l1i_breakdown._counts[:] = list(self._c_l1i_bd)
        stats.l2i_breakdown._counts[:] = list(self._c_l2i_bd)
        _sync_fields(stats.prefetch, c)
        _sync_fields(self.l1i.stats, c.l1i)
        _sync_fields(self.l1d.stats, c.l1d)
        # The L1D holds what the filter's replay to this visit leaves.
        self.l1d._sets = LazySets(  # type: ignore[assignment]
            self.l1d, functools.partial(_l1d_sets, self.trace, self._l1d_key, c.visit_index)
        )
        self._jit_system.sync_out()
        self.queue.waiting = c.queue.waiting
        _sync_fields(self.queue.stats, c.queue)

        self._family.sync_out(self.prefetcher, self._pf_state)

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """One visit per call — exact CMP interleaving, kernel body."""
        if not self._twin_ready():
            return super().step()
        c = self._c
        i = c.visit_index
        if i >= c.visit_count:
            self._finish()
            c.finished = 1
            cycles = self.cycle - self._cycle_mark
            self.stats.cycles = cycles
            c.st_cycles = cycles
            return False
        self._c_started = True
        self._lib.repro_span(ctypes.byref(c), i + 1)
        self._sync_out()
        return True

    def run(self) -> CoreStats:
        """Run the whole trace inside the kernel."""
        if not self._twin_ready():
            return super().run()
        self._c_started = True
        self._lib.repro_run(ctypes.byref(self._c))
        self._sync_out()
        self._finish()
        return self.stats

    def _finish(self) -> None:
        """Mark the run finished and hand the L1I and the L2 their C
        images, decoded on first read (see the module docstring)."""
        self._finished = True
        for cache, image in self._cache_images:
            cache._sets = LazySets(cache, image.decode)  # type: ignore[assignment]

    @staticmethod
    def run_multicore(engines: List["JittedCoreEngine"]) -> bool:
        """Run a whole multi-core system inside one kernel call.

        Invoked by :meth:`repro.cmp.system.System.run` before its Python
        interleave loop.  Returns False (caller falls back to the exact
        Python loop) unless *every* engine is kernel-eligible: a mix of
        kernel-resident and Python-resident engines sharing one L2 would
        silently diverge, so ineligibility of any sibling flips the whole
        system to reference stepping.  Uniform system construction makes
        the mixed case practically unreachable, but the guard is load-
        bearing for custom per-core prefetcher factories.
        """
        # A list, not a generator: every engine decides, so each records
        # its own fallback reason rather than a sibling's.
        ready = all([
            isinstance(engine, JittedCoreEngine) and engine._twin_ready()
            for engine in engines
        ])
        if not ready or len(engines) > _MAX_CORES:
            for engine in engines:
                if isinstance(engine, JittedCoreEngine) and not engine._c_started:
                    engine._twin_ok = False
                    if engine.fallback_reason is None:
                        engine.fallback_reason = (
                            f"more than {_MAX_CORES} cores"
                            if ready
                            else "a sibling core steps on reference"
                        )
            return False
        cores = (ctypes.POINTER(STRUCTS["CCore"]) * len(engines))(
            *(ctypes.pointer(engine._c) for engine in engines)
        )
        for engine in engines:
            engine._c_started = True
        engines[0]._lib.repro_run_system(cores, len(engines))
        for engine in engines:
            engine._sync_out()
            engine._finish()
        return True
