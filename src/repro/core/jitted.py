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
system C compiler (``cc -O1 -fPIC -shared -ffp-contract=off``), cached
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
object holds it.  Each family has one Python marshaller
(:class:`_Family`), looked up by the prefetcher's *exact* type in
:data:`_PF_MODES`: it names the family's object and ops table, sizes the
core's candidate buffer, marshals the family state into C and syncs its
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
- the prefetch queue/recent-demand filter/MSHR become capacity-sized flat
  arrays with the reference's exact scan, hoist and overflow behavior;
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

State ownership: once an engine binds its state into the kernel (first
``step()``/``run()`` on an eligible config), the C state is authoritative
for cache/queue/MSHR/predictor-table *contents*.  Scalars and every stats
object (including the discontinuity, Markov and MANA table stats and the
shadow prefetcher's ``shadow_discoveries``) are synced back after each kernel
call, so ``--verify`` lockstep, the CMP interleave driven from Python, and
all result aggregation see exact values.  Queue, MSHR and predictor-table
contents have no reader outside the engine and stay C-resident.  Engines
of one system share one :class:`_JitSystem` (the C images of the shared
L2 and off-chip link), keyed by link identity.

Cache sets through a kernel run (:class:`~repro.caches.cache.LazySets`):

1. **unbuilt** — a new cache holds a ``LazySets`` stand-in, no per-set
   ``OrderedDict``.  Binding it (:class:`_CacheImage`) only allocates the
   C arrays, which ctypes zero-fills: an empty cache, with no Python loop
   (a 2 MB L2 has 8,192 sets).  A cache that was read or installed into
   before binding has built sets and is marshalled set by set instead;
2. **C image** — while the kernel runs, the image is authoritative;
3. **decoded on read** — when an engine finishes inside the kernel
   (``run()``, ``run_multicore()`` or the final ``step()``), its L1I, L1D
   and the shared L2 get a ``LazySets`` whose builder is the image's
   :meth:`_CacheImage.decode`.  The first read (``probe``,
   ``resident_lines``, ``in``, ``len``) decodes it into the plain list the
   reference engine would have left, so a sweep that never inspects a
   cache never builds its sets.

Every ctypes pointer into a buffer is cast from the buffer's address
(:func:`_ptr`), and the buffer is held by its engine or image: a cast from
the buffer object itself stores the buffer in a reference cycle, which
only the cyclic garbage collector frees.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import weakref
from array import array
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.caches.cache import LazySets, SetAssociativeCache
from repro.caches.line import LineState
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
from repro.util import ccompile

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
    return lib


def _kernel():
    """The loaded core object, or None when unavailable (one warning)."""
    global _kernel_lib, _kernel_probed
    if not _kernel_probed:
        _kernel_probed = True
        _kernel_lib = ccompile.load_or_warn(
            _build_kernel,
            logger,
            "jit engine backend",
            "falling back to the reference backend",
        )
    return _kernel_lib


def _family_lib(stem: str):
    """A family's object, built on first use; None (after one warning)
    when it cannot be built, which sends only that family to reference."""
    if stem not in _family_libs:
        try:
            _family_libs[stem] = _load_object(stem)
        except Exception as exc:
            _family_errors[stem] = f"kernel object {stem} unavailable: {exc}"
            logger.warning("%s; its family steps on reference", _family_errors[stem])
            _family_libs[stem] = None
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
# Marshaling helpers
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


def _ll_array(values, keep: list):
    """A ``long long`` array holding *values*, filled by one buffer copy."""
    buffer = (_LL * len(values)).from_buffer_copy(array("q", values))
    keep.append(buffer)
    return _ptr(buffer, _LL)


def _line_to_c(line: int, state) -> ctypes.Structure:
    pk, pi, pl = _encode_prov(state.provenance)
    return STRUCTS["CLine"](
        tag=line,
        arrival=float(state.arrival),
        prov_kind=pk,
        prov_index=pi,
        prov_line=pl,
        prefetched=1 if state.prefetched else 0,
        used=1 if state.used else 0,
        bypass_pending=1 if state.bypass_pending else 0,
        from_memory=1 if state.from_memory else 0,
        useless_hint=1 if state.useless_hint else 0,
    )


# --------------------------------------------------------------------- #
# Prefetcher families: one marshaller per kernel unit's ops table
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

    def bind(self, prefetcher, keep: list) -> Optional[ctypes.Structure]:
        """The family's C state, marshalled from *prefetcher* (None when
        stateless); every buffer it points into is appended to *keep*."""
        return None

    def sync_out(self, prefetcher, state) -> None:
        """Copy the family's counters from *state* back to *prefetcher*."""


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


_DISC_STAT_FIELDS = (
    "allocations",
    "replacements",
    "replacement_denied",
    "target_updates",
    "probe_hits",
    "credits",
)


class _Discontinuity(_Family):
    """``discontinuity.c``: the table plus the prefetch-ahead window."""

    ops = "repro_pf_disc"
    stem = "repro_jit_disc"

    def candidates(self, prefetcher) -> int:
        ahead = prefetcher.prefetch_ahead
        probes = ahead + 1 if prefetcher.probe_ahead else 1
        return ahead + probes * (ahead + 1)

    def bind(self, prefetcher, keep):
        table = prefetcher.table
        stats = table.stats
        return STRUCTS["CDisc"](
            mask=table._mask,
            counter_max=table.counter_max,
            sources=_ll_array(
                [-1 if src is None else src for src in table._sources], keep
            ),
            targets=_ll_array(table._targets, keep),
            counters=_ll_array(table._counters, keep),
            ahead=prefetcher.prefetch_ahead,
            probe=1 if prefetcher.probe_ahead else 0,
            **{name: getattr(stats, name) for name in _DISC_STAT_FIELDS},
        )

    def sync_out(self, prefetcher, state) -> None:
        stats = prefetcher.table.stats
        for name in _DISC_STAT_FIELDS:
            setattr(stats, name, getattr(state, name))


class _FetchDirected(_Family):
    """``branch.c``: gshare + tagless BTB + RAS run-ahead."""

    ops = "repro_pf_fdp"
    stem = "repro_jit_branch"

    def candidates(self, prefetcher) -> int:
        return prefetcher.lookahead

    def bind(self, prefetcher, keep) -> ctypes.Structure:
        gshare, btb, ras = prefetcher.gshare, prefetcher.btb, prefetcher.ras
        pht = (ctypes.c_ubyte * gshare.entries).from_buffer_copy(bytes(gshare._pht))
        frames = (_LL * ras.capacity)(*ras._stack)
        keep.extend((pht, frames))
        return STRUCTS["CBranch"](
            pht=_ptr(pht, ctypes.c_ubyte),
            pht_mask=gshare._mask,
            history=gshare._history,
            history_mask=gshare._history_mask,
            btb=_ll_array(btb._targets, keep),
            btb_mask=btb._mask,
            ras=_ptr(frames, _LL),
            ras_n=len(ras._stack),
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

    def bind(self, prefetcher, keep):
        stb = prefetcher.stb
        assoc = stb.assoc
        ways_c = (STRUCTS["CStbEntry"] * stb.entries)()
        counts = (_LL * (stb._set_mask + 1))()
        for si, ways in enumerate(stb._sets):
            for k, entry in enumerate(ways):
                ways_c[si * assoc + k] = STRUCTS["CStbEntry"](
                    entry.line, entry.target, entry.confidence
                )
            counts[si] = len(ways)
        steps = min(prefetcher.lookahead, prefetcher.ftq_entries)
        ftq_lines = (_LL * steps)()
        ftq_seq = (_LL * steps)()
        keep.extend((ways_c, counts, ftq_lines, ftq_seq))
        return STRUCTS["CShadow"](
            b=super().bind(prefetcher, keep),
            ftq_entries=prefetcher.ftq_entries,
            degree=prefetcher.shadow_degree,
            ftq_lines=_ptr(ftq_lines, _LL),
            ftq_seq=_ptr(ftq_seq, _LL),
            stb_set_mask=stb._set_mask,
            stb_assoc=assoc,
            stb=_ptr(ways_c, STRUCTS["CStbEntry"]),
            stb_counts=_ptr(counts, _LL),
            discoveries=prefetcher.shadow_discoveries,
        )

    def sync_out(self, prefetcher, state) -> None:
        prefetcher.shadow_discoveries = state.discoveries


def _hist_map(keys: list, capacity: int, keep: list) -> ctypes.Structure:
    """``history.c``'s map over *keys* (OrderedDict order, LRU first) of a
    table holding at most *capacity* entries; node ``k`` takes the
    ``k``-th key once ``repro_hist_init`` has run."""
    nodes = capacity + 1
    slot_bits = (2 * nodes - 1).bit_length()
    buffers = [(_LL * nodes)(*keys), (_LL * nodes)(), (_LL * nodes)()]
    slots = (_LL * (1 << slot_bits))()
    keep.extend(buffers + [slots])
    keys_c, prev, nxt = (_ptr(buffer, _LL) for buffer in buffers)
    return STRUCTS["CHist"](
        capacity=capacity,
        n=len(keys),
        keys=keys_c,
        prev=prev,
        next=nxt,
        slots=_ptr(slots, _LL),
        slot_bits=slot_bits,
    )


class _History(_Family):
    """``history.c``: the OrderedDict map shared by target and markov."""

    stem = "repro_jit_history"

    def _init(self, state) -> None:
        """Index the map of a freshly marshalled *state*."""
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

    def bind(self, prefetcher, keep) -> ctypes.Structure:
        table = prefetcher._table
        targets = (_LL * (prefetcher.capacity + 1))(*table.values())
        keep.append(targets)
        state = STRUCTS["CTarget"](
            map=_hist_map(list(table), prefetcher.capacity, keep),
            targets=_ptr(targets, _LL),
            degree=prefetcher.degree,
        )
        self._init(state)
        return state


_MARKOV_STAT_FIELDS = ("allocations", "evictions", "successor_updates", "probe_hits")


class _Markov(_History):
    """``history.c``: per-source successor lists in canonical order."""

    ops = "repro_pf_markov"

    def candidates(self, prefetcher) -> int:
        ahead = prefetcher.prefetch_ahead
        top = min(prefetcher.fanout, prefetcher.table.targets_per_entry)
        return ahead + top * (ahead + 1) * (ahead + 2) // 2

    def bind(self, prefetcher, keep) -> ctypes.Structure:
        table = prefetcher.table
        width = table.targets_per_entry
        nodes = table.capacity + 1
        succ = (STRUCTS["CSucc"] * (nodes * width))()
        succ_n = (_LL * nodes)()
        for node, entry in enumerate(table._table.values()):
            for k, (target, count) in enumerate(entry.successors):
                succ[node * width + k] = STRUCTS["CSucc"](target, count)
            succ_n[node] = len(entry.successors)
        keep.extend((succ, succ_n))
        stats = table.stats
        state = STRUCTS["CMarkov"](
            map=_hist_map(list(table._table), table.capacity, keep),
            succ=_ptr(succ, STRUCTS["CSucc"]),
            succ_n=_ptr(succ_n, _LL),
            targets_per_entry=width,
            fanout=prefetcher.fanout,
            ahead=prefetcher.prefetch_ahead,
            **{name: getattr(stats, name) for name in _MARKOV_STAT_FIELDS},
        )
        self._init(state)
        return state

    def sync_out(self, prefetcher, state) -> None:
        stats = prefetcher.table.stats
        for name in _MARKOV_STAT_FIELDS:
            setattr(stats, name, getattr(state, name))


#: widest region whose footprint fits ``mana.c``'s 64-bit bitmap.
_MANA_MAX_REGION = 64

_MANA_STAT_FIELDS = ("commits", "allocations", "evictions", "probe_hits", "replays", "credits")


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

    def bind(self, prefetcher, keep) -> ctypes.Structure:
        table = prefetcher.table
        assoc = table.assoc
        ways = (STRUCTS["CManaRecord"] * table.entries)()
        counts = (_LL * (table._set_mask + 1))()
        for si, records in enumerate(table._sets):
            for k, record in enumerate(records):
                ways[si * assoc + k] = STRUCTS["CManaRecord"](
                    record.trigger, record.footprint, record.successor, record.confidence
                )
            counts[si] = len(records)
        keep.extend((ways, counts))
        stats = table.stats
        return STRUCTS["CMana"](
            set_mask=table._set_mask,
            assoc=assoc,
            ways=_ptr(ways, STRUCTS["CManaRecord"]),
            counts=_ptr(counts, _LL),
            region_shift=prefetcher._region_shift,
            offset_mask=prefetcher._offset_mask,
            replay_depth=prefetcher.replay_depth,
            rec_region=prefetcher._rec_region,
            rec_trigger=prefetcher._rec_trigger,
            rec_footprint=prefetcher._rec_footprint,
            prev_trigger=prefetcher._prev_trigger,
            **{name: getattr(stats, name) for name in _MANA_STAT_FIELDS},
        )

    def sync_out(self, prefetcher, state) -> None:
        stats = prefetcher.table.stats
        for name in _MANA_STAT_FIELDS:
            setattr(stats, name, getattr(state, name))


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


# --------------------------------------------------------------------- #
# Cache and system images
# --------------------------------------------------------------------- #

_CACHE_STAT_FIELDS = ("lookups", "hits", "misses", "installs", "evictions")


class _CacheImage:
    """C image of one :class:`SetAssociativeCache` (LRU sets as arrays).

    ctypes zero-fills the arrays, which is an empty cache: one whose sets
    were never built is bound without a Python loop.  Only a cache that
    was read (or installed into) before binding is marshalled set by set.
    """

    def __init__(self, cache: SetAssociativeCache) -> None:
        n_sets = cache._set_mask + 1
        assoc = cache._assoc
        self.lines = (STRUCTS["CLine"] * (n_sets * assoc))()
        self.counts = (_LL * n_sets)()
        sets = cache._sets
        if not (isinstance(sets, LazySets) and sets.build is None):
            for si, cache_set in enumerate(sets):
                base = si * assoc
                for k, (line, state) in enumerate(cache_set.items()):
                    self.lines[base + k] = _line_to_c(line, state)
                self.counts[si] = len(cache_set)
        stats = cache.stats
        self.struct = STRUCTS["CCache"](
            set_mask=cache._set_mask,
            assoc=assoc,
            lines=_ptr(self.lines, STRUCTS["CLine"]),
            counts=_ptr(self.counts, _LL),
            lookups=stats.lookups,
            hits=stats.hits,
            misses=stats.misses,
            installs=stats.installs,
            evictions=stats.evictions,
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


def _sync_cache_stats(cache: SetAssociativeCache, cstruct: ctypes.Structure) -> None:
    stats = cache.stats
    for name in _CACHE_STAT_FIELDS:
        setattr(stats, name, getattr(cstruct, name))


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
        stats = link.stats
        self.c_link = STRUCTS["CLink"](
            next_free=link._next_free,
            occupancy=link.occupancy_cycles,
            requests=stats.requests,
            busy_cycles=stats.busy_cycles,
            queue_delay_cycles=stats.queue_delay_cycles,
        )

    def sync_out(self) -> None:
        _sync_cache_stats(self.l2, self.c_l2)
        self.link._next_free = self.c_link.next_free
        stats = self.link.stats
        stats.requests = self.c_link.requests
        stats.busy_cycles = self.c_link.busy_cycles
        stats.queue_delay_cycles = self.c_link.queue_delay_cycles


_SYSTEMS: "weakref.WeakValueDictionary[int, _JitSystem]" = weakref.WeakValueDictionary()


def _system_for(link, l2) -> _JitSystem:
    key = id(link)
    jitsys = _SYSTEMS.get(key)
    if jitsys is not None and jitsys.link is link and jitsys.l2 is l2:
        return jitsys
    jitsys = _JitSystem(link, l2)
    _SYSTEMS[key] = jitsys
    return jitsys


_QUEUE_STAT_FIELDS = (
    "offered",
    "accepted",
    "dropped_recent_demand",
    "dropped_dup_issued",
    "dropped_dup_invalid",
    "hoisted",
    "invalidated_by_demand",
    "overflow_drops",
    "popped",
)

_PF_STAT_FIELDS = (
    "generated",
    "probe_found_present",
    "issued",
    "issued_from_l2",
    "issued_from_memory",
    "useful",
    "useful_late",
    "useful_from_memory",
    "useless_evicted",
    "dropped_useless_hint",
    "promoted_to_l2",
)


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

    # ------------------------------------------------------------------ #
    # Eligibility + binding
    # ------------------------------------------------------------------ #

    def kernel_fallback_reason(self) -> Optional[str]:
        """Why the kernel cannot replicate this configuration exactly, or
        None when it can (binding may still fail; see :meth:`_twin_ready`).
        """
        prefetcher = self.prefetcher
        family = _PF_MODES.get(type(prefetcher))
        if family is None:
            return f"prefetcher {type(prefetcher).__name__} has no kernel twin"
        if not (self.l1i._is_lru and self.l1d._is_lru and self.l2._is_lru):
            return "non-LRU replacement"
        if self.l2_eviction_hook is not None:
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
        """Marshal the engine's entire live state into a ``CCore``."""
        lib = _kernel()
        assert lib is not None  # guarded by jit_available() in _twin_ready
        self._lib = lib
        trace = self.trace
        c = STRUCTS["CCore"]()
        keep = self._buffers

        def col(column, ctype):
            return ctypes.cast(column.buffer_info()[0], ctypes.POINTER(ctype))

        # Trace columns are borrowed; self.trace keeps the arrays alive.
        c.t_lines = col(trace.lines, _LL)
        c.t_kinds = col(trace.kinds, ctypes.c_byte)
        c.t_ninstr = col(trace.ninstr, ctypes.c_int)
        c.t_data = col(trace.data, _LL)
        c.t_offsets = col(trace.offsets, _LL)
        c.t_disc = col(trace.disc, ctypes.c_byte)
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

        # CoreStats (binding may happen mid-run; counters carry over).
        stats = self.stats
        c.instructions = stats.instructions
        c.st_cycles = stats.cycles
        c.exec_cycles = stats.exec_cycles
        c.fetch_stall_cycles = stats.fetch_stall_cycles
        c.data_stall_cycles = stats.data_stall_cycles
        c.l1i_fetches = stats.l1i_fetches
        c.l1i_misses = stats.l1i_misses
        c.l2i_demand_accesses = stats.l2i_demand_accesses
        c.l2i_demand_misses = stats.l2i_demand_misses
        c.data_accesses = stats.data_accesses
        c.l1d_misses = stats.l1d_misses
        c.l2d_accesses = stats.l2d_accesses
        c.l2d_misses = stats.l2d_misses
        l1i_bd = (_LL * _N_KINDS)(*stats.l1i_breakdown._counts)
        l2i_bd = (_LL * _N_KINDS)(*stats.l2i_breakdown._counts)
        keep.extend((l1i_bd, l2i_bd))
        c.l1i_breakdown = _ptr(l1i_bd, _LL)
        c.l2i_breakdown = _ptr(l2i_bd, _LL)
        self._c_l1i_bd = l1i_bd
        self._c_l2i_bd = l2i_bd
        pf_stats = stats.prefetch
        for name in _PF_STAT_FIELDS:
            setattr(c, name, getattr(pf_stats, name))

        # Private caches are inline; the shared L2 + link live in the
        # per-system image so sibling cores mutate one copy.
        l1i_image = _CacheImage(self.l1i)
        l1d_image = _CacheImage(self.l1d)
        keep.extend((l1i_image, l1d_image))
        c.l1i = l1i_image.struct
        c.l1d = l1d_image.struct
        jitsys = _system_for(self.link, self.l2)
        self._jit_system = jitsys
        self._cache_images = (
            (self.l1i, l1i_image),
            (self.l1d, l1d_image),
            (self.l2, jitsys.l2_image),
        )
        c.l2 = ctypes.pointer(jitsys.c_l2)
        c.link = ctypes.pointer(jitsys.c_link)

        # Queue (entries + recent-demand filter + stats).
        queue = self.queue
        qconfig = queue._config
        entries = (STRUCTS["CQEntry"] * qconfig.capacity)()
        for k, entry in enumerate(queue._entries):
            pk, pi, pl = _encode_prov(entry.provenance)
            entries[k] = STRUCTS["CQEntry"](
                line=entry.line, prov_kind=pk, prov_index=pi, prov_line=pl,
                state=int(entry.state),
            )
        recent = (_LL * (qconfig.recent_capacity + 1))()
        recent_keys = list(queue._recent._entries.keys())
        for k, line in enumerate(recent_keys):
            recent[k] = line
        keep.extend((entries, recent))
        qstats = queue.stats
        c.queue = STRUCTS["CQueue"](
            capacity=qconfig.capacity,
            recent_capacity=qconfig.recent_capacity,
            lifo=1 if qconfig.lifo else 0,
            filtering=1 if qconfig.filtering else 0,
            entries=_ptr(entries, STRUCTS["CQEntry"]),
            n_entries=len(queue._entries),
            recent=_ptr(recent, _LL),
            n_recent=len(recent_keys),
            waiting=queue.waiting,
            **{name: getattr(qstats, name) for name in _QUEUE_STAT_FIELDS},
        )

        # MSHR (insertion-ordered flat arrays).
        mshr = self._mshr
        mshr_lines = (_LL * mshr._capacity)()
        mshr_arrivals = (_DBL * mshr._capacity)()
        for k, (line, arrival) in enumerate(mshr._entries.items()):
            mshr_lines[k] = line
            mshr_arrivals[k] = arrival
        keep.extend((mshr_lines, mshr_arrivals))
        c.mshr = STRUCTS["CMshr"](
            lines=_ptr(mshr_lines, _LL),
            arrivals=_ptr(mshr_arrivals, _DBL),
            n=len(mshr._entries),
            cap=mshr._capacity,
        )

        self._c = c

    # ------------------------------------------------------------------ #
    # Sync-out: C -> Python after every kernel call
    # ------------------------------------------------------------------ #

    def _sync_out(self) -> None:
        """Copy scalars and every stats object back to the Python side.

        Cache contents follow once the run finishes (:meth:`_finish`);
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
        pf_stats = stats.prefetch
        for name in _PF_STAT_FIELDS:
            setattr(pf_stats, name, getattr(c, name))

        _sync_cache_stats(self.l1i, c.l1i)
        _sync_cache_stats(self.l1d, c.l1d)
        self._jit_system.sync_out()

        queue = self.queue
        queue.waiting = c.queue.waiting
        qstats = queue.stats
        for name in _QUEUE_STAT_FIELDS:
            setattr(qstats, name, getattr(c.queue, name))

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
        """Mark the run finished and hand each cache its C image, decoded
        on first read (see the module docstring)."""
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
        ready = all(
            isinstance(engine, JittedCoreEngine) and engine._twin_ready()
            for engine in engines
        )
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
