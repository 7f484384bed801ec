"""Binding a system into the jit kernel: what it allocates and what it frees.

The kernel binds construction state only.  A never-stepped cache binds as
zeroed C arrays without building its Python sets, and a never-written
family table binds as its initial C image without building its Python
list; that image holds the table's initial contents, entry for entry.
Every ctypes buffer a bound engine owns is freed by reference counting
when the system is dropped, not left for the cyclic collector.
"""

from __future__ import annotations

import ctypes
import gc

import pytest

from repro.caches.cache import LazySets
from repro.cmp.system import System, SystemConfig
from repro.core import jitted
from repro.eval.profiles import get_scale
from repro.eval.runner import get_compiled_traces
from repro.prefetch.registry import create_prefetcher
from repro.util.containers import pristine

SMOKE = get_scale("smoke")

pytestmark = pytest.mark.skipif(
    not jitted.jit_available(), reason="no C compiler: jit kernel unbuildable"
)

#: ctypes instances: a leaked kernel buffer is one of these.
_CTYPES_INSTANCES = (
    ctypes.Array,
    ctypes.Structure,
    ctypes._Pointer,
    ctypes._SimpleCData,
)


def _entry(value):
    """A table entry as its C column holds it (``None`` is -1)."""
    return -1 if value is None else value


#: each kernel family's registry name -> its tables built on first read,
#: given a prefetcher and its bound C state: (component, attribute, the C
#: column, each initial entry as that column holds it).  A set table's
#: column is its per-set way counts.  ``target`` and ``markov`` keep an
#: ``OrderedDict`` that is empty until written.
FAMILY_TABLES = {
    "none": lambda pf, c: [],
    "next-4-line": lambda pf, c: [],
    "discontinuity": lambda pf, c: [
        (pf.table, "_sources", c.sources, _entry),
        (pf.table, "_targets", c.targets, _entry),
        (pf.table, "_counters", c.counters, _entry),
    ],
    "fdp": lambda pf, c: [
        (pf.gshare, "_pht", c.pht, _entry),
        (pf.btb, "_targets", c.btb, _entry),
    ],
    "shadow": lambda pf, c: [
        (pf.gshare, "_pht", c.b.pht, _entry),
        (pf.btb, "_targets", c.b.btb, _entry),
        (pf.stb, "_sets", c.stb_counts, len),
    ],
    "target": lambda pf, c: [],
    "markov": lambda pf, c: [],
    "mana": lambda pf, c: [(pf.table, "_sets", c.counts, len)],
}


def _cmp_system(prefetcher: str = "discontinuity") -> System:
    """The paper's 4-core CMP (2 MB shared L2) on jit, at smoke scale."""
    total = SMOKE.warm_instructions + SMOKE.cmp_measure_instructions
    config = SystemConfig(
        n_cores=4,
        prefetcher=prefetcher,
        warm_instructions=SMOKE.warm_instructions,
        engine_backend="jit",
    )
    system = System(config, get_compiled_traces("db", 4, total))
    assert system.l2.config.capacity_bytes == 2 << 20
    return system


def test_never_stepped_system_binds_zeroed_images() -> None:
    """Binding builds no Python sets: each image is the zeroed arrays."""
    system = _cmp_system()
    assert all(engine._twin_ready() for engine in system.engines)
    for engine in system.engines:
        for cache, image in engine._cache_images:
            assert isinstance(cache._sets, LazySets)
            assert cache._sets.build is None
            assert not any(image.counts)


@pytest.mark.parametrize("name", sorted(FAMILY_TABLES))
def test_never_stepped_family_binds_without_building_its_tables(name) -> None:
    """Every core of a never-stepped system binds its family's tables
    as C images, and every table is still unbuilt afterwards."""
    system = _cmp_system(name)
    assert all(engine._twin_ready() for engine in system.engines)
    for engine in system.engines:
        assert engine.fallback_reason is None
        for owner, attr, _, _ in FAMILY_TABLES[name](engine.prefetcher, engine._pf_state):
            assert pristine(getattr(owner, attr)), attr


@pytest.mark.parametrize("name", sorted(FAMILY_TABLES))
def test_unbuilt_table_image_equals_the_marshalled_one(name) -> None:
    """Each C column a family binds equals, entry for entry, the initial
    contents its unbuilt Python table would build, marshalled as the
    column holds them (``None`` as -1, a set as its way count)."""
    prefetcher = create_prefetcher(name)
    family = jitted._PF_MODES[type(prefetcher)]
    assert family.stem is None or jitted.jit_available(family.stem)
    keep: list = []
    state = family.bind(prefetcher, keep)
    for owner, attr, column, as_c in FAMILY_TABLES[name](prefetcher, state):
        table = getattr(owner, attr)
        assert pristine(table), attr
        initial = [as_c(entry) for entry in table._initial()]
        assert column[: len(initial)] == initial, attr


def test_dropped_system_leaves_no_ctypes_garbage() -> None:
    """Simulate and drop a jit CMP with the cyclic collector off: nothing
    the collector then finds unreachable is a ctypes instance."""
    _cmp_system().run()  # load every kernel object and memoize the traces
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        system = _cmp_system()
        system.run()
        del system
        gc.collect()
        leaked = sorted(
            type(obj).__name__
            for obj in gc.garbage
            if isinstance(obj, _CTYPES_INSTANCES)
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert leaked == []
