"""Binding a system into the jit kernel: what it allocates and what it frees.

A never-stepped cache binds as zeroed C arrays without building its Python
sets, and a never-written family table binds as its initial C image
without building its Python list.  Every ctypes buffer a bound engine owns
is freed by reference counting when the system is dropped, not left for
the cyclic collector.
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


#: each kernel family's registry name -> its table columns built on first
#: read, as (component, attribute) of a prefetcher.  ``target`` and
#: ``markov`` keep an ``OrderedDict`` that is empty until written.
FAMILY_TABLES = {
    "none": lambda pf: [],
    "next-4-line": lambda pf: [],
    "discontinuity": lambda pf: [
        (pf.table, "_sources"),
        (pf.table, "_targets"),
        (pf.table, "_counters"),
    ],
    "fdp": lambda pf: [(pf.gshare, "_pht"), (pf.btb, "_targets")],
    "shadow": lambda pf: [(pf.gshare, "_pht"), (pf.btb, "_targets"), (pf.stb, "_sets")],
    "target": lambda pf: [],
    "markov": lambda pf: [],
    "mana": lambda pf: [(pf.table, "_sets")],
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
        for owner, attr in FAMILY_TABLES[name](engine.prefetcher):
            assert pristine(getattr(owner, attr)), attr


@pytest.mark.parametrize("name", sorted(FAMILY_TABLES))
def test_unbuilt_table_image_equals_the_marshalled_one(name) -> None:
    """The C image an unbuilt table binds as is byte for byte the one its
    built initial contents marshal to."""
    prefetcher = create_prefetcher(name)
    family = jitted._PF_MODES[type(prefetcher)]
    assert family.stem is None or jitted.jit_available(family.stem)
    unbuilt: list = []
    family.bind(prefetcher, unbuilt)
    tables = FAMILY_TABLES[name](prefetcher)
    for owner, attr in tables:
        assert pristine(getattr(owner, attr)), attr
        list(getattr(owner, attr))  # the first read builds it in place
        assert type(getattr(owner, attr)) is list, attr
    built: list = []
    family.bind(prefetcher, built)
    assert [bytes(buffer) for buffer in unbuilt] == [bytes(buffer) for buffer in built]


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
