"""Binding a system into the jit kernel: what it allocates and what it frees.

A never-stepped cache binds as zeroed C arrays without building its Python
sets, and every ctypes buffer a bound engine owns is freed by reference
counting when the system is dropped, not left for the cyclic collector.
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


def _cmp_system() -> System:
    """The paper's 4-core CMP (2 MB shared L2) on jit, at smoke scale."""
    total = SMOKE.warm_instructions + SMOKE.cmp_measure_instructions
    config = SystemConfig(
        n_cores=4,
        prefetcher="discontinuity",
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
