"""Persistent on-disk cache of :class:`~repro.cmp.system.SystemResult`.

Results are stored as one JSON file per :class:`~repro.eval.runspec.RunSpec`
content hash under ``$REPRO_CACHE_DIR`` (default ``.repro-cache/`` in the
working directory), so a second invocation of any figure driver — in the
same process or days later — replays from disk instead of re-simulating.

Invalidation rules:

- the file name is the spec's :meth:`content_hash`, so *any* change to a
  run's parameters (workload, scale budgets, hierarchy, timing, seed, …)
  selects a different file;
- every payload carries ``schema`` = :func:`repro.version.code_hash`, a
  hash of every source file of the package; an entry written by other
  code (any edit to the simulator, this payload layout, anything else in
  the package) reads as a miss and is overwritten by the next run, so a
  behaviour change can never serve a stale result;
- corrupt or truncated files are treated as misses, never as errors.

An entry's bytes (:func:`encode`, :func:`decode`) are also the only form
in which a result crosses the executor's worker boundary: a pool worker
returns them, and the parent stores them unchanged and decodes them once.
So only JSON can cross, and a statistic JSON cannot represent fails the
one spec that produced it.

The file mechanics (atomic writes, world-readable entries, orphaned tmp
sweeps, degrade-to-no-cache) are :class:`repro.util.filestore.EntryDir`'s.

Set ``REPRO_DISK_CACHE=0`` to disable the cache entirely (reads and
writes).  JSON round-trips Python ints and floats exactly (``repr`` based),
so a cache hit reconstructs a result whose metrics are bit-identical to the
original simulation's.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Dict, Optional

from repro import version
from repro.caches.config import CacheConfig, HierarchyConfig
from repro.caches.missclass import MissBreakdown
from repro.cmp.link import OffChipLink
from repro.cmp.system import SystemConfig, SystemResult
from repro.core.metrics import CoreStats, PrefetchStats
from repro.envvars import REPRO_CACHE_DIR, REPRO_DISK_CACHE
from repro.eval.runspec import RunSpec
from repro.isa.classify import MissClass
from repro.timing.params import TimingParams
from repro.util.filestore import TMP_MAX_AGE_SECONDS, EntryDir
from repro.util.validation import parse_env_flag

DEFAULT_CACHE_DIR = ".repro-cache"

_CORE_SCALARS = (
    "instructions",
    "cycles",
    "exec_cycles",
    "fetch_stall_cycles",
    "data_stall_cycles",
    "l1i_fetches",
    "l1i_misses",
    "l2i_demand_accesses",
    "l2i_demand_misses",
    "data_accesses",
    "l1d_misses",
    "l2d_accesses",
    "l2d_misses",
)


def enabled() -> bool:
    """Is the disk cache active?  ``REPRO_DISK_CACHE=0`` opts out."""
    return parse_env_flag(
        REPRO_DISK_CACHE, os.environ.get(REPRO_DISK_CACHE), default=True
    )


def cache_dir() -> Path:
    return Path(os.environ.get(REPRO_CACHE_DIR) or DEFAULT_CACHE_DIR)


_ENTRIES = EntryDir(cache_dir, ".json")


def path_for(spec: RunSpec) -> Path:
    return _ENTRIES.path(spec.content_hash())


# ---------------------------------------------------------------------- #
# SystemResult <-> JSON payload
# ---------------------------------------------------------------------- #

def _config_to_dict(config: SystemConfig) -> Dict:
    return {
        "n_cores": config.n_cores,
        "hierarchy": dataclasses.asdict(config.hierarchy),
        "timing": dataclasses.asdict(config.timing),
        "offchip_gbps": config.offchip_gbps,
        "prefetcher": config.prefetcher,
        "prefetcher_overrides": dict(config.prefetcher_overrides),
        "l2_policy": config.l2_policy,
        "queue_capacity": config.queue_capacity,
        "queue_recent_capacity": config.queue_recent_capacity,
        "queue_lifo": config.queue_lifo,
        "queue_filtering": config.queue_filtering,
        "warm_instructions": config.warm_instructions,
        "free_miss_classes": sorted(cls.name for cls in config.free_miss_classes),
        "useless_hint_filter": config.useless_hint_filter,
        "l2_inclusive": config.l2_inclusive,
        "l1_replacement": config.l1_replacement,
        "l2_replacement": config.l2_replacement,
        # Factories are process-local; record only that one was used.
        "had_prefetcher_factory": config.prefetcher_factory is not None,
    }


def _config_from_dict(data: Dict) -> SystemConfig:
    hierarchy = HierarchyConfig(
        l1i=CacheConfig(**data["hierarchy"]["l1i"]),
        l1d=CacheConfig(**data["hierarchy"]["l1d"]),
        l2=CacheConfig(**data["hierarchy"]["l2"]),
    )
    return SystemConfig(
        n_cores=data["n_cores"],
        hierarchy=hierarchy,
        timing=TimingParams(**data["timing"]),
        offchip_gbps=data["offchip_gbps"],
        prefetcher=data["prefetcher"],
        prefetcher_overrides=dict(data["prefetcher_overrides"]),
        l2_policy=data["l2_policy"],
        queue_capacity=data["queue_capacity"],
        queue_recent_capacity=data["queue_recent_capacity"],
        queue_lifo=data["queue_lifo"],
        queue_filtering=data["queue_filtering"],
        warm_instructions=data["warm_instructions"],
        free_miss_classes=frozenset(MissClass[name] for name in data["free_miss_classes"]),
        useless_hint_filter=data["useless_hint_filter"],
        l2_inclusive=data["l2_inclusive"],
        l1_replacement=data["l1_replacement"],
        l2_replacement=data["l2_replacement"],
    )


def _core_to_dict(core: CoreStats) -> Dict:
    data = {name: getattr(core, name) for name in _CORE_SCALARS}
    data["l1i_breakdown"] = core.l1i_breakdown.counts()
    data["l2i_breakdown"] = core.l2i_breakdown.counts()
    data["prefetch"] = {
        name: getattr(core.prefetch, name) for name in PrefetchStats.__dataclass_fields__
    }
    return data


def _core_from_dict(data: Dict) -> CoreStats:
    core = CoreStats(**{name: data[name] for name in _CORE_SCALARS})
    core.l1i_breakdown = MissBreakdown.from_counts(data["l1i_breakdown"])
    core.l2i_breakdown = MissBreakdown.from_counts(data["l2i_breakdown"])
    core.prefetch = PrefetchStats(**data["prefetch"])
    return core


def _link_to_dict(link: OffChipLink) -> Dict:
    return {
        "occupancy_cycles": link.occupancy_cycles,
        "next_free": link.next_free,
        "requests": link.stats.requests,
        "busy_cycles": link.stats.busy_cycles,
        "queue_delay_cycles": link.stats.queue_delay_cycles,
    }


def _link_from_dict(data: Dict) -> OffChipLink:
    link = OffChipLink(bytes_per_cycle=1.0, line_size=1)
    link.occupancy_cycles = data["occupancy_cycles"]
    link._next_free = data["next_free"]
    link.stats.requests = data["requests"]
    link.stats.busy_cycles = data["busy_cycles"]
    link.stats.queue_delay_cycles = data["queue_delay_cycles"]
    return link


def result_to_payload(result: SystemResult, spec: Optional[RunSpec] = None) -> Dict:
    """Plain-data form of a result (JSON-safe, exact int/float round-trip)."""
    payload = {
        "schema": version.code_hash(),
        "config": _config_to_dict(result.config),
        "cores": [_core_to_dict(core) for core in result.cores],
        "link": _link_to_dict(result.link),
    }
    if spec is not None:
        payload["spec_hash"] = spec.content_hash()
        payload["spec"] = spec.describe()
    return payload


def payload_to_result(payload: Dict) -> SystemResult:
    """Rebuild a :class:`SystemResult` from :func:`result_to_payload` data."""
    return SystemResult(
        config=_config_from_dict(payload["config"]),
        cores=[_core_from_dict(core) for core in payload["cores"]],
        link=_link_from_dict(payload["link"]),
    )


# ---------------------------------------------------------------------- #
# Entry bytes, load / store
# ---------------------------------------------------------------------- #

def encode(spec: RunSpec, result: SystemResult) -> bytes:
    """The cache entry for *result*: its payload as JSON bytes.

    This is the only serialized form of a result: pool workers return it,
    and the parent stores it as it came.  A statistic JSON cannot
    represent (a set, an object) raises ``TypeError`` here, in whichever
    worker or serial run produced it.
    """
    return json.dumps(result_to_payload(result, spec)).encode("utf-8")


def decode(blob: bytes) -> Optional[SystemResult]:
    """The result an :func:`encode` entry holds, or None.

    An entry from other code (its ``schema`` is not this package's code
    hash) and a corrupt or truncated one read as None, never as an error.
    """
    try:
        payload = json.loads(blob)
        if payload.get("schema") != version.code_hash():
            return None
        return payload_to_result(payload)
    except (ValueError, KeyError, TypeError, AttributeError):
        return None


def load(spec: RunSpec) -> Optional[SystemResult]:
    """Return the cached result for *spec*, or None (disabled cache,
    missing file or any entry :func:`decode` rejects)."""
    if not enabled():
        return None
    blob = _ENTRIES.read(spec.content_hash())
    return None if blob is None else decode(blob)


def store(spec: RunSpec, entry: bytes) -> bool:
    """Persist *entry* (:func:`encode` bytes) under *spec*'s hash; False
    when the cache is disabled or unwritable.

    Writes are atomic, so concurrent executors can share one cache
    directory without readers ever seeing a partial file.
    """
    if not enabled():
        return False
    return _ENTRIES.write(spec.content_hash(), entry)


def sweep_stale_tmp(max_age_seconds: float = TMP_MAX_AGE_SECONDS) -> int:
    """Remove ``*.tmp`` orphans left by crashed writers (0: sweep all)."""
    return _ENTRIES.sweep_stale_tmp(max_age_seconds)


def clear() -> int:
    """Delete all cache entries (results *and* leftover ``*.tmp`` orphans);
    returns the number of files removed."""
    return _ENTRIES.clear()


def entry_count() -> int:
    """Number of result files currently in the cache directory."""
    return _ENTRIES.entry_count()
