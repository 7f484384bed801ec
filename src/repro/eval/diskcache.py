"""Persistent on-disk cache of :class:`~repro.cmp.system.SystemResult`.

Results are stored as one JSON file per :class:`~repro.eval.runspec.RunSpec`
content hash under ``$REPRO_CACHE_DIR`` (default ``.repro-cache/`` in the
working directory), so a second invocation of any figure driver — in the
same process or days later — replays from disk instead of re-simulating.

Invalidation rules:

- the file name is the spec's :meth:`content_hash`, so *any* change to a
  run's parameters (workload, scale budgets, hierarchy, timing, seed, …)
  selects a different file;
- every payload carries ``schema`` = :data:`SCHEMA_VERSION`; bump the
  constant whenever the simulator's *behaviour* or the payload layout
  changes, and every stale entry is ignored (and rewritten on the next
  run);
- corrupt or truncated files are treated as misses, never as errors.

Set ``REPRO_DISK_CACHE=0`` to disable the cache entirely (reads and
writes).  JSON round-trips Python ints and floats exactly (``repr`` based),
so a cache hit reconstructs a result whose metrics are bit-identical to the
original simulation's.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Set

from repro.caches.config import CacheConfig, HierarchyConfig
from repro.caches.missclass import MissBreakdown
from repro.cmp.link import OffChipLink
from repro.cmp.system import SystemConfig, SystemResult
from repro.core.metrics import CoreStats, PrefetchStats
from repro.envvars import REPRO_CACHE_DIR, REPRO_DISK_CACHE
from repro.eval.runspec import RunSpec
from repro.isa.classify import MissClass
from repro.timing.params import TimingParams
from repro.util.validation import parse_env_flag

#: bump when the simulator's behaviour or this payload layout changes; all
#: existing cache entries become invisible (and are rewritten on demand).
SCHEMA_VERSION = 1

CACHE_DIR_ENV = REPRO_CACHE_DIR
DISABLE_ENV = REPRO_DISK_CACHE
DEFAULT_CACHE_DIR = ".repro-cache"

#: a ``*.tmp`` file older than this is an orphan from a crashed writer
#: (live tmp files exist only for the instant between mkstemp and rename).
TMP_MAX_AGE_SECONDS = 3600.0

#: entries are written via ``mkstemp`` (mode 0600); chmod to this so a
#: shared cache directory stays readable by other users.
ENTRY_MODE = 0o644

#: cache directories already swept for stale tmp files this process.
_tmp_swept_dirs: Set[str] = set()

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
    return parse_env_flag(DISABLE_ENV, os.environ.get(DISABLE_ENV), default=True)


def cache_dir() -> Path:
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


def path_for(spec: RunSpec) -> Path:
    return cache_dir() / f"{spec.content_hash()}.json"


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


def _plain_number(value):
    """Coerce a stray NumPy scalar to its plain Python equivalent.

    Engine backends may compute stats with NumPy; ``np.int64``/``np.float64``
    leaking into a payload would crash ``json.dump`` (or, with a permissive
    encoder, persist as a different textual form).  Plain ints and floats
    pass through untouched; anything exposing ``.item()`` (every NumPy
    scalar) is unwrapped at this boundary.  Kept NumPy-import-free so the
    cache works where NumPy is absent.
    """
    kind = type(value)
    if kind is int or kind is float:
        return value
    item = getattr(value, "item", None)
    if item is not None:
        return item()
    return value


def _core_to_dict(core: CoreStats) -> Dict:
    data = {name: _plain_number(getattr(core, name)) for name in _CORE_SCALARS}
    data["l1i_breakdown"] = core.l1i_breakdown.counts()
    data["l2i_breakdown"] = core.l2i_breakdown.counts()
    data["prefetch"] = {
        name: _plain_number(getattr(core.prefetch, name))
        for name in PrefetchStats.__dataclass_fields__
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
        "schema": SCHEMA_VERSION,
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
# Load / store
# ---------------------------------------------------------------------- #

def load(spec: RunSpec) -> Optional[SystemResult]:
    """Return the cached result for *spec*, or None.

    Disabled cache, missing file, schema mismatch and corrupt payloads all
    read as misses; the cache never raises on a bad entry.
    """
    if not enabled():
        return None
    path = path_for(spec)
    try:
        with open(path, "r") as handle:
            payload = json.load(handle)
        if payload.get("schema") != SCHEMA_VERSION:
            return None
        return payload_to_result(payload)
    except (OSError, ValueError, KeyError, TypeError):
        return None


def store(spec: RunSpec, result: SystemResult) -> bool:
    """Persist *result* under *spec*'s hash; returns False when disabled.

    Writes are atomic (tmp file + rename) so concurrent executors can share
    one cache directory without readers ever seeing a partial file.
    """
    if not enabled():
        return False
    payload = result_to_payload(result, spec)
    directory = cache_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        key = str(directory)
        if key not in _tmp_swept_dirs:
            # Opportunistic orphan cleanup, bounded to once per process
            # per directory so stores stay O(1) in the cache size.
            _tmp_swept_dirs.add(key)
            sweep_stale_tmp()
        fd, tmp_name = tempfile.mkstemp(dir=str(directory), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            # mkstemp creates 0600 files; open the entry up so a shared
            # cache directory is readable by other users.
            os.chmod(tmp_name, ENTRY_MODE)
            os.replace(tmp_name, path_for(spec))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError:
        # An unwritable cache directory degrades to "no cache", not a crash.
        return False
    return True


def sweep_stale_tmp(max_age_seconds: float = TMP_MAX_AGE_SECONDS) -> int:
    """Remove orphaned ``*.tmp`` files left behind by crashed writers.

    Only files older than *max_age_seconds* are touched (a concurrent
    writer's live tmp file must survive); pass 0 to sweep unconditionally.
    Returns the number of files removed.
    """
    from repro.util import clock

    directory = cache_dir()
    removed = 0
    if not directory.is_dir():
        return 0
    cutoff = clock.now() - max_age_seconds
    for path in directory.glob("*.tmp"):
        try:
            if max_age_seconds <= 0 or path.stat().st_mtime <= cutoff:
                path.unlink()
                removed += 1
        except OSError:
            pass
    return removed


def clear() -> int:
    """Delete all cache entries (results *and* leftover ``*.tmp`` orphans);
    returns the number of files removed."""
    directory = cache_dir()
    removed = 0
    if directory.is_dir():
        for pattern in ("*.json", "*.tmp"):
            for path in directory.glob(pattern):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
    return removed


def entry_count() -> int:
    """Number of result files currently in the cache directory."""
    directory = cache_dir()
    if not directory.is_dir():
        return 0
    return sum(1 for _ in directory.glob("*.json"))
