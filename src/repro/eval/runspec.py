"""Declarative description of one simulation run.

A :class:`RunSpec` is the unit of work of the sweep-execution subsystem
(:mod:`repro.eval.executor`): a frozen, hashable, picklable record of every
parameter that influences a simulation's result.  Because it is hashable it
keys the in-process memo; because it is picklable it can be shipped to
worker processes; and because :meth:`RunSpec.content_hash` is stable across
processes and sessions it keys the persistent on-disk result cache
(:mod:`repro.eval.diskcache`).

:func:`repro.eval.runner.run_system` and
:func:`~repro.eval.runner.run_system_cached` take a RunSpec, so a run the
drivers can ask for is always one the executor and the caches can carry.
An arbitrary prefetcher factory callable is neither picklable nor
hashable; the single factory-based configuration the experiments use — the
§2.3 cooperative software prefetcher — is encoded declaratively via the
``software_prefetch`` flag and built by ``run_system`` inside the
executing process.

The cache key is derived, not listed: :meth:`RunSpec.canonical_dict` encodes
every dataclass field except those in :data:`NON_KEYED`, so a new field
keys the persistent cache without any further edit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.caches.config import DEFAULT_HIERARCHY, HierarchyConfig
from repro.core.backends import validate_backend
from repro.eval.profiles import ExperimentScale, get_scale
from repro.isa.classify import MissClass
from repro.prefetch.registry import PREFETCHER_NAMES, check_overrides
from repro.timing.params import DEFAULT_TIMING, TimingParams
from repro.trace.source import validate_workload

#: RunSpec fields that never change a result, left out of the cache key so
#: identical results share one entry.  ``engine_backend`` is an execution
#: strategy: backends are bit-identical (pinned by the backend parity suite
#: and the golden spec-parity hashes).
NON_KEYED = frozenset({"engine_backend"})

#: default experiment seed (any fixed value works; results are deterministic
#: in it).
DEFAULT_SEED = 1337


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one ``run_system`` result.

    Prefer :meth:`RunSpec.create`, which accepts ergonomic argument forms
    (a scale name or None, an overrides dict) and normalizes them into the
    canonical hashable representation.
    """

    workload: str
    n_cores: int
    scale: ExperimentScale
    prefetcher: str = "none"
    hierarchy: HierarchyConfig = DEFAULT_HIERARCHY
    timing: TimingParams = DEFAULT_TIMING
    l2_policy: str = "normal"
    #: sorted ``(key, value)`` pairs — the hashable form of the dict.
    prefetcher_overrides: Tuple[Tuple[str, Any], ...] = ()
    free_miss_classes: FrozenSet[MissClass] = frozenset()
    queue_filtering: bool = True
    queue_lifo: bool = True
    useless_hint_filter: bool = False
    l2_inclusive: bool = False
    l1_replacement: str = "lru"
    l2_replacement: str = "lru"
    offchip_gbps: Optional[float] = None
    #: run the §2.3 cooperative software prefetcher (built per-core inside
    #: the executing process; replaces the ``prefetcher`` registry name).
    software_prefetch: bool = False
    seed: int = DEFAULT_SEED
    #: engine backend ("reference"/"jit"/"auto", see
    #: :mod:`repro.core.backends`); in :data:`NON_KEYED`.
    engine_backend: str = "auto"

    @classmethod
    def create(
        cls,
        workload: str,
        n_cores: int,
        prefetcher: str = "none",
        scale: Union[ExperimentScale, str, None] = None,
        hierarchy: HierarchyConfig = DEFAULT_HIERARCHY,
        timing: TimingParams = DEFAULT_TIMING,
        l2_policy: str = "normal",
        prefetcher_overrides: Optional[Dict[str, Any]] = None,
        free_miss_classes: FrozenSet[MissClass] = frozenset(),
        queue_filtering: bool = True,
        queue_lifo: bool = True,
        useless_hint_filter: bool = False,
        l2_inclusive: bool = False,
        l1_replacement: str = "lru",
        l2_replacement: str = "lru",
        offchip_gbps: Optional[float] = None,
        software_prefetch: bool = False,
        seed: int = DEFAULT_SEED,
        engine_backend: str = "auto",
    ) -> "RunSpec":
        """Build a spec, resolving the scale and normalizing the overrides.

        Rejects unregistered prefetcher names, override keys the scheme
        does not read, unresolvable workload names and unknown engine
        backends up front (the workload check routes
        through the trace-source registry, so synthetic profiles, ``mix``
        and ingested ``external:<name>`` streams are all accepted), so
        catalog typos fail at declaration time rather than deep inside a
        worker process.
        """
        if not software_prefetch and prefetcher not in PREFETCHER_NAMES:
            raise ValueError(
                f"unknown prefetcher {prefetcher!r}; available: {PREFETCHER_NAMES}"
            )
        overrides = tuple(sorted((prefetcher_overrides or {}).items()))
        if software_prefetch:
            if overrides:
                raise ValueError("the software prefetcher reads no prefetcher override")
        else:
            check_overrides(prefetcher, dict(overrides))
        validate_workload(workload)
        validate_backend(engine_backend)
        if scale is None or isinstance(scale, str):
            scale = get_scale(scale or "")
        return cls(
            workload=workload,
            n_cores=n_cores,
            scale=scale,
            prefetcher=prefetcher,
            hierarchy=hierarchy,
            timing=timing,
            l2_policy=l2_policy,
            prefetcher_overrides=overrides,
            free_miss_classes=frozenset(free_miss_classes),
            queue_filtering=queue_filtering,
            queue_lifo=queue_lifo,
            useless_hint_filter=useless_hint_filter,
            l2_inclusive=l2_inclusive,
            l1_replacement=l1_replacement,
            l2_replacement=l2_replacement,
            offchip_gbps=offchip_gbps,
            software_prefetch=software_prefetch,
            seed=seed,
            engine_backend=engine_backend,
        )

    # ------------------------------------------------------------------ #
    # Execution plumbing
    # ------------------------------------------------------------------ #

    @property
    def overrides(self) -> Dict[str, Any]:
        return dict(self.prefetcher_overrides)

    def trace_key(self) -> Tuple[str, int, str, int]:
        """Grouping key for specs that replay the same generated traces."""
        return (self.workload, self.n_cores, self.scale.name, self.seed)

    # ------------------------------------------------------------------ #
    # Content hashing (disk-cache key)
    # ------------------------------------------------------------------ #

    def canonical_dict(self) -> Dict[str, Any]:
        """JSON-serializable canonical form (stable across processes): every
        field but :data:`NON_KEYED`, dataclasses as dicts, miss classes as
        sorted names."""
        return {
            field.name: _canonical(getattr(self, field.name))
            for field in dataclasses.fields(self)
            if field.name not in NON_KEYED
        }

    def content_hash(self) -> str:
        """SHA-256 of the canonical form — the persistent cache key.

        Memoized per instance (the fields are frozen); the result cache
        asks for it on every load and write of a spec.
        """
        memo = self.__dict__.get("_content_hash")
        if memo is None:
            blob = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
            memo = hashlib.sha256(blob.encode("utf-8")).hexdigest()
            self.__dict__["_content_hash"] = memo  # frozen: bypass __setattr__
        return memo

    def describe(self) -> str:
        """Short human-readable label (progress logging)."""
        parts = [self.workload, f"{self.n_cores}c"]
        parts.append("swpf" if self.software_prefetch else self.prefetcher)
        if self.l2_policy != "normal":
            parts.append(self.l2_policy)
        if self.prefetcher_overrides:
            parts.append(",".join(f"{k}={v}" for k, v in self.prefetcher_overrides))
        return "/".join(parts)


def _canonical(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    if isinstance(value, frozenset):
        return sorted(member.name for member in value)
    return value


def dedupe_specs(specs: Iterable[RunSpec]) -> List[RunSpec]:
    """Order-preserving deduplication of a spec iterable."""
    seen = set()
    unique: List[RunSpec] = []
    for spec in specs:
        if spec not in seen:
            seen.add(spec)
            unique.append(spec)
    return unique
