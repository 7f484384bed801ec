"""The system model: cores + shared L2 + shared off-chip link.

A :class:`System` is built from a :class:`SystemConfig` and one trace per
core.  For the paper's configurations:

- **single core** — one core, private 2MB L2, 10 GB/s off-chip link;
- **4-way CMP** — four cores with private L1s sharing one 2MB L2 and a
  20 GB/s link.

Cores are interleaved in global cycle order (the core with the smallest
local clock steps next), so shared-L2 and link contention are resolved in
approximately the order real accesses would occur.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence

from repro.caches.cache import SetAssociativeCache
from repro.caches.config import DEFAULT_HIERARCHY, HierarchyConfig
from repro.caches.missclass import MissBreakdown
from repro.cmp.link import OffChipLink
from repro.core.backends import create_engine, validate_backend
from repro.core.engine import CoreEngine, EngineConfig
from repro.core.l2policy import get_policy
from repro.core.metrics import CoreStats
from repro.isa.classify import MissClass
from repro.prefetch.queue import PrefetchQueue
from repro.prefetch.registry import PREFETCHER_NAMES, check_overrides, create_prefetcher
from repro.timing.params import DEFAULT_TIMING, TimingParams
from repro.trace.compiled import TraceLike

#: paper §5 off-chip bandwidths (GB/s) by core count.
DEFAULT_BANDWIDTH_GBPS = {1: 10.0, 4: 20.0}


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build a system except the traces."""

    n_cores: int = 1
    hierarchy: HierarchyConfig = DEFAULT_HIERARCHY
    timing: TimingParams = DEFAULT_TIMING
    #: off-chip bandwidth in GB/s; None selects the paper default for the
    #: core count (10 single-core, 20 CMP, linear interpolation otherwise).
    offchip_gbps: Optional[float] = None
    prefetcher: str = "none"
    prefetcher_overrides: Dict = field(default_factory=dict)
    l2_policy: str = "normal"
    queue_capacity: int = 32
    queue_recent_capacity: int = 32
    queue_lifo: bool = True
    queue_filtering: bool = True
    warm_instructions: int = 0
    #: Figure 4 limit study: miss classes whose stalls are waived.
    free_miss_classes: FrozenSet[MissClass] = frozenset()
    #: §2.4 used-bit re-prefetch filter (drop re-prefetches of L2 lines
    #: that previously proved useless in the L1I).
    useless_hint_filter: bool = False
    #: optional per-core prefetcher factory (core_id -> Prefetcher);
    #: overrides the ``prefetcher`` registry name when set.  Used for
    #: prefetchers that need workload knowledge, e.g. the software
    #: prefetcher's compiler plan.
    prefetcher_factory: Optional[Callable[[int], object]] = None
    #: enforce L2 inclusion: evicting a line from the L2 back-invalidates
    #: it in every core's L1I and L1D (simplifies coherence in real CMPs
    #: at the cost of extra L1 misses under L2 pressure).
    l2_inclusive: bool = False
    #: cache replacement policies ("lru", "fifo", "plru", "random").
    l1_replacement: str = "lru"
    l2_replacement: str = "lru"
    #: engine backend ("reference", "jit", or "auto" to defer to the
    #: REPRO_ENGINE_BACKEND environment variable).  Never affects
    #: results — backends are bit-identical — so it is not part of any
    #: cache key.
    engine_backend: str = "auto"

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ValueError(f"n_cores must be >= 1, got {self.n_cores}")
        if self.prefetcher_factory is None:
            if self.prefetcher not in PREFETCHER_NAMES:
                raise ValueError(
                    f"unknown prefetcher {self.prefetcher!r}; "
                    f"available: {PREFETCHER_NAMES}"
                )
            check_overrides(self.prefetcher, self.prefetcher_overrides)
        validate_backend(self.engine_backend)

    def resolve_bandwidth(self) -> float:
        if self.offchip_gbps is not None:
            return self.offchip_gbps
        if self.n_cores in DEFAULT_BANDWIDTH_GBPS:
            return DEFAULT_BANDWIDTH_GBPS[self.n_cores]
        # Scale between the paper's two published points.
        return 10.0 + (self.n_cores - 1) * 10.0 / 3.0


class SystemResult:
    """Aggregated results of one system run."""

    def __init__(self, config: SystemConfig, cores: List[CoreStats], link: OffChipLink) -> None:
        self.config = config
        self.cores = cores
        self.link = link

    # ------------------------------------------------------------------ #
    # Aggregates (summed over cores, rates per total retired instruction)
    # ------------------------------------------------------------------ #

    @property
    def total_instructions(self) -> int:
        return sum(core.instructions for core in self.cores)

    @property
    def aggregate_ipc(self) -> float:
        """Sum of per-core IPCs (chip throughput)."""
        return sum(core.ipc for core in self.cores)

    def _rate(self, numerator: int) -> float:
        instructions = self.total_instructions
        if instructions == 0:
            return 0.0
        return numerator / instructions

    @property
    def l1i_miss_rate(self) -> float:
        return self._rate(sum(core.l1i_misses for core in self.cores))

    @property
    def l2i_miss_rate(self) -> float:
        return self._rate(sum(core.l2i_demand_misses for core in self.cores))

    @property
    def l2d_miss_rate(self) -> float:
        return self._rate(sum(core.l2d_misses for core in self.cores))

    @property
    def l1i_breakdown(self) -> MissBreakdown:
        first, rest = self.cores[0], self.cores[1:]
        return first.l1i_breakdown.merged_with(core.l1i_breakdown for core in rest)

    @property
    def l2i_breakdown(self) -> MissBreakdown:
        first, rest = self.cores[0], self.cores[1:]
        return first.l2i_breakdown.merged_with(core.l2i_breakdown for core in rest)

    @property
    def prefetch_issued(self) -> int:
        return sum(core.prefetch.issued for core in self.cores)

    @property
    def prefetch_useful(self) -> int:
        return sum(core.prefetch.useful for core in self.cores)

    @property
    def prefetch_accuracy(self) -> float:
        issued = self.prefetch_issued
        if issued == 0:
            return 0.0
        return self.prefetch_useful / issued

    @property
    def l1i_coverage(self) -> float:
        useful = self.prefetch_useful
        would_be = useful + sum(core.l1i_misses for core in self.cores)
        if would_be == 0:
            return 0.0
        return useful / would_be

    @property
    def l2i_coverage(self) -> float:
        useful = sum(core.prefetch.useful_from_memory for core in self.cores)
        would_be = useful + sum(core.l2i_demand_misses for core in self.cores)
        if would_be == 0:
            return 0.0
        return useful / would_be

    def summary(self) -> str:
        lines = [
            f"cores               : {len(self.cores)}",
            f"prefetcher          : {self.config.prefetcher}",
            f"L2 install policy   : {self.config.l2_policy}",
            f"instructions        : {self.total_instructions}",
            f"aggregate IPC       : {self.aggregate_ipc:.3f}",
            f"L1I miss rate       : {100 * self.l1i_miss_rate:.3f}% per instr",
            f"L2I miss rate       : {100 * self.l2i_miss_rate:.3f}% per instr",
            f"L2D miss rate       : {100 * self.l2d_miss_rate:.3f}% per instr",
        ]
        if self.prefetch_issued:
            lines += [
                f"prefetch issued     : {self.prefetch_issued}",
                f"prefetch accuracy   : {100 * self.prefetch_accuracy:.1f}%",
                f"L1I coverage        : {100 * self.l1i_coverage:.1f}%",
                f"L2I coverage        : {100 * self.l2i_coverage:.1f}%",
            ]
        return "\n".join(lines)


class System:
    """Cores + shared unified L2 + shared off-chip link."""

    def __init__(self, config: SystemConfig, traces: Sequence[TraceLike]) -> None:
        if len(traces) != config.n_cores:
            raise ValueError(
                f"expected {config.n_cores} traces (one per core), got {len(traces)}"
            )
        self.config = config
        hierarchy = config.hierarchy
        line_size = hierarchy.line_size
        bandwidth = config.timing.bytes_per_cycle(config.resolve_bandwidth())
        self.link = OffChipLink(bandwidth, line_size)
        self.l2 = SetAssociativeCache("L2", hierarchy.l2, policy=config.l2_replacement)
        policy = get_policy(config.l2_policy)

        self.engines: List[CoreEngine] = []
        for core_id, trace in enumerate(traces):
            l1i = SetAssociativeCache(
                f"L1I.{core_id}", hierarchy.l1i, policy=config.l1_replacement
            )
            l1d = SetAssociativeCache(
                f"L1D.{core_id}", hierarchy.l1d, policy=config.l1_replacement
            )
            if config.prefetcher_factory is not None:
                prefetcher = config.prefetcher_factory(core_id)
            else:
                prefetcher = create_prefetcher(
                    config.prefetcher, **config.prefetcher_overrides
                )
            queue = PrefetchQueue(
                capacity=config.queue_capacity,
                recent_capacity=config.queue_recent_capacity,
                lifo=config.queue_lifo,
                filtering=config.queue_filtering,
            )
            engine_config = EngineConfig(
                core_id=core_id,
                warm_instructions=config.warm_instructions,
                free_miss_classes=config.free_miss_classes,
                l2_policy=policy,
                useless_hint_filter=config.useless_hint_filter,
            )
            self.engines.append(
                create_engine(
                    config.engine_backend,
                    engine_config,
                    trace,
                    line_size,
                    l1i,
                    l1d,
                    self.l2,
                    self.link,
                    prefetcher,
                    queue,
                    config.timing,
                )
            )

        if config.l2_inclusive:
            engines = self.engines

            def back_invalidate(line: int) -> None:
                for engine in engines:
                    engine.l1i.invalidate(line)
                    engine.l1d.invalidate(line)

            for engine in engines:
                engine.l2_eviction_hook = back_invalidate

    def run(self) -> SystemResult:
        """Run all cores to trace completion; return aggregated results."""
        engines = self.engines
        if len(engines) == 1:
            engines[0].run()
        else:
            # A backend may run the whole interleave loop itself (the jit
            # backend compiles it); it returns False to decline, in which
            # case the exact Python loop below runs instead.
            runner = getattr(engines[0], "run_multicore", None)
            if runner is None or not runner(engines):
                active = list(engines)
                while active:
                    # Advance the core with the smallest local clock so
                    # shared structures see accesses in (approximate)
                    # global order.
                    earliest = active[0]
                    for engine in active[1:]:
                        if engine.cycle < earliest.cycle:
                            earliest = engine
                    if not earliest.step():
                        active.remove(earliest)
        return SystemResult(self.config, [engine.stats for engine in engines], self.link)
