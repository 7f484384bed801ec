"""Off-chip bandwidth model.

A single shared link between the chip and memory, modelled as a serial
resource: each 64B line transfer occupies the link for
``line_size / bytes_per_cycle`` cycles, and requests queue FIFO behind the
link's next-free time.  This is what makes wasted prefetches *cost*
something even under the bypass policy — they consume bandwidth and delay
demand misses and useful prefetches behind them (§6: "inaccurate
prefetches ... still consume off-chip bandwidth, potentially delaying other
useful prefetches").

Paper bandwidths: 10 GB/s for the single-core system, 20 GB/s for the
4-way CMP, at 3 GHz.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LinkStats:
    requests: int = 0
    busy_cycles: float = 0.0
    queue_delay_cycles: float = 0.0

    def reset(self) -> None:
        for name, field in self.__dataclass_fields__.items():
            setattr(self, name, field.default)


class OffChipLink:
    """Serial off-chip link with FIFO queueing."""

    __slots__ = ("occupancy_cycles", "stats", "_next_free")

    def __init__(self, bytes_per_cycle: float, line_size: int) -> None:
        if bytes_per_cycle <= 0:
            raise ValueError(f"bytes_per_cycle must be positive, got {bytes_per_cycle}")
        if line_size <= 0:
            raise ValueError(f"line_size must be positive, got {line_size}")
        self.occupancy_cycles = line_size / bytes_per_cycle
        self.stats = LinkStats()
        self._next_free = 0.0

    def request(self, now: float) -> float:
        """Enqueue a line transfer at cycle *now*; return its start cycle.

        The transfer completes at ``start + occupancy_cycles``; memory
        latency is charged by the caller on top of the start cycle.
        """
        start = self._next_free if self._next_free > now else now
        self._next_free = start + self.occupancy_cycles
        stats = self.stats
        stats.requests += 1
        stats.busy_cycles += self.occupancy_cycles
        stats.queue_delay_cycles += start - now
        return start

    def utilization(self, elapsed_cycles: float) -> float:
        """Fraction of *elapsed_cycles* the link spent busy."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.stats.busy_cycles / elapsed_cycles)

    @property
    def next_free(self) -> float:
        return self._next_free
