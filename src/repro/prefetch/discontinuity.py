"""The discontinuity prefetcher — the paper's primary contribution (§4).

Components:

- :class:`DiscontinuityTable`: a direct-mapped table of (source line →
  target line) pairs with a 2-bit saturating *eviction counter* per entry.
  Management follows the paper exactly:

  1. **Allocation** — when a discontinuity transition causes an
     instruction-cache miss and the (source → target) pair is not in the
     table, it becomes an insertion candidate.  On insertion the counter is
     set to its upper saturated value.
  2. **Prediction** — the table is probed by the sequential prefetcher
     moving ahead of the demand stream: for a trigger at line L and
     prefetch-ahead distance N, probes are issued for L, L+1, …, L+N.  A
     hit issues a prefetch for the target *and the remainder of the
     prefetch-ahead distance past the target* (waiting for the prediction
     to be verified would be too late to cover an L2 miss).
  3. **Replacement** — an unrepresented discontinuity decrements the
     resident entry's counter; the entry is evicted only once the counter
     has reached zero, protecting useful entries from stray events.
     Counters are incremented when a prefetch issued from the entry proves
     useful.

- :class:`DiscontinuityPrefetcher`: the table paired with a next-N-line
  sequential prefetcher (paper default N=4; the ``2NL`` variant of Figure 9
  uses N=2), which covers sequential misses *and* short forward branches,
  so the table only needs to hold large discontinuities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.prefetch.base import PrefetchCandidate, Prefetcher
from repro.util.containers import LazyTable
from repro.util.validation import check_power_of_two

_SEQ_PROVENANCE = ("seq",)

#: upper saturated value of the 2-bit eviction counter.
COUNTER_MAX = 3


@dataclass
class DiscontinuityTableStats:
    """Table-management event counters."""

    allocations: int = 0
    replacements: int = 0
    replacement_denied: int = 0
    target_updates: int = 0
    probe_hits: int = 0
    credits: int = 0

    def reset(self) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)


class DiscontinuityTable:
    """Direct-mapped (source line → target line) discontinuity store.

    ``counter_max`` sets the eviction counter's saturation value (3 for the
    paper's 2-bit counter; 0 disables the thrash protection entirely —
    every unrepresented discontinuity immediately replaces the resident
    entry — which the eviction-counter ablation uses).
    """

    __slots__ = (
        "entries",
        "counter_max",
        "stats",
        "_mask",
        "_sources",
        "_targets",
        "_counters",
        "__weakref__",
    )

    def __init__(self, entries: int = 8192, counter_max: int = COUNTER_MAX) -> None:
        check_power_of_two("table entries", entries)
        if counter_max < 0:
            raise ValueError(f"counter_max must be >= 0, got {counter_max}")
        self.entries = entries
        self.counter_max = counter_max
        self.stats = DiscontinuityTableStats()
        self._mask = entries - 1
        self._unbuilt()

    def _unbuilt(self) -> None:
        """Empty the table: each column becomes a stand-in built on first
        read (:class:`~repro.util.containers.LazyTable`)."""
        entries = self.entries
        self._sources: List[Optional[int]] = LazyTable(  # type: ignore[assignment]
            self, "_sources", lambda: [None] * entries
        )
        self._targets: List[int] = LazyTable(  # type: ignore[assignment]
            self, "_targets", lambda: [0] * entries
        )
        self._counters: List[int] = LazyTable(  # type: ignore[assignment]
            self, "_counters", lambda: [0] * entries
        )

    def index_of(self, source_line: int) -> int:
        """Direct-mapped index for a source line."""
        return source_line & self._mask

    def observe(self, source_line: int, target_line: int) -> None:
        """Record a discontinuity that caused an instruction-cache miss.

        Implements the allocation + replacement rules described in the
        module docstring.
        """
        index = source_line & self._mask
        resident = self._sources[index]
        if resident == source_line:
            if self._targets[index] == target_line:
                return  # already learned
            # Same source, different target: the paper keeps one target per
            # entry; treat the new target as an unrepresented discontinuity
            # competing for the entry.
            if self._counters[index] == 0:
                self._targets[index] = target_line
                self._counters[index] = self.counter_max
                self.stats.target_updates += 1
            else:
                self._counters[index] -= 1
            return
        if resident is None:
            self._sources[index] = source_line
            self._targets[index] = target_line
            self._counters[index] = self.counter_max
            self.stats.allocations += 1
            return
        if self._counters[index] == 0:
            self._sources[index] = source_line
            self._targets[index] = target_line
            self._counters[index] = self.counter_max
            self.stats.replacements += 1
        else:
            self._counters[index] -= 1
            self.stats.replacement_denied += 1

    def predict(self, source_line: int) -> Optional[int]:
        """Return the learned target for *source_line*, if any."""
        index = source_line & self._mask
        if self._sources[index] == source_line:
            self.stats.probe_hits += 1
            return self._targets[index]
        return None

    def credit(self, index: int, source_line: int) -> None:
        """Reinforce the entry that issued a useful prefetch."""
        if self._sources[index] == source_line:
            counter = self._counters[index]
            if counter < self.counter_max:
                self._counters[index] = counter + 1
            self.stats.credits += 1

    def entry(self, index: int) -> Tuple[Optional[int], int, int]:
        """Return (source, target, counter) at *index* (test/debug helper)."""
        return self._sources[index], self._targets[index], self._counters[index]

    def occupancy(self) -> int:
        """Number of valid entries."""
        return sum(1 for source in self._sources if source is not None)

    def reset(self) -> None:
        self._unbuilt()
        self.stats.reset()


class DiscontinuityPrefetcher(Prefetcher):
    """Discontinuity table + next-N-line sequential prefetcher (§4)."""

    def __init__(
        self,
        table_entries: int = 8192,
        prefetch_ahead: int = 4,
        counter_max: int = COUNTER_MAX,
        probe_ahead: bool = True,
    ) -> None:
        """``probe_ahead=False`` restricts table probes to the current line
        only — the classic target-prefetcher timing of [1] that the paper
        argues arrives too late to cover L2 misses.  Used by the
        probe-ahead ablation; the paper's prefetcher always probes ahead."""
        if prefetch_ahead < 1:
            raise ValueError(f"prefetch_ahead must be >= 1, got {prefetch_ahead}")
        self.table = DiscontinuityTable(table_entries, counter_max=counter_max)
        self.prefetch_ahead = prefetch_ahead
        self.probe_ahead = probe_ahead
        self.name = f"discontinuity-{prefetch_ahead}nl"
        if prefetch_ahead == 4:
            self.name = "discontinuity"
        if not probe_ahead:
            self.name += "-noprobeahead"

    def on_demand_fetch(self, line, was_miss, first_use_of_prefetch, kind):
        if not (was_miss or first_use_of_prefetch):
            return []
        ahead = self.prefetch_ahead
        table = self.table
        candidates = [
            PrefetchCandidate(line + depth, _SEQ_PROVENANCE) for depth in range(1, ahead + 1)
        ]
        # Probe the table with the current line and every line in the
        # prefetch-ahead window (paper: "probed using cache line addresses
        # up to a defined prefetch-ahead distance").
        probe_window = ahead if self.probe_ahead else 0
        for offset in range(0, probe_window + 1):
            probe_line = line + offset
            target = table.predict(probe_line)
            if target is None:
                continue
            provenance = ("disc", table.index_of(probe_line), probe_line)
            remainder = ahead - offset
            for extra in range(0, remainder + 1):
                candidates.append(PrefetchCandidate(target + extra, provenance))
        return candidates

    def on_discontinuity(self, source_line, target_line, caused_miss):
        # Allocation condition (§4): the transition resulted in an
        # instruction-cache miss.
        if caused_miss:
            self.table.observe(source_line, target_line)

    def credit(self, provenance):
        if provenance and provenance[0] == "disc":
            _, index, source_line = provenance
            self.table.credit(index, source_line)

    def state_bytes(self) -> int:
        # Per entry: source tag + target + the 2-bit eviction counter.
        return (self.table.entries * (32 + 32 + 2)) // 8

    def reset(self):
        self.table.reset()
