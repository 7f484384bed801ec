"""Markov (multi-target) instruction prefetcher [Joseph & Grunwald '99].

The history-based alternative the paper's §4 design argument is aimed at:
where the discontinuity table stores *one* target per source line ("for
the majority of discontinuities, for any one start address there is just
one associated target"), a Markov predictor retains up to *k* successor
lines per entry, each with a frequency counter, and prefetches the most
likely successors.

Implemented faithfully enough for the size/benefit comparison the paper
implies:

- set-associative table keyed by source line, LRU replacement;
- per-entry successor list (max ``targets_per_entry``), frequency-ordered;
- on a probe, the top ``fanout`` successors are prefetched;
- like the paper's prefetcher, it is paired with a next-N-line sequential
  prefetcher and probed across the prefetch-ahead window, so the
  comparison isolates exactly the single- vs multi-target choice.

Storage cost per entry is ``targets_per_entry`` targets + counters versus
the discontinuity table's single target + 2-bit counter — the hardware
argument for the paper's design shows up as equal-storage comparisons
(e.g. a 2-target Markov table of N entries vs a discontinuity table of
2N entries).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Tuple

from repro.prefetch.base import PrefetchCandidate, Prefetcher

_SEQ_PROVENANCE = ("seq",)


@dataclass
class MarkovStats:
    """Table-management counters."""

    allocations: int = 0
    evictions: int = 0
    successor_updates: int = 0
    probe_hits: int = 0

    def reset(self) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)


class _Entry:
    """Successor list of one source line (frequency-ordered)."""

    __slots__ = ("successors",)

    def __init__(self) -> None:
        # list of [target_line, count]; kept sorted by count descending.
        self.successors: List[List[int]] = []

    def _canonicalize(self) -> None:
        # Canonical order: count descending, target ascending on ties —
        # so ``top`` never depends on insertion history.
        self.successors.sort(key=lambda s: (-s[1], s[0]))

    def observe(self, target: int, max_targets: int) -> None:
        for successor in self.successors:
            if successor[0] == target:
                successor[1] += 1
                self._canonicalize()
                return
        if len(self.successors) < max_targets:
            self.successors.append([target, 1])
            self._canonicalize()
            return
        # Replace the least-frequent successor (decay-style: halve the
        # victim's count first so stale targets eventually lose).
        victim = self.successors[-1]
        victim[1] //= 2
        if victim[1] == 0:
            self.successors[-1] = [target, 1]
            self._canonicalize()

    def top(self, fanout: int) -> List[int]:
        return [successor[0] for successor in self.successors[:fanout]]


class MarkovTable:
    """Fully-associative-within-capacity successor table with LRU."""

    __slots__ = ("capacity", "targets_per_entry", "stats", "_table")

    def __init__(self, capacity: int = 4096, targets_per_entry: int = 2) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if targets_per_entry < 1:
            raise ValueError(f"targets_per_entry must be >= 1, got {targets_per_entry}")
        self.capacity = capacity
        self.targets_per_entry = targets_per_entry
        self.stats = MarkovStats()
        self._table: OrderedDict[int, _Entry] = OrderedDict()

    def observe(self, source_line: int, target_line: int) -> None:
        entry = self._table.get(source_line)
        if entry is None:
            entry = _Entry()
            self._table[source_line] = entry
            self.stats.allocations += 1
            if len(self._table) > self.capacity:
                self._table.popitem(last=False)
                self.stats.evictions += 1
        else:
            self._table.move_to_end(source_line)
        entry.observe(target_line, self.targets_per_entry)
        self.stats.successor_updates += 1

    def predict(self, source_line: int, fanout: int) -> List[int]:
        entry = self._table.get(source_line)
        if entry is None:
            return []
        self._table.move_to_end(source_line)
        self.stats.probe_hits += 1
        return entry.top(fanout)

    def occupancy(self) -> int:
        return len(self._table)

    def entry_successors(self, source_line: int) -> List[Tuple[int, int]]:
        """(target, count) pairs of an entry — test/debug helper."""
        entry = self._table.get(source_line)
        if entry is None:
            return []
        return [(successor[0], successor[1]) for successor in entry.successors]

    def reset(self) -> None:
        self._table.clear()
        self.stats.reset()


class MarkovPrefetcher(Prefetcher):
    """Markov table + next-N-line sequential prefetcher.

    Drives the same trigger/probe-ahead protocol as the discontinuity
    prefetcher so experiments isolate the table design.
    """

    def __init__(
        self,
        capacity: int = 4096,
        targets_per_entry: int = 2,
        fanout: int = 2,
        prefetch_ahead: int = 4,
    ) -> None:
        if fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {fanout}")
        if prefetch_ahead < 1:
            raise ValueError(f"prefetch_ahead must be >= 1, got {prefetch_ahead}")
        self.table = MarkovTable(capacity, targets_per_entry)
        self.fanout = fanout
        self.prefetch_ahead = prefetch_ahead
        self.name = f"markov-{targets_per_entry}t"

    def on_demand_fetch(self, line, was_miss, first_use_of_prefetch, kind):
        if not (was_miss or first_use_of_prefetch):
            return []
        ahead = self.prefetch_ahead
        candidates = [
            PrefetchCandidate(line + depth, _SEQ_PROVENANCE) for depth in range(1, ahead + 1)
        ]
        for offset in range(0, ahead + 1):
            probe_line = line + offset
            targets = self.table.predict(probe_line, self.fanout)
            if not targets:
                continue
            remainder = ahead - offset
            provenance = ("markov", probe_line)
            for target in targets:
                for extra in range(0, remainder + 1):
                    candidates.append(PrefetchCandidate(target + extra, provenance))
        return candidates

    def on_discontinuity(self, source_line, target_line, caused_miss):
        if caused_miss:
            self.table.observe(source_line, target_line)

    def state_bytes(self) -> int:
        # Per entry: source tag plus (target + 8-bit frequency counter)
        # for each successor slot — the multi-target storage cost the
        # paper's single-target argument is about.
        per_entry_bits = 32 + self.table.targets_per_entry * (32 + 8)
        return (self.table.capacity * per_entry_bits) // 8

    def reset(self):
        self.table.reset()
