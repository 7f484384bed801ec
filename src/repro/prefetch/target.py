"""History-based target prefetcher baseline (Smith & Hsu [1], Hsu & Smith [5]).

The classic scheme the paper's §2.2 describes: a table remembers, for each
demand-fetched line, the next (non-sequential) line fetched after it.  On
each demand fetch the table is probed with the *current* line only — no
probe-ahead — which is precisely the timeliness limitation the paper's
discontinuity prefetcher fixes.  Included so experiments can quantify that
gap.

The table here is fully-associative with LRU replacement and a capacity
bound, which is *generous* to the baseline: its deficit in the results is
timeliness, not capacity.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.prefetch.base import PrefetchCandidate, Prefetcher


class TargetPrefetcher(Prefetcher):
    """Line-target history table probed with the current line."""

    def __init__(self, capacity: int = 8192, degree: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        self.capacity = capacity
        self.degree = degree
        self.name = "target"
        self._table: OrderedDict[int, int] = OrderedDict()

    def on_demand_fetch(self, line, was_miss, first_use_of_prefetch, kind):
        target = self._table.get(line)
        if target is None:
            return []
        self._table.move_to_end(line)
        return [
            PrefetchCandidate(target + extra, ("tgt", line))
            for extra in range(self.degree)
        ]

    def on_discontinuity(self, source_line, target_line, caused_miss):
        # The target table learns every non-sequential transition, not just
        # missing ones (the historical schemes recorded the fetch sequence).
        table = self._table
        if source_line in table:
            table[source_line] = target_line
            table.move_to_end(source_line)
            return
        table[source_line] = target_line
        if len(table) > self.capacity:
            table.popitem(last=False)

    def state_bytes(self) -> int:
        # Per entry: source tag + one target line address.
        return (self.capacity * (32 + 32)) // 8

    def reset(self):
        self._table.clear()
