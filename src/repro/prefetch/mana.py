"""MANA-style record-and-replay instruction prefetcher [Ansari et al. '21].

The follow-on family the ROADMAP names first: instead of learning *edges*
(discontinuity pairs) the prefetcher records whole **spatial regions** —
the footprint of cache lines the fetch stream touched inside an aligned
group of ``region_lines`` lines — and replays recorded regions ahead of
the stream.

Structures, adapted to this repo's line-granularity front end:

- a **stream address buffer (SAB)-style recorder** follows the demand
  fetch stream and accumulates the footprint bitmap of the region it is
  currently inside.  The first line fetched in a region is the region's
  **trigger**; when the stream leaves the region, the completed record
  ``(trigger, footprint, successor)`` is committed.
- the **record table** is set-associative (``table_entries`` total,
  ``assoc`` ways), keyed by trigger line, with a small saturating
  confidence counter per entry.  A record's successor is the line that
  left its region, which is the next record's trigger, so records chain
  in stream order (MANA's pointer chain); committing a record also
  probes the previous one, touching it in LRU order.
- **replay**: on a tagged trigger (demand miss or first use of a
  prefetched line) the table is probed with the missing line; a hit
  replays the recorded footprint and follows successor pointers for up to
  ``replay_depth`` chained records, staying ahead of the fetch stream.

Replacement inside a set prefers the lowest-confidence entry (ties fall
to LRU age); :meth:`ManaPrefetcher.credit` reinforces entries whose
replayed lines were demand-used, mirroring the §4 eviction-counter idea.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.prefetch.base import PrefetchCandidate, Prefetcher
from repro.util.containers import LazyTable
from repro.util.validation import check_power_of_two

#: saturation value of the per-entry confidence counter (2 bits).
_CONFIDENCE_MAX = 3

#: confidence a freshly committed record starts with.
_CONFIDENCE_INIT = 1


@dataclass
class ManaStats:
    """Record-table management counters."""

    commits: int = 0
    allocations: int = 0
    evictions: int = 0
    probe_hits: int = 0
    replays: int = 0
    credits: int = 0

    def reset(self) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)


class _Record:
    """One committed spatial-region record."""

    __slots__ = ("trigger", "footprint", "successor", "confidence")

    def __init__(self, trigger: int, footprint: int, successor: int) -> None:
        self.trigger = trigger
        self.footprint = footprint
        self.successor = successor  #: next record's trigger, or -1
        self.confidence = _CONFIDENCE_INIT


class ManaTable:
    """Set-associative trigger-keyed record store.

    Each set is a small list ordered LRU → MRU.  The replacement victim is
    the lowest-confidence record, ties broken by age, so records that keep
    producing useful replays outlive stray one-shot regions.
    """

    __slots__ = ("entries", "assoc", "stats", "_sets", "_set_mask", "__weakref__")

    def __init__(self, entries: int = 4096, assoc: int = 4) -> None:
        check_power_of_two("table entries", entries)
        check_power_of_two("associativity", assoc)
        if assoc > entries:
            raise ValueError(
                f"associativity {assoc} exceeds table entries {entries}"
            )
        self.entries = entries
        self.assoc = assoc
        self.stats = ManaStats()
        self._set_mask = entries // assoc - 1
        self._unbuilt()

    def _unbuilt(self) -> None:
        """Empty every set; the per-set lists are built on first read."""
        n_sets = self._set_mask + 1
        self._sets: List[List[_Record]] = LazyTable(  # type: ignore[assignment]
            self, "_sets", lambda: [[] for _ in range(n_sets)]
        )

    def _set_for(self, trigger: int) -> List[_Record]:
        return self._sets[trigger & self._set_mask]

    def lookup(self, trigger: int) -> Optional[_Record]:
        """Return the record for *trigger* (LRU-touching it), if any."""
        ways = self._set_for(trigger)
        for index, record in enumerate(ways):
            if record.trigger == trigger:
                if index != len(ways) - 1:
                    del ways[index]
                    ways.append(record)
                self.stats.probe_hits += 1
                return record
        return None

    def commit(self, trigger: int, footprint: int, successor: int) -> None:
        """Insert or refresh the record for one completed region."""
        self.stats.commits += 1
        ways = self._set_for(trigger)
        for index, record in enumerate(ways):
            if record.trigger == trigger:
                # Re-recorded region: adopt the fresh footprint/successor
                # (the stream's current behavior wins over history).
                record.footprint = footprint
                record.successor = successor
                if index != len(ways) - 1:
                    del ways[index]
                    ways.append(record)
                return
        if len(ways) >= self.assoc:
            victim_index = 0
            for index, record in enumerate(ways):
                if record.confidence < ways[victim_index].confidence:
                    victim_index = index
            del ways[victim_index]
            self.stats.evictions += 1
        ways.append(_Record(trigger, footprint, successor))
        self.stats.allocations += 1

    def credit(self, trigger: int) -> None:
        """Reinforce a record whose replay proved useful (no LRU touch)."""
        for record in self._set_for(trigger):
            if record.trigger == trigger:
                if record.confidence < _CONFIDENCE_MAX:
                    record.confidence += 1
                self.stats.credits += 1
                return

    def occupancy(self) -> int:
        return sum(len(ways) for ways in self._sets)

    def reset(self) -> None:
        self._unbuilt()
        self.stats.reset()


class ManaPrefetcher(Prefetcher):
    """Record/replay over spatial regions (SAB recorder + trigger table)."""

    def __init__(
        self,
        table_entries: int = 4096,
        assoc: int = 4,
        region_lines: int = 8,
        replay_depth: int = 3,
    ) -> None:
        check_power_of_two("region_lines", region_lines)
        if replay_depth < 1:
            raise ValueError(f"replay_depth must be >= 1, got {replay_depth}")
        self.table = ManaTable(table_entries, assoc)
        self.region_lines = region_lines
        self.replay_depth = replay_depth
        self.name = f"mana-{table_entries}"
        self._region_shift = region_lines.bit_length() - 1
        self._offset_mask = region_lines - 1
        # SAB recorder state: the region currently being recorded plus the
        # trigger of the previously committed record (probed at each commit).
        self._rec_region = -1
        self._rec_trigger = -1
        self._rec_footprint = 0
        self._prev_trigger = -1

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _record(self, line: int) -> None:
        region = line >> self._region_shift
        if region == self._rec_region:
            self._rec_footprint |= 1 << (line & self._offset_mask)
            return
        if self._rec_region >= 0:
            self.table.commit(self._rec_trigger, self._rec_footprint, line)
            if self._prev_trigger >= 0:
                # The previous record already chains to this one: its
                # successor was set to this record's trigger at its own
                # commit.  The probe only counts a hit and touches it.
                self.table.lookup(self._prev_trigger)
            self._prev_trigger = self._rec_trigger
        self._rec_region = region
        self._rec_trigger = line
        self._rec_footprint = 1 << (line & self._offset_mask)

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #

    def _replay(self, trigger: int) -> List[PrefetchCandidate]:
        candidates: List[PrefetchCandidate] = []
        table = self.table
        shift = self._region_shift
        current = trigger
        for _ in range(self.replay_depth):
            record = table.lookup(current)
            if record is None:
                break
            table.stats.replays += 1
            base = (current >> shift) << shift
            provenance = ("mana", current)
            footprint = record.footprint
            offset = 0
            while footprint:
                if (footprint & 1) and base + offset != trigger:
                    candidates.append(PrefetchCandidate(base + offset, provenance))
                footprint >>= 1
                offset += 1
            current = record.successor
            if current < 0:
                break
        return candidates

    # ------------------------------------------------------------------ #
    # Prefetcher hooks
    # ------------------------------------------------------------------ #

    def on_demand_fetch(self, line, was_miss, first_use_of_prefetch, kind):
        self._record(line)
        if not (was_miss or first_use_of_prefetch):
            return []
        return self._replay(line)

    def credit(self, provenance):
        if provenance and provenance[0] == "mana":
            self.table.credit(provenance[1])

    def state_bytes(self) -> int:
        # Per record: trigger tag + footprint bitmap + successor pointer +
        # 2-bit confidence; the single SAB recorder register is negligible.
        per_entry_bits = 32 + self.region_lines + 32 + 2
        return (self.table.entries * per_entry_bits) // 8

    def reset(self):
        self.table.reset()
        self._rec_region = -1
        self._rec_trigger = -1
        self._rec_footprint = 0
        self._prev_trigger = -1
