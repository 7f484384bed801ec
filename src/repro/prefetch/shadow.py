"""FTQ-driven fetch-directed prefetching with shadow-branch predecode
[Pepi et al. '24, on top of Calder/Reinman/Austin '99].

Plain fetch-directed prefetching (:mod:`repro.prefetch.fdp`) follows
*one* predicted path: a branch the gshare predicts not-taken contributes
nothing, even when the fetch unit already knows its target.  The
shadow-branch observation is that fetched cache lines carry decodable
branches the predictor has not followed (yet) — "shadow" branches — and a
cheap predecode of each line entering the fetch target queue (FTQ) can
expose their targets for prefetching.

At this repo's line granularity the predecoder is emulated with a
**shadow target buffer (STB)**: a set-associative line → target store
trained on *every* observed fetch-stream discontinuity, hit or miss
(once a line has been fetched, the branch targets encoded in it are
architecturally visible — unlike the run-ahead BTB, which only helps
along the *predicted-taken* path).  Run-ahead then works in two stages:

1. the inherited gshare/BTB/RAS walk fills a bounded **FTQ** with the
   predicted fetch lines (its run-ahead RAS pop fires rarely, e.g. in
   ``microsvc/4c/shadow/bypass`` at seed 2718; see
   :mod:`repro.prefetch.fdp`);
2. draining the FTQ, every line is prefetched and *predecoded*: if the
   walk left the line sequentially (predicted not-taken) but the STB
   knows a target for it, the shadow target and its next
   ``shadow_degree - 1`` lines are enqueued too, recovering coverage
   where the direction predictor decays on large footprints.
"""

from __future__ import annotations

from typing import List, Optional

from repro.prefetch.base import PrefetchCandidate
from repro.prefetch.fdp import FetchDirectedPrefetcher
from repro.util.containers import LazyTable
from repro.util.validation import check_power_of_two

_FDP_PROVENANCE = ("fdp",)

#: saturation value of the per-entry STB confidence counter (2 bits).
_CONFIDENCE_MAX = 3


class _ShadowEntry:
    """One predecoded branch target (line-granularity)."""

    __slots__ = ("line", "target", "confidence")

    def __init__(self, line: int, target: int) -> None:
        self.line = line
        self.target = target
        self.confidence = 1


class ShadowTargetBuffer:
    """Set-associative line → branch-target store (the predecode proxy)."""

    __slots__ = ("entries", "assoc", "_sets", "_set_mask", "__weakref__")

    def __init__(self, entries: int = 2048, assoc: int = 4) -> None:
        check_power_of_two("shadow entries", entries)
        check_power_of_two("associativity", assoc)
        if assoc > entries:
            raise ValueError(f"associativity {assoc} exceeds entries {entries}")
        self.entries = entries
        self.assoc = assoc
        self._set_mask = entries // assoc - 1
        self.reset()

    def _set_for(self, line: int) -> List[_ShadowEntry]:
        return self._sets[line & self._set_mask]

    def lookup(self, line: int) -> Optional[int]:
        """Known branch target leaving *line*, if any (no LRU touch: a
        predecode probe is not a reuse signal)."""
        for entry in self._set_for(line):
            if entry.line == line:
                return entry.target
        return None

    def observe(self, line: int, target: int) -> None:
        """Record a decoded (source line → target) branch edge."""
        ways = self._set_for(line)
        for index, entry in enumerate(ways):
            if entry.line == line:
                entry.target = target
                if index != len(ways) - 1:
                    del ways[index]
                    ways.append(entry)
                return
        if len(ways) >= self.assoc:
            victim_index = 0
            for index, entry in enumerate(ways):
                if entry.confidence < ways[victim_index].confidence:
                    victim_index = index
            del ways[victim_index]
        ways.append(_ShadowEntry(line, target))

    def credit(self, line: int) -> None:
        """A shadow prefetch from *line* proved useful."""
        for entry in self._set_for(line):
            if entry.line == line:
                if entry.confidence < _CONFIDENCE_MAX:
                    entry.confidence += 1
                return

    def occupancy(self) -> int:
        return sum(len(ways) for ways in self._sets)

    def reset(self) -> None:
        """Empty every set; the per-set lists are built on first read."""
        n_sets = self._set_mask + 1
        self._sets: List[List[_ShadowEntry]] = LazyTable(  # type: ignore[assignment]
            self, "_sets", lambda: [[] for _ in range(n_sets)]
        )


class ShadowBranchPrefetcher(FetchDirectedPrefetcher):
    """FDP run-ahead + FTQ predecode of shadow-branch targets."""

    def __init__(
        self,
        btb_entries: int = 1024,
        gshare_entries: int = 65536,
        ras_entries: int = 16,
        lookahead: int = 8,
        history_bits: int = 10,
        ftq_entries: int = 16,
        shadow_entries: int = 2048,
        shadow_assoc: int = 4,
        shadow_degree: int = 2,
    ) -> None:
        if ftq_entries < 1:
            raise ValueError(f"ftq_entries must be >= 1, got {ftq_entries}")
        if shadow_degree < 1:
            raise ValueError(f"shadow_degree must be >= 1, got {shadow_degree}")
        super().__init__(
            btb_entries=btb_entries,
            gshare_entries=gshare_entries,
            ras_entries=ras_entries,
            lookahead=lookahead,
            history_bits=history_bits,
        )
        self.stb = ShadowTargetBuffer(shadow_entries, shadow_assoc)
        self.ftq_entries = ftq_entries
        self.shadow_degree = shadow_degree
        self.name = f"shadow-{shadow_entries}stb"
        #: shadow targets discovered by predecode across all run-aheads.
        self.shadow_discoveries = 0

    # ------------------------------------------------------------------ #
    # Predecode training
    # ------------------------------------------------------------------ #

    def on_discontinuity(self, source_line, target_line, caused_miss):
        # Every non-sequential transition decodes a branch in source_line;
        # the predecoder would have seen it as soon as the line was
        # fetched, so the STB learns it regardless of hit/miss.
        self.stb.observe(source_line, target_line)

    # ------------------------------------------------------------------ #
    # FTQ run-ahead with predecode
    # ------------------------------------------------------------------ #

    def _run_ahead(self, line: int) -> List[PrefetchCandidate]:
        """Fill the FTQ along the predicted path, then drain + predecode."""
        gshare = self.gshare
        btb = self.btb
        current = line
        history = gshare.history
        ras_copy = list(self.ras._stack)
        # Stage 1: the inherited predicted-path walk, as (line, left_seq)
        # FTQ records — left_seq marks lines the walk exited sequentially
        # (predicted not-taken), the only place a shadow branch can hide.
        ftq: List[List[int]] = []
        steps = min(self.lookahead, self.ftq_entries)
        for _ in range(steps):
            taken = gshare.predict(current, history)
            history = gshare.speculate_history(history, taken)
            if ftq:
                ftq[-1][1] = not taken
            if taken:
                target = btb.predict(current)
                if target is None:
                    break
                if ras_copy and target == current + 1:
                    target = ras_copy.pop()
                current = target
            else:
                current = current + 1
            ftq.append([current, True])

        # Stage 2: drain the FTQ; predecode each sequentially-exited line.
        candidates: List[PrefetchCandidate] = []
        stb = self.stb
        degree = self.shadow_degree
        for qline, left_seq in ftq:
            candidates.append(PrefetchCandidate(qline, _FDP_PROVENANCE))
            if not left_seq:
                continue
            target = stb.lookup(qline)
            if target is None or target == qline + 1:
                continue
            self.shadow_discoveries += 1
            provenance = ("shadow", qline)
            for extra in range(degree):
                candidates.append(PrefetchCandidate(target + extra, provenance))
        return candidates

    def credit(self, provenance):
        if provenance and provenance[0] == "shadow":
            self.stb.credit(provenance[1])

    def state_bytes(self) -> int:
        # FDP predictor state + STB (tag + target + 2-bit confidence) +
        # the FTQ's line-address slots.
        base = super().state_bytes()
        stb_bits = self.stb.entries * (32 + 32 + 2)
        ftq_bits = self.ftq_entries * 32
        return base + (stb_bits + ftq_bits) // 8

    def reset(self):
        super().reset()
        self.stb.reset()
        self.shadow_discoveries = 0
