"""The sequential prefetcher family (paper §2.1).

All variants differ only in *when* they trigger and *how far* they reach:

====================  ======================================  ============
Scheme                Trigger                                 Issues
====================  ======================================  ============
next-line always      every demand fetch                      L+1
next-line on miss     demand miss                             L+1
next-line tagged      demand miss or first use of a           L+1
                      prefetched line
next-N-line tagged    tagged trigger                          L+1 .. L+N
lookahead-N           tagged trigger                          L+N only
====================  ======================================  ============

The tagged trigger [Smith '82] is what lets a single initial miss start a
self-sustaining prefetch run: each prefetched line, on first use, triggers
the next prefetch.
"""

from __future__ import annotations

from repro.prefetch.base import PrefetchCandidate, Prefetcher

_SEQ_PROVENANCE = ("seq",)


class NextLineAlways(Prefetcher):
    """Prefetch L+1 on every demand fetch."""

    name = "next-line-always"

    def on_demand_fetch(self, line, was_miss, first_use_of_prefetch, kind):
        return [PrefetchCandidate(line + 1, _SEQ_PROVENANCE)]


class NextLineOnMiss(Prefetcher):
    """Prefetch L+1 only when the demand fetch of L missed."""

    name = "next-line-on-miss"
    def on_demand_fetch(self, line, was_miss, first_use_of_prefetch, kind):
        if was_miss:
            return [PrefetchCandidate(line + 1, _SEQ_PROVENANCE)]
        return []


class NextLineTagged(Prefetcher):
    """Prefetch L+1 on a miss or on first use of a prefetched line."""

    name = "next-line-tagged"
    def on_demand_fetch(self, line, was_miss, first_use_of_prefetch, kind):
        if was_miss or first_use_of_prefetch:
            return [PrefetchCandidate(line + 1, _SEQ_PROVENANCE)]
        return []


class NextNLineTagged(Prefetcher):
    """Prefetch L+1 .. L+N on a tagged trigger (paper default N=4)."""

    def __init__(self, degree: int = 4) -> None:
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        self.degree = degree
        self.name = f"next-{degree}-line"

    def on_demand_fetch(self, line, was_miss, first_use_of_prefetch, kind):
        if was_miss or first_use_of_prefetch:
            return [
                PrefetchCandidate(line + depth, _SEQ_PROVENANCE)
                for depth in range(1, self.degree + 1)
            ]
        return []


class LookaheadN(Prefetcher):
    """Prefetch only the Nth sequential line ahead (Han et al. [4]).

    Improves timeliness without needing N prefetches per demand fetch, at
    the cost of gaps in the prefetched stream when control transfers occur
    (paper §2.1) — included as a baseline for exactly that comparison.
    """

    def __init__(self, distance: int = 4) -> None:
        if distance < 1:
            raise ValueError(f"distance must be >= 1, got {distance}")
        self.distance = distance
        self.name = f"lookahead-{distance}"

    def on_demand_fetch(self, line, was_miss, first_use_of_prefetch, kind):
        if was_miss or first_use_of_prefetch:
            return [PrefetchCandidate(line + self.distance, _SEQ_PROVENANCE)]
        return []
