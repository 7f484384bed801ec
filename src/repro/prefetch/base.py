"""Prefetcher interface.

The front-end engine drives prefetchers through three hooks:

- :meth:`Prefetcher.on_demand_fetch` — called once per demand line fetch
  with the hit/miss outcome and whether this access is the *first use of a
  prefetched line* (the "tagged" trigger of Smith's taxonomy).  Returns the
  prefetch candidates to enqueue.
- :meth:`Prefetcher.on_discontinuity` — called when the fetch stream
  performed a non-sequential line transition; ``caused_miss`` says whether
  the target line missed (the paper's discontinuity-table allocation
  condition).
- :meth:`Prefetcher.credit` — called when a prefetched line is consumed by
  a demand fetch, carrying the candidate's provenance token so table-based
  schemes can reinforce the entry that predicted it (the 2-bit eviction
  counter increment of §4).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple


class PrefetchCandidate(NamedTuple):
    """A prefetch request produced by a prefetcher.

    Attributes:
        line: target cache-line index.
        provenance: opaque token identifying the predictor component and
            table entry that produced the candidate; handed back via
            :meth:`Prefetcher.credit` when the line proves useful.
    """

    line: int
    provenance: Optional[Tuple] = None


class Prefetcher:
    """Base class; concrete schemes override the hooks they care about."""

    #: short identifier used in registries and result tables.
    name = "base"

    def on_demand_fetch(
        self,
        line: int,
        was_miss: bool,
        first_use_of_prefetch: bool,
        kind: int,
    ) -> List[PrefetchCandidate]:
        """React to a demand fetch of *line*; return candidates to enqueue."""
        return []

    def on_discontinuity(self, source_line: int, target_line: int, caused_miss: bool) -> None:
        """Observe a non-sequential fetch-stream transition."""

    def credit(self, provenance: Tuple) -> None:
        """A prefetched line with this provenance was demand-used."""

    def state_bytes(self) -> int:
        """Bytes of prediction state this configured instance models.

        The hardware-storage accounting used by the budget-matched family
        comparison (:mod:`repro.prefetch.budget`): table tags, targets and
        counters, under the repo-wide convention of 32-bit line addresses
        and exact counter widths.  Stateless schemes (the sequential
        family needs only a couple of registers) report 0.
        """
        return 0

    def consume_overhead_cycles(self) -> float:
        """Return (and reset) execution-cycle overhead accrued since the
        last call.

        Hardware prefetchers are free; software prefetching executes real
        instructions, and :class:`repro.swpf.SoftwarePrefetcher` reports
        their cost here so the engine can charge it to the core's clock.
        """
        return 0.0

    def reset(self) -> None:
        """Clear learned state (tables); used between warm-up phases only
        when an experiment explicitly wants cold predictors."""


class NullPrefetcher(Prefetcher):
    """No prefetching — the paper's baseline configuration."""

    name = "none"
