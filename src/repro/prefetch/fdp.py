"""Fetch-directed (execution-based) prefetching [Calder/Reinman/Austin '99].

The §2.2 alternative the paper dismisses for commercial workloads: run a
branch predictor *ahead* of the fetch unit and prefetch along the
predicted path.  The paper's argument: commercial working sets are huge
and basic blocks small, so the predictor state needed for useful lookahead
is impractical ("a huge basic block predictor is required").

This implementation works at fetch-line granularity on the
:mod:`repro.branch` substrate:

- the **gshare** predictor decides whether the stream leaves each line
  non-sequentially;
- the **BTB** supplies the non-sequential target;
- the **RAS** supplies return targets (call/return transition kinds train
  it).  Run-ahead pops it only where a BTB target is the fall-through line
  (``current + 1``), which is rare but real: at smoke scale the pop fires
  36 times in 12 of the 76 fdp/shadow catalog specs (seeds 1337 and
  2718), and at default scale 128 times in 15 of 38 specs (seed 1337).
  Only its depth has shown no effect (``ras_entries=1`` and ``16`` give
  bit-identical db and interp results);
- on each tagged trigger, the prefetcher *runs ahead*: starting from the
  current line it follows the predicted path for ``lookahead`` lines,
  prefetching every line it visits.

With paper-sized tables (1K-entry tagless BTB) the predicted path decays
quickly on multi-MB footprints; growing the BTB toward impractical sizes
recovers coverage — the ``comparison-execution-based``
experiment (``repro.eval.catalog.comparisons``) quantifies the paper's
qualitative claim.
"""

from __future__ import annotations

from typing import List

from repro.branch.btb import BranchTargetBuffer
from repro.branch.gshare import GsharePredictor
from repro.branch.ras import ReturnAddressStack
from repro.isa.kinds import TransitionKind
from repro.prefetch.base import PrefetchCandidate, Prefetcher

_CALL = int(TransitionKind.CALL)
_JUMP = int(TransitionKind.JUMP)
_RETURN = int(TransitionKind.RETURN)
_SEQ = int(TransitionKind.SEQUENTIAL)
_NT = int(TransitionKind.COND_NOT_TAKEN)

_FDP_PROVENANCE = ("fdp",)


class FetchDirectedPrefetcher(Prefetcher):
    """Branch-predictor-directed run-ahead prefetcher."""

    def __init__(
        self,
        btb_entries: int = 1024,
        gshare_entries: int = 65536,
        ras_entries: int = 16,
        lookahead: int = 8,
        history_bits: int = 10,
    ) -> None:
        if lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {lookahead}")
        self.gshare = GsharePredictor(gshare_entries, history_bits=history_bits)
        self.btb = BranchTargetBuffer(btb_entries)
        self.ras = ReturnAddressStack(ras_entries)
        self.lookahead = lookahead
        self.name = f"fdp-{btb_entries}btb"
        self._prev_line = -1

    # ------------------------------------------------------------------ #
    # Training: observe the actual fetch stream
    # ------------------------------------------------------------------ #

    def on_demand_fetch(self, line, was_miss, first_use_of_prefetch, kind):
        prev = self._prev_line
        self._prev_line = line
        if prev >= 0:
            taken = line != prev + 1
            self.gshare.update(prev, taken)
            if taken:
                self.btb.update(prev, line)
            if kind == _CALL or kind == _JUMP:
                # A call transition: the return will resume after the call
                # site (approximated at line granularity as prev + 1).
                self.ras.push(prev + 1)
            elif kind == _RETURN:
                self.ras.pop()

        if not (was_miss or first_use_of_prefetch):
            return []
        return self._run_ahead(line)

    def _run_ahead(self, line: int) -> List[PrefetchCandidate]:
        """Walk the predicted path for ``lookahead`` lines."""
        candidates: List[PrefetchCandidate] = []
        gshare = self.gshare
        btb = self.btb
        current = line
        history = gshare.history
        # Speculative RAS copy so run-ahead pops don't corrupt training
        # state (hardware checkpoints the RAS the same way).
        ras_copy = list(self.ras._stack)
        for _ in range(self.lookahead):
            taken = gshare.predict(current, history)
            history = gshare.speculate_history(history, taken)
            if taken:
                target = btb.predict(current)
                if target is None:
                    # No target knowledge: the predicted path ends.
                    break
                if ras_copy and target == current + 1:
                    # Heuristic: a stale BTB fall-through with a pending
                    # return frame resumes at the return address.
                    target = ras_copy.pop()
                if target == current:
                    # Tagless-BTB aliasing can predict a line as its own
                    # target; the walk would pin here emitting the same
                    # line for the rest of the lookahead.  End the path.
                    break
                current = target
            else:
                current = current + 1
            candidates.append(PrefetchCandidate(current, _FDP_PROVENANCE))
        return candidates

    def state_bytes(self) -> int:
        # Tagless BTB targets + 2-bit gshare counters + the RAS frames.
        bits = (
            self.btb.entries * 32
            + self.gshare.entries * 2
            + self.ras.capacity * 32
        )
        return bits // 8

    def reset(self):
        self.gshare.reset()
        self.btb.reset()
        self.ras.reset()
        self._prev_line = -1
