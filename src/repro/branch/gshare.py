"""Gshare direction predictor [McFarling '93], at fetch-line granularity.

Predicts whether the fetch stream *leaves sequentially* (not taken) or
*transfers away* (taken) after a line.  The pattern-history table of 2-bit
saturating counters is indexed by (line index XOR global history).
"""

from __future__ import annotations

from typing import List

from repro.util.containers import LazyTable
from repro.util.validation import check_power_of_two


class GsharePredictor:
    """2-bit-counter PHT indexed by line ^ global history."""

    __slots__ = (
        "entries",
        "history_bits",
        "_pht",
        "_history",
        "_mask",
        "_history_mask",
        "__weakref__",
    )

    def __init__(self, entries: int = 65536, history_bits: int = 12) -> None:
        check_power_of_two("gshare entries", entries)
        if not 0 <= history_bits <= 30:
            raise ValueError(f"history_bits must be in [0, 30], got {history_bits}")
        self.entries = entries
        self.history_bits = history_bits
        self._mask = entries - 1
        self._history_mask = (1 << history_bits) - 1
        self.reset()

    def _index(self, line: int, history: int) -> int:
        return (line ^ history) & self._mask

    def predict(self, line: int, history: int = -1) -> bool:
        """True = taken (the stream will leave this line non-sequentially).

        Pass an explicit *history* to predict along a speculative path
        (run-ahead prefetching); -1 uses the architectural history.
        """
        if history < 0:
            history = self._history
        return self._pht[self._index(line, history)] >= 2

    def update(self, line: int, taken: bool) -> None:
        """Train with the resolved outcome and advance the history."""
        index = self._index(line, self._history)
        counter = self._pht[index]
        if taken:
            if counter < 3:
                self._pht[index] = counter + 1
        else:
            if counter > 0:
                self._pht[index] = counter - 1
        self._history = ((self._history << 1) | (1 if taken else 0)) & self._history_mask

    def speculate_history(self, history: int, taken: bool) -> int:
        """Return the history after a speculative outcome (run-ahead)."""
        return ((history << 1) | (1 if taken else 0)) & self._history_mask

    @property
    def history(self) -> int:
        return self._history

    def reset(self) -> None:
        """Untrain every counter; the table is built on first read."""
        entries = self.entries
        # Initialised weakly NOT-taken: at fetch-line granularity most
        # lines exit sequentially, so the untrained prior is sequential.
        self._pht: List[int] = LazyTable(  # type: ignore[assignment]
            self, "_pht", lambda: [1] * entries
        )
        self._history = 0
