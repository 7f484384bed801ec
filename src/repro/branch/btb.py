"""Branch target buffer — direct-mapped and tagless, as in the paper §5.

Being tagless, a BTB lookup always returns *some* target (whatever the
indexed entry last stored); aliasing across lines is part of the design
and exactly why a small BTB mispredicts heavily on multi-megabyte
commercial instruction footprints.
"""

from __future__ import annotations

from typing import List, Optional

from repro.util.containers import LazyTable
from repro.util.validation import check_power_of_two


class BranchTargetBuffer:
    """Direct-mapped, tagless target store at line granularity."""

    __slots__ = ("entries", "_targets", "_mask", "__weakref__")

    def __init__(self, entries: int = 1024) -> None:
        check_power_of_two("BTB entries", entries)
        self.entries = entries
        self._mask = entries - 1
        self.reset()

    def predict(self, line: int) -> Optional[int]:
        """Predicted target line, or None if the entry was never trained."""
        target = self._targets[line & self._mask]
        return target if target >= 0 else None

    def update(self, line: int, target: int) -> None:
        self._targets[line & self._mask] = target

    def occupancy(self) -> int:
        return sum(1 for target in self._targets if target >= 0)

    def reset(self) -> None:
        """Untrain every entry; the table is built on first read."""
        entries = self.entries
        self._targets: List[int] = LazyTable(  # type: ignore[assignment]
            self, "_targets", lambda: [-1] * entries
        )
