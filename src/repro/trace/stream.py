"""Trace containers and the block-event → line-visit lowering.

The front-end engine consumes :class:`LineVisit` tuples: one per contiguous
stretch of execution within a single instruction-cache line.  The lowering
in :func:`iter_line_visits` merges consecutive block events that stay in the
same line (so the engine performs one tag lookup per line *visit*, not per
basic block) and splits block visits that span line boundaries into one
visit per line, marking the continuation lines as sequential transitions.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.isa.kinds import TransitionKind
from repro.trace.record import INSTRUCTION_SIZE, BlockEvent

_SEQUENTIAL = int(TransitionKind.SEQUENTIAL)


class LineVisit(NamedTuple):
    """One contiguous stretch of execution within a single cache line.

    Attributes:
        line: cache-line index (byte address >> line_shift).
        kind: :class:`~repro.isa.TransitionKind` (as int) of the transition
            that brought the fetch stream into this line.
        ninstr: instructions executed during the visit.
        data: byte addresses of data accesses attributed to this visit.
    """

    line: int
    kind: int
    ninstr: int
    data: Tuple[int, ...]


class Trace:
    """An in-memory instruction/data trace plus its provenance metadata.

    Instances are cheap views over a list of :class:`BlockEvent`; they are
    immutable by convention (the event list must not be mutated after
    construction).
    """

    __slots__ = ("name", "seed", "events", "_total_instructions")

    def __init__(self, name: str, seed: int, events: Sequence[BlockEvent]) -> None:
        self.name = name
        self.seed = seed
        self.events: Sequence[BlockEvent] = events
        self._total_instructions: Optional[int] = None

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[BlockEvent]:
        return iter(self.events)

    @property
    def total_instructions(self) -> int:
        """Total instructions executed across all events (cached)."""
        if self._total_instructions is None:
            self._total_instructions = sum(event[1] for event in self.events)
        return self._total_instructions

    def head(self, max_instructions: int) -> "Trace":
        """Return a prefix of this trace containing ~``max_instructions``.

        The cut happens at an event boundary, so the returned trace may hold
        slightly fewer instructions than requested (never more than one
        block's worth fewer).
        """
        if max_instructions <= 0:
            raise ValueError(f"max_instructions must be positive, got {max_instructions}")
        kept: List[BlockEvent] = []
        running = 0
        for event in self.events:
            if running + event[1] > max_instructions and kept:
                break
            kept.append(event)
            running += event[1]
            if running >= max_instructions:
                break
        return Trace(self.name, self.seed, kept)

    def rebased(self, offset: int) -> "Trace":
        """Return a copy with all instruction/data addresses shifted by *offset*.

        Used by the mixed-workload composition to give each program a
        disjoint address region.
        """
        shifted = [
            BlockEvent(event[0] + offset, event[1], event[2], tuple(a + offset for a in event[3]))
            for event in self.events
        ]
        return Trace(self.name, self.seed, shifted)


def check_line_size(line_size: int) -> None:
    """Raise ``ValueError`` unless *line_size* is a power of two of at
    least one instruction."""
    if line_size <= 0 or (line_size & (line_size - 1)) != 0:
        raise ValueError(f"line_size must be a power of two, got {line_size}")
    if line_size < INSTRUCTION_SIZE:
        raise ValueError(f"line_size must be >= instruction size, got {line_size}")


def iter_line_visits(
    events: Iterable[BlockEvent],
    line_size: int,
) -> Iterator[LineVisit]:
    """Lower block events to per-cache-line visits for *line_size* bytes.

    Rules:

    - Consecutive events within the same line are merged into one visit
      (their data accesses are concatenated).
    - A block visit spanning multiple lines produces one visit per line;
      the first carries the block's entry transition kind, the remainder are
      ``SEQUENTIAL``.  Data accesses are attributed to the first line of the
      block (attribution granularity does not affect any measured statistic,
      since data accesses are timed against the data caches only).
    - A block entering a line that is exactly ``previous + 1`` keeps its
      declared transition kind: the paper attributes such misses to the
      responsible instruction (e.g. a not-taken branch falling through into
      a new line is a "Cond branch (nt)" miss, not a sequential one).
    """
    check_line_size(line_size)

    shift = line_size.bit_length() - 1
    instr_per_line = line_size // INSTRUCTION_SIZE
    instr_shift = INSTRUCTION_SIZE.bit_length() - 1

    current_line = -1
    current_kind = _SEQUENTIAL
    current_ninstr = 0
    # The open visit's data stays the original event tuple until a second
    # event merges into it; only then is it promoted to a list accumulator
    # (appending per merge, not re-copying the whole tuple per event, which
    # was quadratic for data-heavy same-line runs) and tuple-ized on yield.
    current_data: Sequence[int] = ()
    merging = False

    for addr, ninstr, kind, data in events:
        line = addr >> shift
        offset_instr = (addr >> instr_shift) % instr_per_line
        take = min(ninstr, instr_per_line - offset_instr)
        if line == current_line:
            # Same line: merge into the open visit.
            current_ninstr += take
            if data:
                if not current_data:
                    current_data = data
                elif merging:
                    current_data.extend(data)
                else:
                    current_data = list(current_data)
                    current_data.extend(data)
                    merging = True
        else:
            if current_line >= 0:
                yield LineVisit(
                    current_line,
                    current_kind,
                    current_ninstr,
                    tuple(current_data) if merging else current_data,
                )
            current_line = line
            current_kind = kind
            current_ninstr = take
            current_data = data
            merging = False
        # Spill continuation lines for blocks crossing line boundaries.
        remaining = ninstr - take
        while remaining > 0:
            yield LineVisit(
                current_line,
                current_kind,
                current_ninstr,
                tuple(current_data) if merging else current_data,
            )
            current_line += 1
            current_kind = _SEQUENTIAL
            current_ninstr = min(remaining, instr_per_line)
            current_data = ()
            merging = False
            remaining -= current_ninstr

    if current_line >= 0:
        yield LineVisit(
            current_line,
            current_kind,
            current_ninstr,
            tuple(current_data) if merging else current_data,
        )
