"""Trace infrastructure.

Traces are sequences of *block-visit events* — each event records that the
fetch stream entered a basic block at a byte address, executed ``ninstr``
instructions there, and how it arrived (a :class:`~repro.isa.TransitionKind`).
Data accesses performed while in the block are attached as byte addresses.

Keeping traces at block granularity (instead of per-line) makes them
**line-size agnostic**: the same trace replays correctly for the 32B–256B
line-size sweep of the paper's Figure 1.  :func:`iter_line_visits` lowers a
block-event stream to cache-line visits for a concrete line size.

The synthetic commercial-workload generators live in
:mod:`repro.trace.synth`.  :mod:`repro.trace.compiled` packs a lowered
visit stream into flat columns (the engine's allocation-free fast path and
the unit the on-disk trace store of :mod:`repro.trace.store` persists).
"""

from repro.trace.analysis import StreamAnalysis, analyze_stream
from repro.trace.compiled import (
    CompiledTrace,
    CompiledTraceError,
    TraceLike,
    compile_traces,
)
from repro.trace.io import TraceFormatError, read_trace, write_trace
from repro.trace.record import INSTRUCTION_SIZE, BlockEvent
from repro.trace.stats import TraceStats, compute_trace_stats
from repro.trace.stream import LineVisit, Trace, iter_line_visits

__all__ = [
    "BlockEvent",
    "INSTRUCTION_SIZE",
    "Trace",
    "LineVisit",
    "iter_line_visits",
    "CompiledTrace",
    "CompiledTraceError",
    "TraceLike",
    "compile_traces",
    "TraceStats",
    "compute_trace_stats",
    "read_trace",
    "write_trace",
    "TraceFormatError",
    "StreamAnalysis",
    "analyze_stream",
]
