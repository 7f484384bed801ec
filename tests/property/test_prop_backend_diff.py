"""Differential fuzzer: the ``jit`` engine backend against ``reference``.

Hypothesis draws whole systems and short random traces for them, runs
each draw through :class:`~repro.cmp.system.System` on the ``reference``
backend and on ``jit``, and asserts that the two runs leave the same
things behind:

- every core's full :class:`~repro.core.metrics.CoreStats` (miss-class
  breakdowns and prefetch counters included), its prefetch queue's
  counters and its prefetcher's own counters;
- the off-chip link and ``aggregate_ipc``;
- every cache's statistics and resident lines in LRU order, each
  :class:`~repro.caches.line.LineState` field compared with ``==``.  A
  cache left by a kernel run decodes ``arrival`` as a double, so ``repr``
  would tell ``0`` from ``0.0`` where the values agree.

The draw space covers 1–4 cores, L1I/L1D/L2 geometry at line sizes
16–128, LRU/FIFO/PLRU/random replacement, the normal and bypass L2
install policies, an inclusive L2, warm-up windows, prefetch-queue and
recent-set depths on both sides of the engine's 8-per-visit issue cap,
and every registered prefetcher with random constructor overrides.  The
traces are ``BlockEvent`` lists or PC streams collapsed by
:func:`repro.trace.ingest.events_from_pcs`.  The draws are shaped so that
a divergence has somewhere to show: code and data footprints of a few
dozen lines, so that lines are revisited and evicted; queues and recent
sets of 1-40 entries, past both the issue cap and the catalog's 32;
prefetch degrees past the cap; and an off-chip link slow enough to
queue.

``kernel_fallback_reason()`` splits the draws into configurations the
kernel claims and those it steps on reference.  A jit core whose
configuration the kernel claims must have executed in the kernel;
otherwise the comparison would pass without testing the kernel.

Replaying a failure: Hypothesis shrinks the failing draw and prints it
(the config and every core's events) together with a
``@reproduce_failure(...)`` line; pasting that decorator above the test
replays the draw exactly, also from a CI log.  Locally the failure is
saved in the ``.hypothesis`` database and replayed first on the next
run.  ``--hypothesis-seed=N`` makes a whole run's draws repeatable.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import event, example, given, settings, strategies as st

from repro.caches.config import CacheConfig, HierarchyConfig
from repro.cmp.system import System, SystemConfig
from repro.core import jitted
from repro.eval.diskcache import _core_to_dict, _link_to_dict
from repro.isa.classify import MissClass
from repro.isa.kinds import TransitionKind
from repro.prefetch import markov
from repro.prefetch.registry import PREFETCHER_NAMES
from repro.timing.params import TimingParams
from repro.trace.ingest import events_from_pcs
from repro.trace.record import INSTRUCTION_SIZE, BlockEvent
from repro.trace.stream import Trace

pytestmark = pytest.mark.skipif(
    not jitted.jit_available(), reason="no C compiler: jit kernel unbuildable"
)

#: the fixed Tier-1 budget; every CI run draws fresh examples.
MAX_EXAMPLES = 600

LINE_SIZES = (16, 32, 64, 128)

POLICIES = ("lru", "fifo", "plru", "random")

#: code and data footprints, in lines: small enough that lines are
#: revisited, large enough to overflow the small caches drawn below.
CODE_LINES = 48
DATA_LINES = 24

#: code and data region bases (byte addresses); cores share the code
#: region unless they draw a private offset.
CODE_BASE = 0x10000
DATA_BASE = 0x100000

SEQUENTIAL = int(TransitionKind.SEQUENTIAL)
JUMP = int(TransitionKind.COND_TAKEN_FWD)
TAKEN_KINDS = [int(kind) for kind in TransitionKind if kind is not TransitionKind.SEQUENTIAL]


def _pow2(low: int, high: int) -> st.SearchStrategy[int]:
    return st.sampled_from([1 << k for k in range(low, high + 1)])


#: per prefetcher, ``(required, optional)`` constructor overrides among
#: those its registry factory forwards.  Table sizes are always drawn
#: small, so that short traces reach replacement and conflict paths.
#: Names absent here take no overrides.
_DISCONTINUITY = (
    {"table_entries": _pow2(0, 5)},
    {"prefetch_ahead": st.integers(1, 12), "counter_max": st.integers(0, 3)},
)
_BRANCH = {"btb_entries": _pow2(0, 6), "gshare_entries": _pow2(0, 8)}
_BRANCH_OPTIONAL = {
    "lookahead": st.integers(1, 16),
    "ras_entries": st.integers(1, 4),
    "history_bits": st.integers(0, 6),
}
OVERRIDES = {
    "next-4-line": ({}, {"degree": st.integers(1, 16)}),
    "lookahead-4": ({}, {"distance": st.integers(1, 16)}),
    "target": ({"table_entries": st.integers(1, 64)}, {}),
    "discontinuity": _DISCONTINUITY,
    "discontinuity-2nl": (_DISCONTINUITY[0], {"counter_max": st.integers(0, 3)}),
    "discontinuity-noprobeahead": _DISCONTINUITY,
    "markov": (
        {"table_entries": st.integers(1, 64)},
        {
            "targets_per_entry": st.integers(1, 4),
            "fanout": st.integers(1, 4),
            "prefetch_ahead": st.integers(1, 12),
        },
    ),
    "fdp": (_BRANCH, _BRANCH_OPTIONAL),
    "mana": (
        {"table_entries": _pow2(2, 6)},
        {
            "assoc": _pow2(0, 2),
            "region_lines": _pow2(0, 4),
            "replay_depth": st.integers(1, 6),
        },
    ),
    "shadow": (
        dict(_BRANCH, shadow_entries=_pow2(2, 5)),
        {
            **_BRANCH_OPTIONAL,
            "ftq_entries": st.integers(1, 16),
            "shadow_assoc": _pow2(0, 2),
            "shadow_degree": st.integers(1, 8),
        },
    ),
}

#: every registered name, with the stateful kernel families (whose
#: divergences need the longest histories to show) drawn more often:
#: discontinuity, fdp and shadow three times, target, markov and mana
#: twice.
PREFETCHERS = (
    PREFETCHER_NAMES + ["discontinuity", "fdp", "shadow"] * 2 + ["target", "markov", "mana"]
)


@st.composite
def cache_configs(draw, line_size: int, max_sets: int, max_assoc: int, policy: str):
    sets = draw(_pow2(0, max_sets.bit_length() - 1))
    if policy == "plru":
        assoc = draw(_pow2(0, max_assoc.bit_length() - 1))
    else:
        assoc = draw(st.integers(1, max_assoc))
    return CacheConfig(sets * assoc * line_size, assoc, line_size)


@st.composite
def system_configs(draw) -> SystemConfig:
    line_size = draw(st.sampled_from(LINE_SIZES))
    # All-LRU (which the kernel claims) at least two draws in three.
    if draw(st.sampled_from([True, True, False])):
        l1_policy = l2_policy = "lru"
    else:
        l1_policy = draw(st.sampled_from(POLICIES))
        l2_policy = draw(st.sampled_from(POLICIES))
    hierarchy = HierarchyConfig(
        l1i=draw(cache_configs(line_size, 16, 4, l1_policy)),
        l1d=draw(cache_configs(line_size, 8, 4, l1_policy)),
        l2=draw(cache_configs(line_size, 32, 8, l2_policy)),
    )
    timing = TimingParams(
        l2_latency=draw(st.sampled_from([4, 25])),
        memory_latency=draw(st.sampled_from([40, 400])),
        prefetch_slot_rate=draw(st.sampled_from([0.25, 0.5, 2.0])),
        prefetch_mshr_capacity=draw(st.integers(1, 16)),
    )
    prefetcher = draw(st.sampled_from(PREFETCHERS))
    required, optional = OVERRIDES.get(prefetcher, ({}, {}))
    overrides = draw(st.fixed_dictionaries(required, optional=optional))
    return SystemConfig(
        n_cores=draw(st.integers(1, 4)),
        hierarchy=hierarchy,
        timing=timing,
        offchip_gbps=draw(st.sampled_from([None, 0.5, 4.0])),
        prefetcher=prefetcher,
        prefetcher_overrides=overrides,
        l2_policy=draw(st.sampled_from(["normal", "bypass"])),
        queue_capacity=draw(st.integers(1, 40)),
        queue_recent_capacity=draw(st.integers(1, 40)),
        queue_lifo=draw(st.booleans()),
        queue_filtering=draw(st.booleans()),
        warm_instructions=draw(st.one_of(st.just(0), st.integers(1, 600))),
        free_miss_classes=draw(st.frozensets(st.sampled_from(list(MissClass)))),
        useless_hint_filter=draw(st.booleans()),
        l2_inclusive=draw(st.sampled_from([False, False, False, True])),
        l1_replacement=l1_policy,
        l2_replacement=l2_policy,
    )


#: bytes of a trace draw per block event and per PC-stream segment.
EVENT_BYTES = 6
SEGMENT_BYTES = 3

@st.composite
def block_events(draw, line_size: int, code_base: int) -> list:
    """A ``BlockEvent`` list: sequential runs and taken jumps among a few
    block entry points, with data accesses into a small region.

    The events are decoded from one byte string, a cheap draw that
    shrinks towards fewer, shorter, sequential, data-free events, played
    up to three times over: a loop repeats its transitions, so table
    counters (Markov successor counts, confidence) climb.
    """
    code_instr = CODE_LINES * line_size // INSTRUCTION_SIZE
    max_ninstr = 2 * line_size // INSTRUCTION_SIZE
    data_bytes = DATA_LINES * line_size
    spots = draw(st.lists(st.integers(0, code_instr - 1), min_size=1, max_size=12))
    raw = draw(st.binary(min_size=16 * EVENT_BYTES, max_size=160 * EVENT_BYTES))
    raw *= draw(st.integers(1, 3))
    events = []
    addr = code_base + spots[0] * INSTRUCTION_SIZE
    for at in range(0, len(raw) - EVENT_BYTES + 1, EVENT_BYTES):
        jump, ninstr, kind, d0, d1, stride = raw[at : at + EVENT_BYTES]
        if jump >= 128 and events:
            addr = code_base + spots[jump % len(spots)] * INSTRUCTION_SIZE
            kind = TAKEN_KINDS[kind % len(TAKEN_KINDS)]
        else:
            kind = SEQUENTIAL
        first = (d0 << 8 | d1) % data_bytes
        data = tuple(
            DATA_BASE + (first + k * stride * 8) % data_bytes for k in range(ninstr % 3)
        )
        ninstr = 1 + ninstr % max_ninstr
        events.append(BlockEvent(addr, ninstr, kind, data))
        addr += ninstr * INSTRUCTION_SIZE
    return events


@st.composite
def pc_stream_events(draw, line_size: int, code_base: int) -> list:
    """A PC stream of straight-line segments between random entry points,
    classified into events by the external-trace ingester."""
    code_instr = CODE_LINES * line_size // INSTRUCTION_SIZE
    raw = draw(st.binary(min_size=8 * SEGMENT_BYTES, max_size=60 * SEGMENT_BYTES))
    pcs = []
    for at in range(0, len(raw) - SEGMENT_BYTES + 1, SEGMENT_BYTES):
        high, low, length = raw[at : at + SEGMENT_BYTES]
        start = code_base + (high << 8 | low) % code_instr * INSTRUCTION_SIZE
        pcs.extend(start + k * INSTRUCTION_SIZE for k in range(1 + length % 40))
    return events_from_pcs(pcs)


@st.composite
def systems(draw):
    """``(config, events)``: one drawn system and an event list per core."""
    config = draw(system_configs())
    line_size = config.hierarchy.line_size
    per_core = []
    for _ in range(config.n_cores):
        code_base = CODE_BASE + draw(st.sampled_from([0, 0, CODE_LINES // 2])) * line_size
        per_core.append(
            draw(
                st.one_of(
                    block_events(line_size, code_base),
                    pc_stream_events(line_size, code_base),
                )
            )
        )
    return config, per_core


def _resident(cache) -> list:
    return [
        (line, [getattr(state, name) for name in state.__slots__])
        for line, state in cache.resident_lines()
    ]


def _prefetcher_state(prefetcher) -> dict:
    state = {}
    table = getattr(prefetcher, "table", None)
    if table is not None and hasattr(table, "stats"):
        state["table"] = vars(table.stats).copy()
    if hasattr(prefetcher, "shadow_discoveries"):
        state["shadow_discoveries"] = prefetcher.shadow_discoveries
    return state


def _outcome(system: System, result) -> dict:
    """Everything one run leaves behind, as plain comparable data."""
    caches = [system.l2]
    for engine in system.engines:
        caches.extend((engine.l1i, engine.l1d))
    return {
        "cores": [_core_to_dict(core) for core in result.cores],
        "queues": [vars(engine.queue.stats).copy() for engine in system.engines],
        "prefetchers": [_prefetcher_state(engine.prefetcher) for engine in system.engines],
        "link": _link_to_dict(system.link),
        "aggregate_ipc": result.aggregate_ipc,
        "cache_stats": {cache.name: vars(cache.stats).copy() for cache in caches},
        "contents": {cache.name: _resident(cache) for cache in caches},
    }


#: A pinned draw the random ones rarely reach: a Markov successor count that
#: passes 2 and then decays.  The one-line L1I makes every line change a
#: miss, so the loop 3 → 18 → 3 observes successor 18 of line 3 three
#: times; the loop 3 → 2 then halves that count (3 → 1 → 0) until 2
#: replaces it.  Decay by one instead of halving (3 → 2 → 1) keeps 18 one
#: observation longer, which changes the prefetches issued.
MARKOV_DECAY_LINES = [3, 18] * 3 + [3, 2] * 3
MARKOV_DECAY = (
    SystemConfig(
        n_cores=1,
        hierarchy=HierarchyConfig(
            l1i=CacheConfig(64, 1, 64), l1d=CacheConfig(128, 1, 64), l2=CacheConfig(4096, 4, 64)
        ),
        prefetcher="markov",
        prefetcher_overrides={
            "table_entries": 8,
            "targets_per_entry": 1,
            "fanout": 1,
            "prefetch_ahead": 1,
        },
        l2_policy="bypass",
    ),
    [
        [
            BlockEvent(CODE_BASE + line * 64, 4, JUMP if at else SEQUENTIAL, ())
            for at, line in enumerate(MARKOV_DECAY_LINES)
        ]
    ],
)


def _run(config: SystemConfig, traces: list, backend: str):
    system = System(replace(config, engine_backend=backend), traces)
    return system, system.run()


@settings(max_examples=MAX_EXAMPLES, deadline=None, print_blob=True)
@given(systems())
@example(MARKOV_DECAY)
def test_jit_matches_reference(drawn) -> None:
    config, per_core = drawn
    traces = [Trace(f"fuzz{core}", core, events) for core, events in enumerate(per_core)]
    reference_system, reference = _run(config, traces, "reference")
    jit_system, jit = _run(config, traces, "jit")

    claimed = [
        engine.kernel_fallback_reason() is None for engine in jit_system.engines
    ]
    executed = [bool(engine._twin_ok) for engine in jit_system.engines]
    assert executed == claimed, [engine.fallback_reason for engine in jit_system.engines]
    event("ran in the kernel" if all(executed) else "stepped on reference")

    expected = _outcome(reference_system, reference)
    actual = _outcome(jit_system, jit)
    for key, value in expected.items():
        assert actual[key] == value, key


def test_markov_decay_example_decays_a_count_past_two(monkeypatch) -> None:
    """The pinned draw does what its comment says on the reference backend."""
    decayed = []
    observe = markov._Entry.observe

    def spy(entry, target, max_targets):
        if len(entry.successors) == max_targets and target not in entry.top(max_targets):
            decayed.append(entry.successors[-1][1])
        observe(entry, target, max_targets)

    monkeypatch.setattr(markov._Entry, "observe", spy)
    config, per_core = MARKOV_DECAY
    _run(config, [Trace("decay", 0, per_core[0])], "reference")
    assert decayed == [3, 1]
