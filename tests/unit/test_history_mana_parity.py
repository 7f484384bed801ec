"""Jit/reference parity of the history families (``target``, ``markov``)
and ``mana`` at their corners.

The kernel's ``history.c`` replicates the OrderedDict both history tables
are (lookup, ``move_to_end``, MRU insert, ``popitem(last=False)``) and the
Markov successor lists with their decay; ``mana.c`` replicates the MANA
record table, its SAB recorder, successor chaining, replay and credit.
End-to-end runs compare everything a run leaves behind at table sizes
that force evictions; a hook-level differential drives each family's
``PfOps`` table and the Python classes with the same random event streams
on tiny tables, bound fresh, and compares the candidates after every fetch
and the table contents, in recency order, at the end.
"""

from __future__ import annotations

import ctypes
import random

import pytest

from repro.core import jitted
from repro.isa.kinds import TransitionKind
from repro.prefetch.registry import create_prefetcher
from tests.unit.test_branch_family_parity import _assert_ran_in_kernel, _build, _state

pytestmark = pytest.mark.skipif(
    not jitted.jit_available(), reason="no C compiler: jit kernel unbuildable"
)

#: (prefetcher, overrides): one corner of each family.
CORNERS = [
    ("target", {"table_entries": 1}),
    ("target", {"table_entries": 64}),
    ("markov", {"table_entries": 16, "targets_per_entry": 1}),
    ("markov", {"table_entries": 64, "targets_per_entry": 4, "fanout": 3}),
    ("mana", {"table_entries": 16, "assoc": 1}),
    ("mana", {"table_entries": 64, "region_lines": 64, "replay_depth": 6}),
]


def _table_state(prefetcher) -> object:
    table = getattr(prefetcher, "table", None)
    return vars(table.stats).copy() if table is not None else None


@pytest.mark.parametrize("n_cores", [1, 4])
@pytest.mark.parametrize("workload", ["db", "interp"])
@pytest.mark.parametrize(
    ("prefetcher", "overrides"),
    CORNERS,
    ids=[f"{name}-{'-'.join(f'{k}={v}' for k, v in o.items())}" for name, o in CORNERS],
)
def test_corner_parity(prefetcher, overrides, workload, n_cores) -> None:
    reference = _build(workload, n_cores, prefetcher, overrides, "reference")
    reference.run()
    jit = _build(workload, n_cores, prefetcher, overrides, "jit")
    jit.run()
    _assert_ran_in_kernel(jit)
    assert _state(jit) == _state(reference)
    assert [_table_state(engine.prefetcher) for engine in jit.engines] == [
        _table_state(engine.prefetcher) for engine in reference.engines
    ]


@pytest.mark.parametrize("prefetcher", ["target", "markov", "mana"])
def test_step_to_completion_parity(prefetcher) -> None:
    """Stepping jit engines one visit per call, in System.run's
    smallest-clock order, ends exactly where the reference run ends."""
    reference = _build("db", 2, prefetcher, {}, "reference")
    reference.run()
    jit = _build("db", 2, prefetcher, {}, "jit")
    active = list(jit.engines)
    while active:
        earliest = min(active, key=lambda engine: engine.cycle)
        if not earliest.step():
            active.remove(earliest)
    _assert_ran_in_kernel(jit)
    assert _state(jit) == _state(reference)


def test_wide_mana_regions_step_on_reference() -> None:
    system = _build("db", 1, "mana", {"region_lines": 128}, "jit")
    reason = system.engines[0].kernel_fallback_reason()
    assert reason is not None and "region_lines 128" in reason


# --------------------------------------------------------------------- #
# Hook-level differential
# --------------------------------------------------------------------- #

#: tiny tables, so a short random stream evicts, decays and chains.
HOOK_CONFIGS = [
    ("target", dict(table_entries=3)),
    ("target", dict(table_entries=8)),
    ("markov", dict(table_entries=4, targets_per_entry=2, fanout=2, prefetch_ahead=3)),
    ("markov", dict(table_entries=6, targets_per_entry=3, fanout=1, prefetch_ahead=2)),
    ("markov", dict(table_entries=32, targets_per_entry=2, fanout=2, prefetch_ahead=2)),
    ("mana", dict(table_entries=4, assoc=2, region_lines=4, replay_depth=3)),
    ("mana", dict(table_entries=8, assoc=4, region_lines=2, replay_depth=5)),
]


def _hist_nodes(cmap) -> list:
    """The C map's nodes, LRU first (its recency list)."""
    nodes, node = [], cmap.head
    while node >= 0:
        nodes.append(node)
        node = cmap.next[node]
    return nodes


def _c_table(prefetcher, state) -> list:
    if isinstance(state, jitted.STRUCTS["CTarget"]):
        return [(state.map.keys[node], state.targets[node]) for node in _hist_nodes(state.map)]
    if isinstance(state, jitted.STRUCTS["CMarkov"]):
        width = state.targets_per_entry
        return [
            (
                state.map.keys[node],
                [
                    (pair.target, pair.count)
                    for pair in state.succ[node * width : node * width + state.succ_n[node]]
                ],
            )
            for node in _hist_nodes(state.map)
        ]
    assoc = state.assoc
    return [
        [
            (way.trigger, way.footprint, way.successor, way.confidence)
            for way in state.ways[si * assoc : si * assoc + state.counts[si]]
        ]
        for si in range(state.set_mask + 1)
    ] + [(state.rec_region, state.rec_trigger, state.rec_footprint, state.prev_trigger)]


def _py_table(prefetcher) -> list:
    if prefetcher.name == "target":
        return list(prefetcher._table.items())
    table = prefetcher.table
    if hasattr(table, "entry_successors"):
        return [(line, table.entry_successors(line)) for line in table._table]
    return [
        [(rec.trigger, rec.footprint, rec.successor, rec.confidence) for rec in ways]
        for ways in table._sets
    ] + [
        (
            prefetcher._rec_region,
            prefetcher._rec_trigger,
            prefetcher._rec_footprint,
            prefetcher._prev_trigger,
        )
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    ("prefetcher", "overrides"),
    HOOK_CONFIGS,
    ids=[f"{name}-{index}" for index, (name, _) in enumerate(HOOK_CONFIGS)],
)
def test_hooks_match_the_classes(prefetcher, overrides, seed) -> None:
    """Random fetch/discontinuity/credit streams through the C hooks and
    through the Python classes give the same candidates after every fetch
    and the same tables, in recency order, at the end."""
    reference = create_prefetcher(prefetcher, **overrides)
    twin = create_prefetcher(prefetcher, **overrides)
    family = jitted._PF_MODES[type(twin)]
    keep: list = []
    state = family.bind(twin, keep)
    ops = jitted.STRUCTS["PfOps"].in_dll(family.library(), family.ops)
    cand = (jitted.STRUCTS["CCand"] * family.candidates(twin))()
    address = ctypes.addressof(state)
    rng = random.Random(seed)
    recent = [0]
    for _ in range(3_000):
        line = rng.randrange(24)
        event = rng.random()
        if event < 0.3:
            # Two frequent targets and a rare third per source: successor
            # counts climb past 2, so the Markov decay halves real counts.
            source, caused_miss = rng.randrange(24), rng.random() < 0.7
            line = (source + rng.choice((1, 1, 5, 5, 9))) % 24
            reference.on_discontinuity(source, line, caused_miss)
            if ops.discontinuity:
                ops.discontinuity(address, source, line, caused_miss)
        elif event < 0.4:
            if ops.credit:  # mana's; the history families credit nothing
                provenance = ("mana", rng.choice(recent))
                reference.credit(provenance)
                ops.credit(address, *jitted._encode_prov(provenance))
        else:
            was_miss, first_use = rng.random() < 0.5, rng.random() < 0.3
            kind = rng.randrange(len(TransitionKind))
            expected = [
                (candidate.line, candidate.provenance)
                for candidate in reference.on_demand_fetch(line, was_miss, first_use, kind)
            ]
            n = ops.demand(address, line, was_miss, first_use, kind, cand)
            got = [
                (c.line, jitted._decode_prov(c.prov_kind, c.prov_index, c.prov_line))
                for c in cand[:n]
            ]
            assert got == expected
            recent = [p[1] for _, p in expected if p[0] != "seq"] or recent
    assert _c_table(twin, state) == _py_table(reference)
    family.sync_out(twin, state)
    assert _table_state(twin) == _table_state(reference)
