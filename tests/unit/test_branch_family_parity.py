"""Jit/reference parity of the branch family (``fdp`` and ``shadow``) at
its corners.

The kernel's ``branch.c`` replicates gshare, the tagless BTB, the return
address stack, the fdp run-ahead walk and the shadow prefetcher's FTQ and
shadow target buffer.  The parity sweep runs them at their catalog
parameters; this module drives each piece to its edge — a one-frame RAS
that overflows on every call, a one-entry FTQ, a direct-mapped STB, a
wide shadow degree, a history-less gshare and a one-entry BTB — on three
workloads at 1 and 4 cores, and steps each family to completion one
visit at a time; a hook-level differential drives the unit's ``PfOps``
table and the Python classes with the same random event streams on tiny
tables, where the RAS overflows and pops during run-ahead and the STB
evicts (end-to-end runs barely reach the run-ahead RAS pop).  Every
end-to-end comparison covers all core stats, the link, the
shadow prefetcher's ``shadow_discoveries``, queue and cache statistics
and the post-run contents of every cache, and every jit core must have
run in the kernel.
"""

from __future__ import annotations

import ctypes
import random

import pytest

from repro.cmp.system import System, SystemConfig
from repro.core import jitted
from repro.eval.diskcache import _core_to_dict, _link_to_dict
from repro.eval.profiles import ExperimentScale
from repro.eval.runner import get_compiled_traces, trace_budget
from repro.isa.kinds import TransitionKind
from tests.unit.test_engine_jit import JIT_PREFETCHERS, _caches, _contents

pytestmark = pytest.mark.skipif(
    not jitted.jit_available(), reason="no C compiler: jit kernel unbuildable"
)

#: short windows: the corners show within a few thousand visits per core.
SCALE = ExperimentScale(
    name="corner",
    warm_instructions=20_000,
    measure_instructions=60_000,
    cmp_measure_instructions=20_000,
)

#: (prefetcher, overrides): one corner of the branch family each.
CORNERS = [
    ("fdp", {"ras_entries": 1}),
    ("fdp", {"history_bits": 0, "btb_entries": 1}),
    ("shadow", {"ras_entries": 1}),
    ("shadow", {"ftq_entries": 1, "lookahead": 8}),
    ("shadow", {"shadow_assoc": 1, "shadow_degree": 3}),
    ("shadow", {"history_bits": 0, "btb_entries": 1}),
]


def _build(workload, n_cores, prefetcher, overrides, backend) -> System:
    total, warm = trace_budget(SCALE, n_cores)
    config = SystemConfig(
        n_cores=n_cores,
        prefetcher=prefetcher,
        prefetcher_overrides=dict(overrides),
        l2_policy="bypass",
        warm_instructions=warm,
        engine_backend=backend,
    )
    return System(config, get_compiled_traces(workload, n_cores, total))


def _state(system: System) -> list:
    """Everything a run leaves behind, floats by repr."""
    cores = [
        repr(
            (
                _core_to_dict(engine.stats),
                vars(engine.queue.stats),
                getattr(engine.prefetcher, "shadow_discoveries", None),
                engine.cycle,
            )
        )
        for engine in system.engines
    ]
    caches = [repr(vars(cache.stats)) for cache in _caches(system)]
    return cores + caches + [repr(_link_to_dict(system.link)), repr(_contents(system))]


def _assert_ran_in_kernel(system: System) -> None:
    reasons = [engine.fallback_reason for engine in system.engines]
    assert all(engine._twin_ok for engine in system.engines), reasons


@pytest.mark.parametrize("n_cores", [1, 4])
@pytest.mark.parametrize("workload", ["db", "interp", "microsvc"])
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


@pytest.mark.parametrize("n_cores", [1, 4])
@pytest.mark.parametrize("prefetcher", ["fdp", "shadow"])
def test_step_to_completion_parity(prefetcher, n_cores) -> None:
    """Stepping jit engines one visit per call, in System.run's
    smallest-clock order, ends exactly where the reference run ends."""
    reference = _build("db", n_cores, prefetcher, {}, "reference")
    reference.run()
    jit = _build("db", n_cores, prefetcher, {}, "jit")
    active = list(jit.engines)
    while active:
        earliest = active[0]
        for engine in active[1:]:
            if engine.cycle < earliest.cycle:
                earliest = engine
        if not earliest.step():
            active.remove(earliest)
    _assert_ran_in_kernel(jit)
    assert all(engine.finished for engine in jit.engines)
    assert _state(jit) == _state(reference)


def test_post_run_contents_cover_the_branch_family() -> None:
    """``test_engine_jit.test_post_run_contents_match_reference`` takes its
    families from ``jitted._PF_MODES``; fdp and shadow are among them."""
    assert {"fdp", "shadow"} <= set(JIT_PREFETCHERS)


# --------------------------------------------------------------------- #
# Hook-level differential: the branch unit's PfOps against the classes
# --------------------------------------------------------------------- #


#: tiny tables, so a short random stream aliases the BTB, fills and
#: overflows the RAS, and evicts from the STB's sets.
HOOK_CONFIGS = [
    ("fdp", dict(btb_entries=4, gshare_entries=16, ras_entries=2, lookahead=6, history_bits=2)),
    ("fdp", dict(btb_entries=1, gshare_entries=4, ras_entries=1, lookahead=8, history_bits=0)),
    (
        "shadow",
        dict(
            btb_entries=4, gshare_entries=16, ras_entries=2, lookahead=6,
            history_bits=2, ftq_entries=3, shadow_entries=8, shadow_assoc=2,
            shadow_degree=2,
        ),
    ),
    (
        "shadow",
        dict(
            btb_entries=2, gshare_entries=8, ras_entries=1, lookahead=8,
            history_bits=1, ftq_entries=8, shadow_entries=4, shadow_assoc=4,
            shadow_degree=3,
        ),
    ),
]


def _c_state(prefetcher, state) -> tuple:
    """The C state of a branch-family prefetcher, as Python values."""
    branch = getattr(state, "b", state)
    gshare, btb, ras = prefetcher.gshare, prefetcher.btb, prefetcher.ras
    out = (
        [branch.pht[k] for k in range(gshare.entries)],
        branch.history,
        [branch.btb[k] for k in range(btb.entries)],
        [branch.ras[k] for k in range(branch.ras_n)],
        branch.prev_line,
    )
    if hasattr(prefetcher, "stb"):
        stb = prefetcher.stb
        sets = []
        for si in range(stb._set_mask + 1):
            ways = [state.stb[si * stb.assoc + k] for k in range(state.stb_counts[si])]
            sets.append([(way.line, way.target, way.confidence) for way in ways])
        out += (sets, state.discoveries)
    return out


def _py_state(prefetcher) -> tuple:
    out = (
        list(prefetcher.gshare._pht),
        prefetcher.gshare._history,
        list(prefetcher.btb._targets),
        list(prefetcher.ras._stack),
        prefetcher._prev_line,
    )
    if hasattr(prefetcher, "stb"):
        sets = [
            [(way.line, way.target, way.confidence) for way in ways]
            for ways in prefetcher.stb._sets
        ]
        out += (sets, prefetcher.shadow_discoveries)
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    ("prefetcher", "overrides"),
    HOOK_CONFIGS,
    ids=[f"{name}-{index}" for index, (name, _) in enumerate(HOOK_CONFIGS)],
)
def test_branch_hooks_match_the_classes(prefetcher, overrides, seed) -> None:
    """Random fetch/discontinuity/credit streams through the C hooks and
    through the Python classes give the same candidates after every fetch
    and the same predictor state at the end."""
    from repro.prefetch.registry import create_prefetcher

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
        kind = rng.randrange(len(TransitionKind))
        event = rng.random()
        if event < 0.2:
            source, caused_miss = rng.randrange(24), rng.random() < 0.5
            reference.on_discontinuity(source, line, caused_miss)
            if ops.discontinuity:
                ops.discontinuity(address, source, line, caused_miss)
        elif event < 0.3:
            provenance = ("shadow", rng.choice(recent)) if rng.random() < 0.8 else ("fdp",)
            reference.credit(provenance)
            if ops.credit:
                ops.credit(address, *jitted._encode_prov(provenance))
        else:
            was_miss, first_use = rng.random() < 0.5, rng.random() < 0.3
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
            recent = [line for line, _ in expected] or recent
    assert _c_state(twin, state) == _py_state(reference)
    family.sync_out(twin, state)
    assert getattr(twin, "shadow_discoveries", None) == getattr(
        reference, "shadow_discoveries", None
    )
