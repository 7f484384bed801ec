"""Property-based tests for compiled traces: round-trip exactness.

The engine trusts :class:`CompiledTrace` columns blindly, so
these properties are the load-bearing guarantee: compiling then replaying
(in memory or through the binary form) reproduces the live
:func:`iter_line_visits` output *exactly* — same lines, kinds, instruction
counts and data attribution, for line-spanning blocks and data-heavy
same-line merges alike.
"""

from hypothesis import given, settings, strategies as st

from repro.isa.classify import is_discontinuity
from repro.isa.kinds import TransitionKind
from repro.trace.compiled import CompiledTrace, visits_equal
from repro.trace.record import INSTRUCTION_SIZE, BlockEvent
from repro.trace.stream import Trace, iter_line_visits

kinds = st.sampled_from([int(kind) for kind in TransitionKind])

events = st.lists(
    st.builds(
        BlockEvent,
        addr=st.integers(min_value=0, max_value=1 << 24).map(
            lambda a: a * INSTRUCTION_SIZE
        ),
        ninstr=st.integers(min_value=1, max_value=300),
        kind=kinds,
        data=st.lists(
            st.integers(min_value=0, max_value=1 << 32), max_size=4
        ).map(tuple),
    ),
    max_size=60,
)

line_sizes = st.sampled_from([16, 32, 64, 128, 256])


def compile_for(event_list, line_size, seed=7):
    trace = Trace("prop", 99, event_list)
    return trace, CompiledTrace.compile(
        trace, line_size, workload="prop", seed=seed, core=0, n_instructions=1234
    )


@given(events, line_sizes)
@settings(max_examples=200, deadline=None)
def test_compile_replays_live_lowering_exactly(event_list, line_size):
    trace, compiled = compile_for(event_list, line_size)
    assert list(compiled.iter_visits()) == list(
        iter_line_visits(event_list, line_size)
    )
    equal, mismatch = visits_equal(compiled, trace)
    assert equal and mismatch == -1


@given(events, line_sizes)
@settings(max_examples=100, deadline=None)
def test_binary_roundtrip_is_exact(event_list, line_size):
    trace, compiled = compile_for(event_list, line_size)
    loaded = CompiledTrace.from_bytes(compiled.to_bytes())
    assert loaded.workload == compiled.workload
    assert loaded.name == compiled.name
    assert loaded.seed == compiled.seed
    assert loaded.core == compiled.core
    assert loaded.n_instructions == compiled.n_instructions
    assert loaded.line_size == line_size
    assert list(loaded.iter_visits()) == list(compiled.iter_visits())
    assert list(loaded.disc) == list(compiled.disc)


@given(events, line_sizes)
@settings(max_examples=100, deadline=None)
def test_disc_column_matches_live_rule(event_list, line_size):
    _, compiled = compile_for(event_list, line_size)
    members = list(TransitionKind)
    prev = -1
    for i, visit in enumerate(compiled.iter_visits()):
        expected = (
            prev >= 0
            and visit.line != prev
            and is_discontinuity(members[visit.kind], prev, visit.line)
        )
        assert bool(compiled.disc[i]) == expected
        prev = visit.line


@given(events, line_sizes)
@settings(max_examples=100, deadline=None)
def test_compile_conserves_totals(event_list, line_size):
    _, compiled = compile_for(event_list, line_size)
    assert compiled.total_instructions == sum(e.ninstr for e in event_list)
    assert len(compiled.data) == sum(len(e.data) for e in event_list)
    assert len(compiled.offsets) == compiled.visit_count + 1
