"""The kernel's prefetch queue (``kernel/queue.c``) in lockstep with
:class:`~repro.prefetch.queue.PrefetchQueue`.

The C queue keeps its entries and recent demand lines in node pools with
linked age lists and a line index, instead of the reference's lists and
dicts.  Random streams of offers, demand fetches, pops and requeues drive
both, with filtering and LIFO each on and off and capacities 1-64 (the
catalog runs 32/32); after every operation the stats, ``waiting``, the
entries in age order, the recent lines in recency order and each line's
state must be equal.  Both start empty, as the engine binds its queue.
"""

from __future__ import annotations

import ctypes
import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import jitted
from repro.prefetch.base import PrefetchCandidate
from repro.prefetch.queue import PrefetchQueue, QueueState, QueueStats
from repro.util import ccompile

pytestmark = pytest.mark.skipif(
    not jitted.jit_available(), reason="no C compiler: jit kernel unbuildable"
)

#: exported entry points over the unit's static queue functions.
SHIM = r"""
void shim_offer(CQueue *q, long long line, long long prov_line) {
    CCand cand;
    cand.line = line;
    cand.prov_kind = 5;
    cand.prov_index = 0;
    cand.prov_line = prov_line;
    queue_offer(q, &cand);
}
void shim_demand(CQueue *q, long long line) { queue_note_demand(q, line); }
long long shim_pop(CQueue *q) { return queue_pop_ready(q); }
void shim_requeue(CQueue *q, long long line) {
    queue_requeue(q, index_slot(&q->index, line)->entry - 1);
}
long long shim_state(CQueue *q, long long line) {
    long long k = index_slot(&q->index, line)->entry - 1;
    return k < 0 ? -1 : q->entries[k].state;
}
/* The lines of a list, oldest first, read through node line(k); at most
 * 65, so that a broken list cannot loop. */
static long long walk(const CList *l, const long long *lines, long long stride,
                      long long *out) {
    long long n = 0, k;
    for (k = l->oldest; k >= 0 && n < 65; k = l->links[2 * k + 1])
        out[n++] = lines[k * stride];
    return n;
}
long long shim_entries(CQueue *q, long long *out) {
    return walk(&q->age, &q->entries[0].line, sizeof(CQEntry) / sizeof(long long), out);
}
long long shim_ready(CQueue *q, long long *out) {
    return walk(&q->ready, &q->entries[0].line, sizeof(CQEntry) / sizeof(long long), out);
}
long long shim_recent(CQueue *q, long long *out) {
    return walk(&q->recency, q->recent, 1, out);
}
"""

_QP = ctypes.POINTER(jitted.STRUCTS["CQueue"])
_LL = ctypes.c_longlong


@pytest.fixture(scope="module")
def lib():
    source = jitted._with_header(("queue.c",)) + SHIM
    lib, _ = ccompile.load("repro_test_queue", source)
    signatures = {
        "repro_queue_init": [_QP],
        "shim_offer": [_QP, _LL, _LL],
        "shim_demand": [_QP, _LL],
        "shim_pop": [_QP],
        "shim_requeue": [_QP, _LL],
        "shim_state": [_QP, _LL],
        "shim_entries": [_QP, ctypes.POINTER(_LL)],
        "shim_ready": [_QP, ctypes.POINTER(_LL)],
        "shim_recent": [_QP, ctypes.POINTER(_LL)],
    }
    for name, argtypes in signatures.items():
        function = getattr(lib, name)
        function.argtypes = argtypes
        function.restype = _LL
    return lib


def _apply(queue: PrefetchQueue, op: str, line: int):
    """One operation on the reference queue; a pop returns its entry."""
    if op == "offer":
        queue.offer(PrefetchCandidate(line, ("tgt", line + 1)))
    elif op == "demand":
        queue.note_demand_fetch(line)
    elif op == "pop":
        return queue.pop_ready()
    elif op == "requeue":
        queue.requeue(queue._by_line[line])
    return None


def _requeueable(queue: PrefetchQueue, line: int) -> bool:
    entry = queue._by_line.get(line)
    return entry is not None and entry.state == QueueState.ISSUED


def _check(lib, queue: PrefetchQueue, cq, lines: list) -> None:
    for field in dataclasses.fields(QueueStats):
        assert getattr(cq, field.name) == getattr(queue.stats, field.name), field.name
    assert cq.waiting == queue.waiting
    out = (_LL * 65)()
    assert out[: lib.shim_entries(cq, out)] == [e.line for e in queue._entries]
    ready = [e.line for e in queue._entries if e.state == QueueState.WAITING]
    assert out[: lib.shim_ready(cq, out)] == ready
    assert out[: lib.shim_recent(cq, out)] == queue._recent.keys()
    for line in lines:
        state = queue.state_of(line)
        assert lib.shim_state(cq, line) == (-1 if state is None else int(state)), line


def _clustered(rng: random.Random, n: int, nodes: int) -> list:
    """*n* distinct lines whose home slots, in the index ``queue_image``
    sizes for *nodes* lines, are four adjacent ones (``queue.c``'s hash)."""
    bits = max(2, (4 * nodes - 1).bit_length())
    lines: set = set()
    while len(lines) < n:
        line = rng.getrandbits(40)
        if ((line * 0x9E3779B97F4A7C15) % (1 << 64)) >> (64 - bits) < 4:
            lines.add(line)
    return sorted(lines)


@st.composite
def _streams(draw):
    """A queue configuration, its lines and a lockstep stream.

    There are at most twice as many lines as entries, so duplicates,
    hoists and overflows of a duplicated line are all common.  The lines
    are random, or clustered in the C index, so that its probe runs are
    long and every drop shifts them.
    """
    capacity = draw(st.integers(1, 64))
    recent_capacity = draw(st.integers(1, 64))
    span = draw(st.integers(2, 2 * capacity + 4))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    if draw(st.booleans()):
        lines = _clustered(rng, span, capacity + recent_capacity)
    else:
        lines = rng.sample(range(1 << 40), span)
    ops = st.tuples(
        st.sampled_from(["offer", "offer", "offer", "demand", "pop", "requeue"]),
        st.sampled_from(lines),
    )
    return (
        capacity,
        recent_capacity,
        draw(st.booleans()),
        draw(st.booleans()),
        lines,
        draw(st.lists(ops, min_size=capacity, max_size=6 * capacity + 40)),
    )


@given(_streams())
@settings(max_examples=300, deadline=None)
def test_c_queue_matches_reference(lib, draw) -> None:
    capacity, recent_capacity, lifo, filtering, lines, stream = draw
    queue = PrefetchQueue(capacity, recent_capacity, lifo=lifo, filtering=filtering)
    keep: list = []
    cq = jitted.queue_image(queue._config, keep, lib.repro_queue_init)
    _check(lib, queue, cq, lines)
    for op, line in stream:
        if op == "requeue" and not _requeueable(queue, line):
            continue
        entry = _apply(queue, op, line)
        if op == "offer":
            lib.shim_offer(cq, line, line + 1)
        elif op == "demand":
            lib.shim_demand(cq, line)
        elif op == "pop":
            node = lib.shim_pop(cq)
            assert (node < 0) == (entry is None)
            if entry is not None:
                popped = cq.entries[node]
                assert popped.line == entry.line
                assert jitted._decode_prov(
                    popped.prov_kind, popped.prov_index, popped.prov_line
                ) == entry.provenance
        else:
            lib.shim_requeue(cq, line)
        _check(lib, queue, cq, lines)
