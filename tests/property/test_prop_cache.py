"""Property-based tests for the cache substrate.

Invariants checked against random access sequences:

- occupancy never exceeds capacity, per set and overall;
- a line just installed is resident (unless immediately evicted by a
  later install to the same set);
- lookup(x) hits iff x was installed and not since evicted/invalidated —
  modelled against a reference dict-of-sets simulator with LRU order;
- probe never changes observable state.

``install`` takes only a line that is not resident (the engine installs
after a miss), so the sequences install a drawn line only when it is
absent.
"""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.caches.cache import SetAssociativeCache
from repro.caches.config import CacheConfig
from repro.caches.line import LineState

CONFIG = CacheConfig(capacity_bytes=1024, associativity=2, line_size=64)  # 8 sets

lines = st.integers(min_value=0, max_value=63)
ops = st.lists(
    st.tuples(st.sampled_from(["lookup", "install", "invalidate", "probe"]), lines),
    max_size=200,
)


class ReferenceCache:
    """Oracle: per-set LRU OrderedDicts, mirroring the contract exactly."""

    def __init__(self, config):
        self.sets = [OrderedDict() for _ in range(config.n_sets)]
        self.mask = config.n_sets - 1
        self.assoc = config.associativity

    def lookup(self, line):
        s = self.sets[line & self.mask]
        if line in s:
            s.move_to_end(line)
            return True
        return False

    def install(self, line):
        s = self.sets[line & self.mask]
        if len(s) >= self.assoc:
            s.popitem(last=False)
        s[line] = None

    def invalidate(self, line):
        self.sets[line & self.mask].pop(line, None)

    def resident(self, line):
        return line in self.sets[line & self.mask]

    def __len__(self):
        return sum(len(s) for s in self.sets)


def _install_absent(cache, line):
    if cache.probe(line) is None:
        cache.install(line, LineState())


@given(ops)
@settings(max_examples=200, deadline=None)
def test_cache_matches_reference_lru(operations):
    cache = SetAssociativeCache("p", CONFIG)
    reference = ReferenceCache(CONFIG)
    for op, line in operations:
        if op == "lookup":
            assert (cache.lookup(line) is not None) == reference.lookup(line)
        elif op == "install":
            if not reference.resident(line):
                cache.install(line, LineState())
                reference.install(line)
        elif op == "invalidate":
            cache.invalidate(line)
            reference.invalidate(line)
        else:  # probe
            assert (cache.probe(line) is not None) == reference.resident(line)
        assert len(cache) == len(reference)
        assert len(cache) <= CONFIG.n_lines


@given(ops)
@settings(max_examples=100, deadline=None)
def test_set_occupancy_never_exceeds_associativity(operations):
    cache = SetAssociativeCache("p", CONFIG)
    for op, line in operations:
        if op == "install":
            _install_absent(cache, line)
        elif op == "lookup":
            cache.lookup(line)
        elif op == "invalidate":
            cache.invalidate(line)
        assert cache.set_occupancy(line) <= CONFIG.associativity


@given(st.lists(lines, min_size=1, max_size=100))
@settings(max_examples=100, deadline=None)
def test_probe_is_pure(installs):
    cache = SetAssociativeCache("p", CONFIG)
    for line in installs:
        _install_absent(cache, line)
    before = sorted(line for line, _ in cache.resident_lines())
    stats_before = (cache.stats.lookups, cache.stats.hits, cache.stats.misses)
    for line in range(64):
        cache.probe(line)
    after = sorted(line for line, _ in cache.resident_lines())
    assert before == after
    assert stats_before == (cache.stats.lookups, cache.stats.hits, cache.stats.misses)


@given(st.lists(lines, min_size=1, max_size=100), st.integers(0, 63))
@settings(max_examples=100, deadline=None)
def test_random_policy_respects_capacity(installs, extra):
    cache = SetAssociativeCache("p", CONFIG, policy="random", rng_seed=7)
    for line in installs:
        _install_absent(cache, line)
    assert len(cache) <= CONFIG.n_lines
    _install_absent(cache, extra)
    assert cache.probe(extra) is not None


@given(ops, st.sampled_from(["fifo", "plru", "random"]))
@settings(max_examples=150, deadline=None)
def test_all_policies_maintain_residency_invariants(operations, policy):
    """Every policy: capacity bounds hold, installed lines are resident
    until evicted/invalidated, and a just-installed line is always found."""
    cache = SetAssociativeCache("p", CONFIG, policy=policy, rng_seed=11)
    for op, line in operations:
        if op == "install":
            _install_absent(cache, line)
            assert cache.probe(line) is not None
        elif op == "lookup":
            cache.lookup(line)
        elif op == "invalidate":
            cache.invalidate(line)
            assert cache.probe(line) is None
        else:
            cache.probe(line)
        assert len(cache) <= CONFIG.n_lines
        assert cache.set_occupancy(line) <= CONFIG.associativity
    # Residency is consistent between the set store and iteration.
    assert len(list(cache.resident_lines())) == len(cache)
