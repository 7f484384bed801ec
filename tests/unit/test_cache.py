"""Unit tests for the set-associative cache (repro.caches.cache)."""

import weakref
from collections import OrderedDict

import pytest

from repro.caches.cache import LazySets, SetAssociativeCache
from repro.caches.config import CacheConfig
from repro.caches.line import LineState


def make_cache(capacity=512, assoc=2, line=64, policy="lru"):
    return SetAssociativeCache(
        "c", CacheConfig(capacity_bytes=capacity, associativity=assoc, line_size=line),
        policy=policy,
    )


class TestGeometry:
    def test_sets_and_lines(self):
        cache = make_cache()
        assert cache.config.n_lines == 8
        assert cache.config.n_sets == 4

    def test_direct_mapped(self):
        cache = make_cache(assoc=1)
        assert cache.config.n_sets == 8

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError, match="policy"):
            make_cache(policy="clock")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(capacity_bytes=500, associativity=2, line_size=64)
        with pytest.raises(ValueError):
            CacheConfig(capacity_bytes=512, associativity=3, line_size=64)
        with pytest.raises(ValueError):
            CacheConfig(capacity_bytes=512, associativity=2, line_size=60)


class TestLookupInstall:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.lookup(100) is None
        cache.install(100, LineState(used=True))
        state = cache.lookup(100)
        assert state is not None
        assert state.used

    def test_stats_counted(self):
        cache = make_cache()
        cache.lookup(1)
        cache.install(1, LineState())
        cache.lookup(1)
        assert cache.stats.lookups == 2
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.installs == 1

    def test_miss_ratio(self):
        cache = make_cache()
        cache.lookup(1)
        cache.install(1, LineState())
        cache.lookup(1)
        assert cache.stats.miss_ratio == pytest.approx(0.5)

    def test_install_returns_victim_when_set_full(self):
        cache = make_cache()  # 4 sets, 2-way: lines 0, 4, 8 share set 0
        assert cache.install(0, LineState()) is None
        assert cache.install(4, LineState()) is None
        victim = cache.install(8, LineState())
        assert victim is not None
        victim_line, _ = victim
        assert victim_line == 0  # LRU

    def test_lru_order_updated_by_lookup(self):
        cache = make_cache()
        cache.install(0, LineState())
        cache.install(4, LineState())
        cache.lookup(0)  # 0 becomes MRU; 4 is now LRU
        victim_line, _ = cache.install(8, LineState())
        assert victim_line == 4

    def test_lookup_without_recency_update(self):
        cache = make_cache()
        cache.install(0, LineState())
        cache.install(4, LineState())
        cache.lookup(0, update_recency=False)  # 0 stays LRU
        victim_line, _ = cache.install(8, LineState())
        assert victim_line == 0

    def test_reinstall_refreshes_without_eviction(self):
        cache = make_cache()
        cache.install(0, LineState())
        cache.install(4, LineState())
        new_state = LineState(prefetched=True)
        assert cache.install(0, new_state) is None
        assert cache.lookup(0) is new_state
        assert len(cache) == 2

    def test_different_sets_do_not_interfere(self):
        cache = make_cache()
        for line in range(4):  # lines 0..3 map to sets 0..3
            cache.install(line, LineState())
        assert len(cache) == 4
        assert all(line in cache for line in range(4))


class TestProbeTouchInvalidate:
    def test_probe_no_side_effects(self):
        cache = make_cache()
        cache.install(0, LineState())
        cache.install(4, LineState())
        lookups_before = cache.stats.lookups
        assert cache.probe(0) is not None
        assert cache.probe(8) is None
        assert cache.stats.lookups == lookups_before
        # Probe must not refresh recency: 0 is still LRU.
        victim_line, _ = cache.install(8, LineState())
        assert victim_line == 0

    def test_touch_refreshes_recency(self):
        cache = make_cache()
        cache.install(0, LineState())
        cache.install(4, LineState())
        cache.touch(0)
        victim_line, _ = cache.install(8, LineState())
        assert victim_line == 4

    def test_touch_missing_line_noop(self):
        cache = make_cache()
        cache.touch(123)  # must not raise
        assert 123 not in cache

    def test_invalidate(self):
        cache = make_cache()
        state = LineState(used=True)
        cache.install(0, state)
        assert cache.invalidate(0) is state
        assert cache.invalidate(0) is None
        assert 0 not in cache


class TestRandomPolicy:
    def test_random_eviction_stays_within_set(self):
        cache = make_cache(policy="random")
        cache.install(0, LineState())
        cache.install(4, LineState())
        victim = cache.install(8, LineState())
        assert victim is not None
        assert victim[0] in (0, 4)
        assert 8 in cache

    def test_capacity_never_exceeded(self):
        cache = make_cache(policy="random")
        for line in range(64):
            cache.install(line, LineState())
        assert len(cache) <= cache.config.n_lines
        assert cache.set_occupancy(0) <= 2


class TestIntrospection:
    def test_resident_lines(self):
        cache = make_cache()
        cache.install(0, LineState())
        cache.install(5, LineState())
        resident = dict(cache.resident_lines())
        assert set(resident) == {0, 5}

    def test_flush(self):
        cache = make_cache()
        cache.install(0, LineState())
        cache.flush()
        assert len(cache) == 0
        assert cache.stats.installs == 1  # stats preserved

    def test_stats_reset(self):
        cache = make_cache()
        cache.lookup(0)
        cache.stats.reset()
        assert cache.stats.lookups == 0


def _unbuilt(cache) -> bool:
    return isinstance(cache._sets, LazySets)


class TestLazySets:
    """A cache builds its per-set list on the first read, not in __init__."""

    @pytest.mark.parametrize("policy", SetAssociativeCache.POLICIES)
    def test_fresh_cache_has_no_built_sets(self, policy):
        assert _unbuilt(make_cache(policy=policy))

    def test_probe_and_contains_read_an_empty_cache(self):
        cache = make_cache()
        assert cache.probe(7) is None
        assert not _unbuilt(cache)
        assert type(cache._sets) is list
        assert len(cache._sets) == cache.config.n_sets
        fresh = make_cache()
        assert 7 not in fresh
        assert not _unbuilt(fresh)

    def test_len_and_resident_lines_of_a_fresh_cache(self):
        assert len(make_cache()) == 0
        assert list(make_cache().resident_lines()) == []
        assert make_cache().set_occupancy(3) == 0

    def test_install_on_a_fresh_cache(self):
        cache = make_cache()
        assert cache.install(5, LineState(used=True)) is None
        assert type(cache._sets) is list
        assert cache.probe(5).used
        assert len(cache) == 1
        assert cache.stats.installs == 1

    @pytest.mark.parametrize("policy", SetAssociativeCache.POLICIES)
    def test_flush_returns_to_unbuilt_and_behaves_as_empty(self, policy):
        cache = make_cache(policy=policy)
        for line in range(12):
            cache.install(line, LineState())
        cache.flush()
        assert _unbuilt(cache)
        assert len(cache) == 0
        assert 0 not in cache
        assert cache.stats.installs == 12
        if policy == "random":
            return  # its victim stream continues across a flush
        # Refills from scratch exactly like a new cache.
        fresh = make_cache(policy=policy)
        for line in range(12):
            ours, theirs = (c.install(line, LineState()) for c in (cache, fresh))
            assert (ours and ours[0]) == (theirs and theirs[0])
        assert [line for line, _ in cache.resident_lines()] == [
            line for line, _ in fresh.resident_lines()
        ]

    def test_builder_supplies_the_sets(self):
        cache = make_cache()
        built = [OrderedDict() for _ in range(cache.config.n_sets)]
        built[1][5] = LineState(prefetched=True)
        cache._sets = LazySets(cache, lambda: built)
        assert cache.probe(5).prefetched
        assert cache._sets is built

    def test_stand_in_does_not_keep_its_cache_alive(self):
        cache = make_cache()
        stand_in = cache._sets
        ref = weakref.ref(cache)
        del cache
        assert ref() is None
        # A read through an orphaned stand-in still answers.
        assert list(stand_in) == [OrderedDict()] * 4
