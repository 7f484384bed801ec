"""Unit tests for the FIFO and tree-PLRU replacement policies."""

import pytest

from repro.caches.cache import SetAssociativeCache
from repro.caches.config import CacheConfig
from repro.caches.line import LineState


def make_cache(policy, assoc=4, sets=2):
    capacity = 64 * assoc * sets
    return SetAssociativeCache(
        "c", CacheConfig(capacity_bytes=capacity, associativity=assoc, line_size=64),
        policy=policy,
    )


class TestFifo:
    def test_eviction_ignores_hits(self):
        cache = make_cache("fifo", assoc=2)
        cache.install(0, LineState())  # set 0
        cache.install(2, LineState())  # set 0 (2 sets: even lines -> set 0)
        cache.lookup(0)  # would save 0 under LRU; FIFO ignores it
        victim_line, _ = cache.install(4, LineState())
        assert victim_line == 0  # first in, first out

    def test_insertion_order_is_eviction_order(self):
        cache = make_cache("fifo", assoc=2)
        cache.install(2, LineState())
        cache.install(0, LineState())
        for _ in range(5):
            cache.lookup(2)
        victim_line, _ = cache.install(4, LineState())
        assert victim_line == 2


class TestPlru:
    def test_requires_power_of_two_assoc(self):
        with pytest.raises(ValueError, match="power-of-two"):
            SetAssociativeCache(
                "c",
                CacheConfig(capacity_bytes=64 * 6, associativity=6, line_size=64),
                policy="plru",
            )

    def test_basic_hit_miss(self):
        cache = make_cache("plru")
        assert cache.lookup(0) is None
        cache.install(0, LineState())
        assert cache.lookup(0) is not None

    def test_victim_is_not_most_recent(self):
        cache = make_cache("plru", assoc=4, sets=1)
        for line in range(4):
            cache.install(line, LineState())
        cache.lookup(3)  # 3 is most recently touched
        victim_line, _ = cache.install(10, LineState())
        assert victim_line != 3

    def test_recently_touched_lines_protected(self):
        cache = make_cache("plru", assoc=4, sets=1)
        for line in range(4):
            cache.install(line, LineState())
        # Touch 0 and 1 repeatedly; victim should come from {2, 3}.
        for _ in range(3):
            cache.lookup(0)
            cache.lookup(1)
        victim_line, _ = cache.install(10, LineState())
        assert victim_line in (2, 3)

    def test_capacity_never_exceeded(self):
        cache = make_cache("plru", assoc=4, sets=2)
        for line in range(64):
            cache.install(line, LineState())
        assert len(cache) <= 8
        assert cache.set_occupancy(0) <= 4
        assert cache.set_occupancy(1) <= 4

    def test_invalidate_frees_way(self):
        cache = make_cache("plru", assoc=2, sets=1)
        cache.install(0, LineState())
        cache.install(1, LineState())
        cache.invalidate(0)
        assert cache.install(2, LineState()) is None  # no eviction needed
        assert len(cache) == 2

    def test_flush_resets_tree_state(self):
        cache = make_cache("plru", assoc=2, sets=1)
        cache.install(0, LineState())
        cache.install(1, LineState())
        cache.flush()
        assert len(cache) == 0
        cache.install(2, LineState())
        cache.install(3, LineState())
        assert len(cache) == 2

    def test_touch_updates_tree(self):
        cache = make_cache("plru", assoc=2, sets=1)
        cache.install(0, LineState())
        cache.install(1, LineState())
        cache.touch(0)  # 0 recently used -> victim should be 1
        victim_line, _ = cache.install(2, LineState())
        assert victim_line == 1

    def test_direct_mapped_plru(self):
        cache = make_cache("plru", assoc=1, sets=2)
        cache.install(0, LineState())
        victim = cache.install(2, LineState())
        assert victim is not None and victim[0] == 0


class TestPolicyComparativeBehaviour:
    def test_all_policies_hold_working_set_that_fits(self):
        for policy in SetAssociativeCache.POLICIES:
            cache = make_cache(policy, assoc=4, sets=2)
            for line in range(8):
                cache.install(line, LineState())
            assert all(line in cache for line in range(8)), policy

    def test_plru_approximates_lru_on_scans(self):
        # A cyclic scan over assoc+1 lines thrashes both LRU and PLRU
        # completely — their miss counts match on this adversarial pattern.
        results = {}
        for policy in ("lru", "plru"):
            cache = make_cache(policy, assoc=4, sets=1)
            misses = 0
            for _ in range(10):
                for line in range(5):
                    if cache.lookup(line) is None:
                        misses += 1
                        cache.install(line, LineState())
            results[policy] = misses
        assert results["plru"] >= results["lru"] * 0.8


class TestRandom:
    def test_eviction_sequence_matches_reference_model(self):
        # Regression guard for the islice-based victim selection in
        # ``SetAssociativeCache._evict``: for a fixed rng seed the victim
        # sequence must be exactly what the original ``list(set)[k]``
        # formulation produced.  The shadow model below *is* that original
        # formulation, driven by an identical SplitMix64 stream.
        from repro.util.rng import SplitMix64

        assoc, sets, seed = 4, 2, 0
        cache = make_cache("random", assoc=assoc, sets=sets)
        shadow_rng = SplitMix64(seed)
        shadow_sets = [[] for _ in range(sets)]
        driver = SplitMix64(12345)

        victims = []
        for step in range(200):
            line = driver.randrange(64)
            set_index = line & (sets - 1)
            shadow = shadow_sets[set_index]
            if line in shadow:
                continue  # install takes only lines that are not resident
            expected_victim = None
            if len(shadow) >= assoc:
                k = shadow_rng.randrange(len(shadow))
                expected_victim = shadow[k]
                shadow.remove(expected_victim)
            shadow.append(line)

            actual = cache.install(line, LineState())
            if expected_victim is None:
                assert actual is None, f"step {step}: unexpected eviction {actual}"
            else:
                assert actual is not None, f"step {step}: missing eviction"
                assert actual[0] == expected_victim, f"step {step}"
                victims.append(actual[0])

        assert len(victims) > 50  # the run actually exercised evictions
        assert sorted(set(len(s) for s in shadow_sets)) == [assoc]

    def test_fixed_seed_is_deterministic(self):
        def victim_sequence():
            cache = make_cache("random", assoc=2, sets=1)
            out = []
            for line in range(20):
                victim = cache.install(line, LineState())
                if victim is not None:
                    out.append(victim[0])
            return out

        assert victim_sequence() == victim_sequence()
