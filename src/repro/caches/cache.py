"""The set-associative cache model.

Keys are *line indices* (byte address >> line shift).  Each set is an
``OrderedDict`` ordered from least- to most-recently used, giving O(1)
lookup, recency update (``move_to_end``) and LRU eviction (``popitem``).

Replacement is LRU by default — matching the paper's simulator — with
``fifo``, ``plru`` (tree pseudo-LRU, the common hardware approximation)
and ``random`` available for sensitivity studies
(``ablation-replacement``).  Direct-mapped caches are simply
``associativity=1``.

The ``fifo`` and ``plru`` variants reuse the OrderedDict sets: FIFO simply
never refreshes recency; tree-PLRU keeps a per-set bit tree indexed by way
and maps victim ways back to keys.

The per-set list is built lazily.  A cache starts with a :class:`LazySets`
stand-in in ``_sets``; the first read through it builds the list and puts
it in the stand-in's place, so from then on the hot paths index a plain
list.  The sets of a cache go through these states:

1. **unbuilt** — ``LazySets`` with no builder: the cache is empty.  A 2 MB
   L2 has 8,192 sets, and a cache that the jit kernel runs (see
   :mod:`repro.core.jitted`) is never read in Python, so it binds as a
   zeroed C image and never builds them;
2. **built** — a list of ``OrderedDict``: the reference engine's state,
   and the state every read of an unbuilt cache leaves;
3. **decoded on read** — ``LazySets`` whose builder decodes the C image
   the kernel finished with; the first read turns it into state 2.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, List, Optional, Tuple

from repro.caches.config import CacheConfig
from repro.caches.line import LineState
from repro.util.rng import SplitMix64


@dataclass
class CacheStats:
    """Raw access counters (semantic classification lives in the engine)."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    installs: int = 0
    evictions: int = 0

    @property
    def miss_ratio(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.misses / self.lookups

    def reset(self) -> None:
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.installs = 0
        self.evictions = 0


class LazySets:
    """Stand-in for a cache's ``_sets`` until the first read: builds the
    per-set list — empty sets, or ``build()`` — and puts it in its own
    place, so later reads index the list directly.

    The cache is held weakly: a strong reference would form a cache ->
    stand-in -> cache cycle, keeping every dropped cache alive until the
    cyclic garbage collector runs.
    """

    __slots__ = ("_cache", "_n_sets", "build")

    def __init__(
        self,
        cache: "SetAssociativeCache",
        build: Optional[Callable[[], List[OrderedDict]]] = None,
    ) -> None:
        self._cache = weakref.ref(cache)
        self._n_sets = cache.config.n_sets
        #: None: every set is empty.
        self.build = build

    def _built(self) -> List[OrderedDict]:
        build = self.build
        sets = [OrderedDict() for _ in range(self._n_sets)] if build is None else build()
        cache = self._cache()
        if cache is not None:
            cache._sets = sets
        return sets

    def __getitem__(self, index: int) -> OrderedDict:
        return self._built()[index]

    def __iter__(self) -> Iterator[OrderedDict]:
        return iter(self._built())


class SetAssociativeCache:
    """A set-associative cache of :class:`LineState` entries."""

    __slots__ = (
        "name",
        "config",
        "stats",
        "_sets",
        "_set_mask",
        "_assoc",
        "_policy",
        "_is_lru",
        "_is_plru",
        "_evict_in_order",
        "_rng",
        "_plru_bits",
        "_plru_ways",
        # The jit backend's lazy content decode refers back weakly.
        "__weakref__",
    )

    POLICIES = ("lru", "fifo", "plru", "random")

    def __init__(
        self,
        name: str,
        config: CacheConfig,
        policy: str = "lru",
        rng_seed: int = 0,
    ) -> None:
        if policy not in self.POLICIES:
            raise ValueError(
                f"unknown replacement policy {policy!r}; available: {self.POLICIES}"
            )
        if policy == "plru" and (config.associativity & (config.associativity - 1)):
            raise ValueError("plru requires power-of-two associativity")
        self.name = name
        self.config = config
        self.stats = CacheStats()
        self._sets: List[OrderedDict] = LazySets(self)  # type: ignore[assignment]
        self._set_mask = config.n_sets - 1
        self._assoc = config.associativity
        self._policy = policy
        # The policy is fixed for the cache's lifetime; lookup/install/touch
        # run once per simulated access, so they branch on these booleans
        # instead of re-comparing the policy string.
        self._is_lru = policy == "lru"
        self._is_plru = policy == "plru"
        self._evict_in_order = policy in ("lru", "fifo")
        self._rng = SplitMix64(rng_seed) if policy == "random" else None
        if policy == "plru":
            # Per set: tree bits (assoc-1 of them) and way -> key mapping.
            self._plru_bits = [[0] * max(1, config.associativity - 1) for _ in range(config.n_sets)]
            self._plru_ways = [[None] * config.associativity for _ in range(config.n_sets)]
        else:
            self._plru_bits = None
            self._plru_ways = None

    # ------------------------------------------------------------------ #
    # Access paths
    # ------------------------------------------------------------------ #

    def lookup(self, line: int, update_recency: bool = True) -> Optional[LineState]:
        """Return the line's state on a hit (None on a miss).

        Counts the access; updates LRU recency unless *update_recency* is
        False (prefetch L2 hits under the bypass policy deliberately avoid
        promoting the line — see :mod:`repro.core.l2policy`).
        """
        stats = self.stats
        stats.lookups += 1
        cache_set = self._sets[line & self._set_mask]
        state = cache_set.get(line)
        if state is None:
            stats.misses += 1
            return None
        stats.hits += 1
        if update_recency:
            if self._is_lru:
                cache_set.move_to_end(line)
            elif self._is_plru:
                self._plru_touch(line)
        return state

    def probe(self, line: int) -> Optional[LineState]:
        """Tag check with no side effects (no stats, no recency update).

        This is the prefetcher's tag-port inspection: "is the line already
        in the cache?" (§4.1).
        """
        return self._sets[line & self._set_mask].get(line)

    def install(self, line: int, state: LineState) -> Optional[Tuple[int, LineState]]:
        """Insert *line*; return the evicted ``(line, state)`` if any.

        If the line is already resident its state object is replaced and
        recency refreshed (no eviction).
        """
        self.stats.installs += 1
        set_index = line & self._set_mask
        cache_set = self._sets[set_index]
        if line in cache_set:
            cache_set[line] = state
            if self._is_lru:
                cache_set.move_to_end(line)
            elif self._is_plru:
                self._plru_touch(line)
            return None
        victim = None
        if len(cache_set) >= self._assoc:
            victim = self._evict(cache_set, set_index)
        cache_set[line] = state
        if self._is_plru:
            ways = self._plru_ways[set_index]
            way = ways.index(None)
            ways[way] = line
            self._plru_update_bits(set_index, way)
        return victim

    def touch(self, line: int) -> None:
        """Refresh replacement recency only (no stats).  No-op if absent."""
        cache_set = self._sets[line & self._set_mask]
        if line not in cache_set:
            return
        if self._is_lru:
            cache_set.move_to_end(line)
        elif self._is_plru:
            self._plru_touch(line)

    def invalidate(self, line: int) -> Optional[LineState]:
        """Remove *line* if resident; return its state."""
        set_index = line & self._set_mask
        state = self._sets[set_index].pop(line, None)
        if state is not None and self._is_plru:
            ways = self._plru_ways[set_index]
            ways[ways.index(line)] = None
        return state

    def _evict(self, cache_set: OrderedDict, set_index: int) -> Tuple[int, LineState]:
        self.stats.evictions += 1
        if self._evict_in_order:
            return cache_set.popitem(last=False)
        if self._is_plru:
            way = self._plru_victim_way(set_index)
            ways = self._plru_ways[set_index]
            victim_key = ways[way]
            ways[way] = None
            return victim_key, cache_set.pop(victim_key)
        # Same victim the list()[k] form selected, without materializing the
        # whole set on every eviction.
        k = self._rng.randrange(len(cache_set))
        victim_key = next(islice(iter(cache_set), k, None))
        return victim_key, cache_set.pop(victim_key)

    # ------------------------------------------------------------------ #
    # Tree pseudo-LRU helpers
    # ------------------------------------------------------------------ #

    def _plru_touch(self, line: int) -> None:
        set_index = line & self._set_mask
        way = self._plru_ways[set_index].index(line)
        self._plru_update_bits(set_index, way)

    def _plru_update_bits(self, set_index: int, way: int) -> None:
        """Point every tree node on the way's path *away* from it."""
        if self._assoc == 1:
            return
        bits = self._plru_bits[set_index]
        node = 0
        low, high = 0, self._assoc
        while high - low > 1:
            mid = (low + high) // 2
            if way < mid:
                bits[node] = 1  # victim search should go right
                node = 2 * node + 1
                high = mid
            else:
                bits[node] = 0  # victim search should go left
                node = 2 * node + 2
                low = mid
            if node >= len(bits):
                break

    def _plru_victim_way(self, set_index: int) -> int:
        """Follow the tree bits to the pseudo-least-recently-used way."""
        if self._assoc == 1:
            return 0
        bits = self._plru_bits[set_index]
        node = 0
        low, high = 0, self._assoc
        while high - low > 1:
            mid = (low + high) // 2
            if node < len(bits) and bits[node] == 0:
                high = mid
                node = 2 * node + 1
            else:
                low = mid
                node = 2 * node + 2
        return low

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __contains__(self, line: int) -> bool:
        return line in self._sets[line & self._set_mask]

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def resident_lines(self) -> Iterator[Tuple[int, LineState]]:
        """Yield all resident ``(line, state)`` pairs (test/debug helper)."""
        for cache_set in self._sets:
            yield from cache_set.items()

    def set_occupancy(self, line: int) -> int:
        """Number of resident lines in the set that *line* maps to."""
        return len(self._sets[line & self._set_mask])

    def flush(self) -> None:
        """Empty the cache (statistics are left untouched)."""
        self._sets = LazySets(self)  # type: ignore[assignment]
        if self._is_plru:
            for bits in self._plru_bits:
                for index in range(len(bits)):
                    bits[index] = 0
            for ways in self._plru_ways:
                for index in range(len(ways)):
                    ways[index] = None
