"""Prefetcher registry: build any scheme from its short name.

Names match the labels in the paper's figures:

==========================  =============================================
Name                        Scheme
==========================  =============================================
``none``                    no prefetching (baseline)
``next-line-always``        next-line, always triggered
``next-line-on-miss``       next-line, triggered on miss
``next-line-tagged``        next-line, tagged trigger
``next-2-line``             next-2-lines, tagged
``next-4-line``             next-4-lines, tagged (paper's sequential ref)
``lookahead-4``             4-line lookahead, single prefetch
``target``                  history-based target prefetcher
``discontinuity``           discontinuity table + next-4-line (paper §4)
``discontinuity-2nl``       discontinuity table + next-2-line (Figure 9)
``markov``                  Markov multi-target table (§2.2 alternative)
``fdp``                     fetch-directed run-ahead (§2.2 alternative)
``mana``                    MANA-style record/replay over spatial regions
``shadow``                  FTQ-driven shadow-branch target predecode
==========================  =============================================
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable, Dict, FrozenSet, List, Tuple

from repro.prefetch.base import NullPrefetcher, Prefetcher
from repro.prefetch.discontinuity import DiscontinuityPrefetcher
from repro.prefetch.fdp import FetchDirectedPrefetcher
from repro.prefetch.mana import ManaPrefetcher
from repro.prefetch.markov import MarkovPrefetcher
from repro.prefetch.shadow import ShadowBranchPrefetcher
from repro.prefetch.sequential import (
    LookaheadN,
    NextLineAlways,
    NextLineOnMiss,
    NextLineTagged,
    NextNLineTagged,
)
from repro.prefetch.target import TargetPrefetcher

#: name → (paper-style display label, factory), in registry order.  A
#: factory's keyword parameters are the override keys the scheme reads
#: (:func:`override_keys`), and their defaults its catalog configuration;
#: a class whose constructor takes exactly those keys is its own factory.
_REGISTRY: Dict[str, Tuple[str, Callable[..., Prefetcher]]] = {
    "none": ("No prefetch", lambda: NullPrefetcher()),
    "next-line-always": ("Next-line (always)", lambda: NextLineAlways()),
    "next-line-on-miss": ("Next-line (on miss)", lambda: NextLineOnMiss()),
    "next-line-tagged": ("Next-line (tagged)", lambda: NextLineTagged()),
    "next-2-line": ("Next-2-lines (tagged)", lambda: NextNLineTagged(degree=2)),
    "next-4-line": (
        "Next-4-lines (tagged)",
        lambda degree=4: NextNLineTagged(degree=degree),
    ),
    "lookahead-4": (
        "Lookahead-4",
        lambda distance=4: LookaheadN(distance=distance),
    ),
    "target": (
        "Target prefetcher",
        lambda table_entries=8192: TargetPrefetcher(capacity=table_entries),
    ),
    "discontinuity": (
        "Discontinuity",
        lambda table_entries=8192, prefetch_ahead=4, counter_max=3: DiscontinuityPrefetcher(
            table_entries=table_entries,
            prefetch_ahead=prefetch_ahead,
            counter_max=counter_max,
        ),
    ),
    "discontinuity-2nl": (
        "Discont (2NL)",
        lambda table_entries=8192, counter_max=3: DiscontinuityPrefetcher(
            table_entries=table_entries,
            prefetch_ahead=2,
            counter_max=counter_max,
        ),
    ),
    "discontinuity-noprobeahead": (
        "Discont (no probe-ahead)",
        lambda table_entries=8192, prefetch_ahead=4, counter_max=3: DiscontinuityPrefetcher(
            table_entries=table_entries,
            prefetch_ahead=prefetch_ahead,
            counter_max=counter_max,
            probe_ahead=False,
        ),
    ),
    "markov": (
        "Markov (multi-target)",
        lambda table_entries=4096, targets_per_entry=2, fanout=2, prefetch_ahead=4: (
            MarkovPrefetcher(
                capacity=table_entries,
                targets_per_entry=targets_per_entry,
                fanout=fanout,
                prefetch_ahead=prefetch_ahead,
            )
        ),
    ),
    "fdp": ("Fetch-directed", FetchDirectedPrefetcher),
    "mana": ("MANA record/replay", ManaPrefetcher),
    "shadow": ("Shadow-branch FTQ", ShadowBranchPrefetcher),
}

#: all registered names, in registry order.
PREFETCHER_NAMES: List[str] = list(_REGISTRY)


def create_prefetcher(name: str, **overrides) -> Prefetcher:
    """Instantiate the prefetcher registered under *name*.

    Keyword overrides the scheme reads (:func:`override_keys`) are
    forwarded to it; others are ignored, so sweeps can pass a uniform
    override set.  :meth:`repro.eval.runspec.RunSpec.create` rejects them
    instead, so a catalog spec cannot carry a key nothing reads.
    """
    keys = override_keys(name)
    return _REGISTRY[name][1](**{key: value for key, value in overrides.items() if key in keys})


@functools.lru_cache(maxsize=None)
def override_keys(name: str) -> FrozenSet[str]:
    """The override keys the scheme registered under *name* reads: its
    factory's keyword parameters (cached per name: the registry is fixed)."""
    try:
        _, factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown prefetcher {name!r}; available: {PREFETCHER_NAMES}"
        ) from None
    return frozenset(inspect.signature(factory).parameters)


def check_overrides(name: str, overrides: Dict[str, object]) -> None:
    """Raise ``ValueError`` when *overrides* holds a key the scheme
    registered under *name* does not read."""
    read = override_keys(name)
    unread = sorted(key for key in overrides if key not in read)
    if unread:
        raise ValueError(
            f"prefetcher {name!r} reads no override {unread}; it reads {sorted(read)}"
        )


def prefetcher_display_name(name: str) -> str:
    """Return the paper-style display label for a registered name (the
    name itself for an unregistered one)."""
    entry = _REGISTRY.get(name)
    return entry[0] if entry else name
