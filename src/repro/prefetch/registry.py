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

from typing import Callable, Dict, List, Tuple

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

#: name → (paper-style display label, factory), in registry order.
_REGISTRY: Dict[str, Tuple[str, Callable[..., Prefetcher]]] = {
    "none": ("No prefetch", lambda **kw: NullPrefetcher()),
    "next-line-always": ("Next-line (always)", lambda **kw: NextLineAlways()),
    "next-line-on-miss": ("Next-line (on miss)", lambda **kw: NextLineOnMiss()),
    "next-line-tagged": ("Next-line (tagged)", lambda **kw: NextLineTagged()),
    "next-2-line": ("Next-2-lines (tagged)", lambda **kw: NextNLineTagged(degree=2)),
    "next-4-line": (
        "Next-4-lines (tagged)",
        lambda **kw: NextNLineTagged(degree=kw.get("degree", 4)),
    ),
    "lookahead-4": (
        "Lookahead-4",
        lambda **kw: LookaheadN(distance=kw.get("distance", 4)),
    ),
    "target": (
        "Target prefetcher",
        lambda **kw: TargetPrefetcher(capacity=kw.get("table_entries", 8192)),
    ),
    "discontinuity": (
        "Discontinuity",
        lambda **kw: DiscontinuityPrefetcher(
            table_entries=kw.get("table_entries", 8192),
            prefetch_ahead=kw.get("prefetch_ahead", 4),
            counter_max=kw.get("counter_max", 3),
        ),
    ),
    "discontinuity-2nl": (
        "Discont (2NL)",
        lambda **kw: DiscontinuityPrefetcher(
            table_entries=kw.get("table_entries", 8192),
            prefetch_ahead=2,
            counter_max=kw.get("counter_max", 3),
        ),
    ),
    "discontinuity-noprobeahead": (
        "Discont (no probe-ahead)",
        lambda **kw: DiscontinuityPrefetcher(
            table_entries=kw.get("table_entries", 8192),
            prefetch_ahead=kw.get("prefetch_ahead", 4),
            counter_max=kw.get("counter_max", 3),
            probe_ahead=False,
        ),
    ),
    "markov": (
        "Markov (multi-target)",
        lambda **kw: MarkovPrefetcher(
            capacity=kw.get("table_entries", 4096),
            targets_per_entry=kw.get("targets_per_entry", 2),
            fanout=kw.get("fanout", 2),
            prefetch_ahead=kw.get("prefetch_ahead", 4),
        ),
    ),
    "fdp": (
        "Fetch-directed",
        lambda **kw: FetchDirectedPrefetcher(
            btb_entries=kw.get("btb_entries", 1024),
            gshare_entries=kw.get("gshare_entries", 65536),
            lookahead=kw.get("lookahead", 8),
        ),
    ),
    "mana": (
        "MANA record/replay",
        lambda **kw: ManaPrefetcher(
            table_entries=kw.get("table_entries", 4096),
            assoc=kw.get("assoc", 4),
            region_lines=kw.get("region_lines", 8),
            replay_depth=kw.get("replay_depth", 3),
        ),
    ),
    "shadow": (
        "Shadow-branch FTQ",
        lambda **kw: ShadowBranchPrefetcher(
            btb_entries=kw.get("btb_entries", 1024),
            gshare_entries=kw.get("gshare_entries", 65536),
            lookahead=kw.get("lookahead", 8),
            ftq_entries=kw.get("ftq_entries", 16),
            shadow_entries=kw.get("shadow_entries", 2048),
            shadow_assoc=kw.get("shadow_assoc", 4),
            shadow_degree=kw.get("shadow_degree", 2),
        ),
    ),
}

#: all registered names, in registry order.
PREFETCHER_NAMES: List[str] = list(_REGISTRY)


def create_prefetcher(name: str, **overrides) -> Prefetcher:
    """Instantiate the prefetcher registered under *name*.

    Keyword overrides (``table_entries``, ``prefetch_ahead``, ``degree``,
    ``distance``) are forwarded to schemes that understand them; others are
    ignored, so sweeps can pass a uniform override set.
    """
    try:
        _, factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown prefetcher {name!r}; available: {PREFETCHER_NAMES}"
        ) from None
    return factory(**overrides)


def prefetcher_display_name(name: str) -> str:
    """Return the paper-style display label for a registered name (the
    name itself for an unregistered one)."""
    entry = _REGISTRY.get(name)
    return entry[0] if entry else name
