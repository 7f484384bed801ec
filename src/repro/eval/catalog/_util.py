"""Shared axis and cell helpers for the catalog declarations.

Underscore-prefixed modules in this package hold plumbing, not
experiments, and are not catalog modules.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, Tuple

from repro.eval.experiment import Runs
from repro.prefetch.registry import prefetcher_display_name
from repro.trace.source import source_display_name
from repro.trace.synth.workloads import workload_names

#: the four base commercial workloads, in canonical order.
BASE: Tuple[str, ...] = tuple(workload_names())

#: the CMP workload set: the base four plus the multiprogrammed mix.
CMP: Tuple[str, ...] = BASE + ("mix",)


def workload_axis(ids: Sequence[str]) -> Tuple[Tuple[str, str], ...]:
    """Panel axis of (display label, workload id) pairs."""
    return tuple((source_display_name(w), w) for w in ids)


def scheme_axis(schemes: Sequence[str]) -> Tuple[Tuple[str, str], ...]:
    """Panel axis of (display label, prefetcher name) pairs."""
    return tuple((prefetcher_display_name(s), s) for s in schemes)


def cmp_speedup(l2_policy: str = "bypass") -> Callable[[Runs, Any, Any], float]:
    """Cell: 4-core speedup of the row's scheme over the plain baseline."""

    def cell(runs: Runs, scheme: Any, workload: Any) -> float:
        return runs.speedup(workload, 4, scheme, l2_policy=l2_policy)

    return cell


def cmp_accuracy(l2_policy: str = "bypass") -> Callable[[Runs, Any, Any], float]:
    """Cell: 4-core prefetch accuracy (%) of the row's scheme."""

    def cell(runs: Runs, scheme: Any, workload: Any) -> float:
        result = runs.result(workload, 4, scheme, l2_policy=l2_policy)
        return 100.0 * result.prefetch_accuracy

    return cell
