"""Pluggable trace sources: the one registry owning name → trace resolution.

Everything that turns a workload *name* into per-core
:class:`~repro.trace.stream.Trace` lists goes through this module: the
runner's raw/compiled trace caches, the executor's pre-compilation pass,
``RunSpec`` validation and the experiment catalog all resolve here.  A
:class:`TraceSource` produces the traces; :data:`_SOURCES` registers one
source per name, derived from the profile tables rather than spelled out:

- one :class:`SynthSource` per synthetic profile (the paper's four
  applications plus the scenario families), labelled with the profile's
  ``display`` — **bit-identical** to the
  pre-registry resolution, which is what keeps the golden spec-parity
  hashes valid;
- the multiprogrammed ``mix`` composition (:class:`MixSource`);
- ingested external PC streams, addressable as ``external:<name>`` and
  resolved dynamically against the :mod:`repro.trace.ingest` directory.

A new profile in :data:`~repro.trace.synth.workloads.WORKLOADS` or
:data:`~repro.trace.synth.workloads.SCENARIO_WORKLOADS` is a registered,
labelled source with no edit here.

This module must not import :mod:`repro.eval` (layering: eval depends on
trace, never the reverse).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.trace.ingest import EXTERNAL_PREFIX
from repro.trace.stream import Trace
from repro.trace.synth.mix import mix_walks
from repro.trace.synth.walker import CoreWalk, walk_traces
from repro.trace.synth.workloads import (
    SCENARIO_WORKLOADS,
    WORKLOADS,
    get_profile,
    workload_names,
)

__all__ = [
    "EXTERNAL_PREFIX",
    "TraceSource",
    "SynthSource",
    "MixSource",
    "ExternalSource",
    "source_names",
    "available_sources",
    "is_external",
    "resolve",
    "validate_workload",
    "traces_for",
    "source_display_name",
]


class TraceSource:
    """One named producer of per-core traces.

    Subclasses implement :meth:`traces`; ``name`` is the workload string a
    :class:`~repro.eval.runspec.RunSpec` carries.  Sources must be
    deterministic in ``(n_cores, seed, n_instructions)``.  ``label`` is the
    display label; empty shows the name.

    A synthetic source also declares its per-core :meth:`walks`, which
    the compiled synthesizer (:mod:`repro.trace.synth.native`) runs
    without building Python traces; its :meth:`traces` walks them in
    Python.
    """

    name: str
    label: str = ""

    def traces(self, n_cores: int, seed: int, n_instructions: int) -> List[Trace]:
        walks = self.walks(n_cores, seed)
        if walks is None:
            raise NotImplementedError
        return walk_traces(walks, n_instructions)

    def walks(self, n_cores: int, seed: int) -> Optional[List[CoreWalk]]:
        """The per-core synthesis plan, or None for a non-synthetic source."""
        return None

    def display_name(self) -> str:
        return self.label or self.name


@dataclass(frozen=True)
class SynthSource(TraceSource):
    """A registered synthetic profile: every core runs the same program
    with decorrelated transaction sequences (threads of one server
    application), so cores share code in the L2 — the paper's homogeneous
    CMP setup."""

    name: str
    label: str = ""

    def walks(self, n_cores: int, seed: int) -> List[CoreWalk]:
        profile = get_profile(self.name)
        return [CoreWalk(profile, seed, core) for core in range(n_cores)]


@dataclass(frozen=True)
class MixSource(TraceSource):
    """The paper's multiprogrammed mix: one application per core, disjoint
    address spaces (non-4-core systems cycle the base four)."""

    name: str = "mix"
    label: str = "Mixed"

    def walks(self, n_cores: int, seed: int) -> List[CoreWalk]:
        names = None
        if n_cores != 4:
            base = workload_names()
            names = [base[i % len(base)] for i in range(n_cores)]
        return mix_walks(seed, names or ())


@dataclass(frozen=True)
class ExternalSource(TraceSource):
    """An ingested external PC stream (``external:<name>``); cores replay
    the stream cyclically from staggered offsets (see
    :func:`repro.trace.ingest.external_traces`).  Content carries no seed,
    so every seed serves identical traces."""

    name: str

    @property
    def external_name(self) -> str:
        return self.name[len(EXTERNAL_PREFIX):]

    def traces(self, n_cores: int, seed: int, n_instructions: int) -> List[Trace]:
        from repro.trace import ingest

        return ingest.external_traces(self.external_name, n_cores, n_instructions)

    def display_name(self) -> str:
        return self.external_name


#: the registered sources, in presentation order: the paper's profiles,
#: the mix, then the scenario families.
_SOURCES: Dict[str, TraceSource] = {
    source.name: source
    for source in (
        *(SynthSource(p.name, p.display) for p in WORKLOADS.values()),
        MixSource(),
        *(SynthSource(p.name, p.display) for p in SCENARIO_WORKLOADS.values()),
    )
}


def source_names() -> List[str]:
    """Registered source names (synthetic profiles plus ``mix``), in order."""
    return list(_SOURCES)


def available_sources() -> List[str]:
    """Every name :func:`resolve` accepts right now: the registered
    sources plus one ``external:<name>`` entry per ingested trace."""
    from repro.trace import ingest

    return source_names() + [
        EXTERNAL_PREFIX + name for name in ingest.available_external()
    ]


def is_external(workload: str) -> bool:
    return workload.startswith(EXTERNAL_PREFIX)


def resolve(workload: str) -> TraceSource:
    """The source registered under *workload*; raises ``ValueError`` with
    the available names on a miss (eager, so catalog/RunSpec typos fail at
    declaration time rather than deep inside a worker)."""
    source = _SOURCES.get(workload)
    if source is not None:
        return source
    if is_external(workload):
        from repro.trace import ingest

        name = workload[len(EXTERNAL_PREFIX):]
        if name and ingest.external_exists(name):
            return ExternalSource(workload)
        raise ValueError(
            f"external trace {name!r} is not ingested — run "
            f"'repro-trace ingest' first (ingested: {ingest.available_external()})"
        )
    raise ValueError(
        f"unknown workload {workload!r}; available sources: {available_sources()}"
    )


def validate_workload(workload: str) -> None:
    """Eagerly check *workload* names a resolvable source (see
    :func:`resolve`)."""
    resolve(workload)


def traces_for(
    workload: str, n_cores: int, seed: int, n_instructions: int
) -> List[Trace]:
    """Resolve and produce: the single name → traces entry point."""
    return resolve(workload).traces(n_cores, seed, n_instructions)


def source_display_name(workload: str) -> str:
    """Human-readable label for any resolvable workload name."""
    source = _SOURCES.get(workload)
    if source is not None:
        return source.display_name()
    if is_external(workload):
        return workload[len(EXTERNAL_PREFIX):]
    return workload
