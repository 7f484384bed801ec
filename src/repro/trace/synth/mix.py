"""Mixed (multiprogrammed) workload composition.

The paper's ``Mix`` workload runs one of the four applications on each core
of the 4-way CMP — a multiprogrammed workload, so the four programs share
no code.  We realise that by *rebasing* each workload's trace into a
disjoint address region before handing one trace to each core.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.trace.stream import Trace
from repro.trace.synth.walker import CoreWalk, walk_traces
from repro.trace.synth.workloads import get_profile, workload_names
from repro.util.rng import derive_seed

#: address-region stride between programs of the mix (1TB apart: far larger
#: than any code+data footprint, so regions can never overlap).
MIX_REGION_STRIDE = 1 << 40


def mix_walks(seed: int, names: Sequence[str] = ()) -> List[CoreWalk]:
    """The per-core walks of the mixed workload: core *k* runs ``names[k]``
    as a single-core program under its own derived seed, moved into the
    *k*-th disjoint address region.  ``names`` defaults to the paper's
    four applications in order."""
    chosen = list(names) if names else workload_names()
    return [
        CoreWalk(
            get_profile(name),
            derive_seed(seed, "mix", core, name),
            offset=core * MIX_REGION_STRIDE,
        )
        for core, name in enumerate(chosen)
    ]


def mixed_traces(
    seed: int,
    n_instructions_per_core: int,
    names: Sequence[str] = (),
) -> List[Trace]:
    """Return one rebased trace per core for the mixed workload.

    Args:
        seed: experiment seed.
        n_instructions_per_core: instruction budget for each core's trace.
        names: workload names, one per core; defaults to the paper's
            four applications in order.
    """
    return walk_traces(mix_walks(seed, names), n_instructions_per_core)
