"""Calibrated per-workload profiles and the trace-generation entry point.

The four profiles model the paper's four commercial applications.  Each is
tuned toward the published characteristics:

========  =====================  ==========================================
Workload  Paper observation      Profile consequence
========  =====================  ==========================================
``db``    OLTP database; high    large code footprint, call-heavy, deep
          L1I and L2 I-miss      call chains, very large cold data region
          rates                  (buffer pool)
``tpcw``  transactional web      mid-size footprint, moderate branching,
          benchmark              large session data
``japp``  SPECjAppServer2002:    largest footprint, smallest basic blocks,
          *highest* L1I miss     deepest call stacks, most polymorphic call
          rate (≈3.2%/instr)     sites (Java virtual dispatch)
``web``   SPECweb99: *lowest*    smallest footprint, more loop-oriented
          L1I miss rate          (content streaming), shallow calls
          (≈1.3%/instr)
========  =====================  ==========================================

Calibration is validated by ``tests/integration/test_calibration.py``
against the paper's Figure 1/Figure 3 bands.
"""

from __future__ import annotations

from typing import Dict, List

from repro.trace.stream import Trace
from repro.trace.synth.params import WorkloadProfile
from repro.trace.synth.walker import generate_program_trace
from repro.util.units import KB, MB

DB_PROFILE = WorkloadProfile(
    name="db",
    display="DB",
    n_functions=3400,
    fn_median_instr=105,
    fn_sigma=1.0,
    block_mean_instr=6.5,
    entry_fraction=0.12,
    p_cond=0.33,
    p_uncond=0.08,
    p_call=0.13,
    p_switch=0.02,
    p_early_return=0.03,
    p_backward=0.20,
    fwd_skip_mean=2.2,
    p_poly_call=0.08,
    callee_zipf=0.65,
    entry_zipf=0.30,
    text_shared_fraction=0.48,
    max_call_depth=26,
    max_transaction_instr=10_000,
    data_rate=0.38,
    p_reuse=0.87,
    reuse_window_lines=384,
    hot_bytes=256 * KB,
    hot_zipf=0.95,
    cold_bytes=48 * MB,
    p_cold=0.10,
    cold_zipf=0.72,
)

TPCW_PROFILE = WorkloadProfile(
    name="tpcw",
    display="TPC-W",
    n_functions=3100,
    fn_median_instr=95,
    fn_sigma=0.95,
    block_mean_instr=6.0,
    entry_fraction=0.14,
    p_cond=0.34,
    p_uncond=0.08,
    p_call=0.12,
    p_switch=0.02,
    p_early_return=0.03,
    p_backward=0.22,
    fwd_skip_mean=2.0,
    p_poly_call=0.12,
    callee_zipf=0.68,
    entry_zipf=0.32,
    text_shared_fraction=0.48,
    max_call_depth=24,
    max_transaction_instr=8_000,
    data_rate=0.36,
    p_reuse=0.88,
    reuse_window_lines=384,
    hot_bytes=224 * KB,
    hot_zipf=0.95,
    cold_bytes=32 * MB,
    p_cold=0.08,
    cold_zipf=0.75,
)

JAPP_PROFILE = WorkloadProfile(
    name="japp",
    display="jApp",
    n_functions=5200,
    fn_median_instr=80,
    fn_sigma=1.05,
    block_mean_instr=5.2,
    entry_fraction=0.12,
    p_cond=0.33,
    p_uncond=0.09,
    p_call=0.15,
    p_switch=0.02,
    p_early_return=0.04,
    p_backward=0.16,
    fwd_skip_mean=2.0,
    p_poly_call=0.22,
    poly_targets=3,
    callee_zipf=0.59,
    entry_zipf=0.28,
    text_shared_fraction=0.60,
    max_call_depth=32,
    max_transaction_instr=10_000,
    data_rate=0.34,
    p_reuse=0.88,
    reuse_window_lines=416,
    hot_bytes=288 * KB,
    hot_zipf=0.95,
    cold_bytes=40 * MB,
    p_cold=0.08,
    cold_zipf=0.72,
)

WEB_PROFILE = WorkloadProfile(
    name="web",
    display="Web",
    n_functions=2300,
    fn_median_instr=90,
    fn_sigma=0.9,
    block_mean_instr=7.0,
    entry_fraction=0.16,
    p_cond=0.36,
    p_uncond=0.07,
    p_call=0.10,
    p_switch=0.015,
    p_early_return=0.025,
    p_backward=0.30,
    fwd_skip_mean=1.8,
    loop_taken_lo=0.80,
    loop_taken_hi=0.94,
    p_poly_call=0.06,
    callee_zipf=0.70,
    entry_zipf=0.40,
    text_shared_fraction=0.55,
    max_call_depth=18,
    max_transaction_instr=3_200,
    data_rate=0.35,
    p_reuse=0.90,
    reuse_window_lines=384,
    hot_bytes=160 * KB,
    hot_zipf=0.95,
    cold_bytes=24 * MB,
    p_cold=0.06,
    cold_zipf=0.78,
)

#: Registry of the paper's workloads in presentation order.
WORKLOADS: Dict[str, WorkloadProfile] = {
    profile.name: profile
    for profile in (DB_PROFILE, TPCW_PROFILE, JAPP_PROFILE, WEB_PROFILE)
}

# --------------------------------------------------------------------------
# Beyond-the-paper scenario families.
#
# The paper's four applications stress discontinuity prefetching in the
# regime it was designed for.  These three families deliberately push past
# it (ROADMAP "scenario expansion"): traversal-heavy call graphs in the
# style of Murthy & Sohi's program-map workloads, indirect-dispatch code
# the discontinuity table tracks poorly, and trap-dominated kernels.

MICROSVC_PROFILE = WorkloadProfile(
    name="microsvc",
    display="MicroSvc",
    n_functions=6400,
    fn_median_instr=60,
    fn_sigma=1.0,
    block_mean_instr=5.5,
    entry_fraction=0.10,
    p_cond=0.30,
    p_uncond=0.07,
    p_call=0.21,
    p_switch=0.015,
    p_early_return=0.05,
    p_backward=0.14,
    fwd_skip_mean=2.0,
    p_poly_call=0.16,
    poly_targets=4,
    callee_zipf=0.50,
    entry_zipf=0.25,
    text_shared_fraction=0.55,
    max_call_depth=48,
    max_transaction_instr=6_000,
    data_rate=0.34,
    p_reuse=0.86,
    reuse_window_lines=384,
    hot_bytes=192 * KB,
    hot_zipf=0.90,
    cold_bytes=28 * MB,
    p_cold=0.09,
    cold_zipf=0.74,
)

INTERP_PROFILE = WorkloadProfile(
    name="interp",
    display="Interp",
    n_functions=2800,
    fn_median_instr=120,
    fn_sigma=1.1,
    block_mean_instr=5.0,
    entry_fraction=0.08,
    p_cond=0.28,
    p_uncond=0.06,
    p_call=0.09,
    p_switch=0.12,
    p_early_return=0.02,
    p_backward=0.34,
    fwd_skip_mean=2.4,
    loop_taken_lo=0.82,
    loop_taken_hi=0.95,
    loop_span_max=16,
    p_poly_call=0.28,
    poly_targets=8,
    switch_targets=24,
    callee_zipf=0.72,
    entry_zipf=0.35,
    text_shared_fraction=0.65,
    max_call_depth=22,
    max_transaction_instr=12_000,
    data_rate=0.40,
    p_reuse=0.90,
    reuse_window_lines=448,
    hot_bytes=320 * KB,
    hot_zipf=0.92,
    cold_bytes=20 * MB,
    p_cold=0.05,
    cold_zipf=0.75,
)

OSMIX_PROFILE = WorkloadProfile(
    name="osmix",
    display="OSMix",
    n_functions=4200,
    fn_median_instr=100,
    fn_sigma=1.0,
    block_mean_instr=6.0,
    entry_fraction=0.13,
    p_cond=0.33,
    p_uncond=0.09,
    p_call=0.13,
    p_switch=0.02,
    p_early_return=0.03,
    p_backward=0.20,
    fwd_skip_mean=2.2,
    far_jump_fraction=0.30,
    p_poly_call=0.10,
    callee_zipf=0.62,
    entry_zipf=0.30,
    text_shared_fraction=0.70,
    max_call_depth=30,
    max_transaction_instr=9_000,
    p_trap=0.012,
    data_rate=0.37,
    p_reuse=0.86,
    reuse_window_lines=384,
    hot_bytes=256 * KB,
    hot_zipf=0.93,
    cold_bytes=36 * MB,
    p_cold=0.10,
    cold_zipf=0.72,
)

#: the scenario families, kept *separate* from :data:`WORKLOADS` so the
#: paper-replication experiments (whose grids expand ``workload_names()``)
#: keep their exact pre-existing RunSpec sets.
SCENARIO_WORKLOADS: Dict[str, WorkloadProfile] = {
    profile.name: profile
    for profile in (MICROSVC_PROFILE, INTERP_PROFILE, OSMIX_PROFILE)
}


def workload_names() -> List[str]:
    """Return the four workload identifiers in the paper's order."""
    return list(WORKLOADS)


def synth_workload_names() -> List[str]:
    """Every synthesizable profile name: the paper's four plus the
    scenario families (``mix`` is a composition, not a profile)."""
    return list(WORKLOADS) + list(SCENARIO_WORKLOADS)


def get_profile(name: str) -> WorkloadProfile:
    """Return the profile registered under *name*.

    Raises ``KeyError`` with the available names on a miss.
    """
    profile = WORKLOADS.get(name) or SCENARIO_WORKLOADS.get(name)
    if profile is None:
        raise KeyError(
            f"unknown workload {name!r}; available: {synth_workload_names()}"
        )
    return profile


def generate_trace(name: str, seed: int, n_instructions: int, core: int = 0) -> Trace:
    """Generate a trace for the named workload.

    Args:
        name: one of :func:`workload_names`.
        seed: experiment seed; the same (name, seed, n, core) tuple always
            produces an identical trace.
        n_instructions: minimum instruction count (the walk finishes its
            last transaction, so the result may slightly exceed this).
        core: decorrelates the *walk* only — all cores of one seed share
            the same program structure (same binary, different threads).
    """
    profile = get_profile(name)
    return generate_program_trace(profile, seed, n_instructions, core=core)
