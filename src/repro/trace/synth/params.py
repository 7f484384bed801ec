"""Workload profile parameters.

A :class:`WorkloadProfile` fully determines a synthetic workload given a
seed: the static program shape (code footprint, function/block geometry,
control-flow mix, call-graph skew) and the dynamic behaviour (transaction
entry popularity, loop trip counts, data-access rate and working sets).

The four shipped profiles (``db``, ``tpcw``, ``japp``, ``web``) live in
:mod:`repro.trace.synth.workloads`; their values are calibrated so the
resulting traces land in the paper's published bands (Figure 1 miss rates,
Figure 3 miss-category mix).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_positive, check_probability


@dataclass(frozen=True)
class WorkloadProfile:
    """All knobs of a synthetic commercial workload.

    Static program shape:

    Attributes:
        name: short identifier (``"db"``, ``"tpcw"``, ...); the workload
            name every registry keys the profile by.
        display: paper-style label for tables and figures (``"TPC-W"``);
            empty shows ``name``.  Presentation only: it never reaches a
            seed, a trace or a cache key.
        n_functions: number of functions in the program.
        fn_median_instr: median function size in instructions (log-normal).
        fn_sigma: spread (in octaves) of the function-size distribution.
        fn_min_instr / fn_max_instr: clamp bounds for function sizes.
        block_mean_instr: mean basic-block size in instructions (geometric);
            commercial workloads have small blocks (~5-8 instructions).
        entry_fraction: fraction of functions that are transaction entry
            points (service roots).

    Control-flow mix (per interior basic block, probabilities of each
    terminator; the remainder falls through):

    Attributes:
        p_cond: conditional branch.
        p_uncond: unconditional forward branch.
        p_call: function call.
        p_switch: indirect intra-function jump (switch/computed goto).
        p_early_return: return before the last block.
        p_backward: given a conditional branch, probability its target is
            backward (a loop); forward otherwise.
        fwd_skip_mean: mean forward-skip distance in blocks for taken-forward
            branches (geometric; small values keep most tf targets within
            the 4-line window the paper observes).
        fwd_taken_lo / fwd_taken_hi: per-branch taken-probability range for
            forward conditional branches.
        loop_taken_lo / loop_taken_hi: per-branch taken-probability range
            for backward (loop) branches; e.g. 0.85 gives ~6.7 iterations.
        loop_span_max: maximum backward distance (blocks) of a loop branch.
        p_poly_call: probability a call site is polymorphic (indirect call
            through a register — recorded as a ``JUMP`` transition, like
            SPARC ``jmpl``); monomorphic sites are direct ``CALL`` s.
        poly_targets: number of candidate callees at a polymorphic site.
        switch_targets: number of targets of an intra-function switch.
        far_jump_fraction: fraction of unconditional branches that target
            distant code (cleanup/error paths at the end of the function)
            rather than skipping a few blocks.
        callee_zipf: Zipf skew of static callee popularity (call graph).
        entry_zipf: Zipf skew of transaction entry-point popularity.
        text_shared_fraction: fraction of functions whose text is shared
            between the cores of a homogeneous CMP (kernel, libc, shared
            libraries); the remainder is per-core private (per-process
            server code, JIT-compiled method bodies).  Controls how much
            the CMP's combined code footprint exceeds the single core's —
            the paper's Figure 2 CMP increase.
        max_call_depth: call-stack depth limit; deeper calls are elided.
        max_transaction_instr: per-transaction instruction budget.  The call
            graph is a super-critical branching process (several call sites
            per function execution), so an uncapped transaction would be
            astronomically long; real OLTP/web transactions run tens of
            thousands of instructions, which is what this models.
        p_trap: per-block-visit probability of taking a trap (tiny, matching
            the paper's "traps account for a negligible fraction").

    Data stream:

    Attributes:
        data_rate: mean data accesses per instruction (loads + stores).
        p_reuse: probability a data access re-touches a recently used line
            (stack/locals/hot fields); directly dials the L1D hit rate.
        reuse_window_lines: number of recent distinct lines the reuse
            accesses draw from (kept below the L1D's line count so reuse
            accesses are L1D hits).
        hot_bytes: size of the hot data region (mostly L2-resident);
            fresh (non-reuse) accesses usually land here.
        hot_zipf: Zipf skew of hot-region line popularity; the popular head
            stays L2-resident while the tail is capacity-sensitive, which
            is what makes the L2 data miss rate respond to instruction-
            prefetch pollution (Figure 7).
        cold_bytes: size of the cold data region (buffer pool / heap);
            drives L2 data misses and keeps the L2 under capacity pressure.
        p_cold: probability a *fresh* access targets the cold region.
        cold_zipf: Zipf skew of cold-region line popularity.
        cold_private_fraction: fraction of cold accesses that target a
            per-core *private* slice of the heap (connection state, session
            caches) instead of the shared buffer pool; multiplies the CMP's
            distinct-line flow through the shared L2.
    """

    name: str
    display: str = ""
    # --- static program shape ---
    n_functions: int = 3000
    fn_median_instr: int = 90
    fn_sigma: float = 1.0
    fn_min_instr: int = 6
    fn_max_instr: int = 4000
    block_mean_instr: float = 6.0
    entry_fraction: float = 0.15
    # --- control-flow mix ---
    p_cond: float = 0.34
    p_uncond: float = 0.08
    p_call: float = 0.12
    p_switch: float = 0.02
    p_early_return: float = 0.03
    p_backward: float = 0.22
    fwd_skip_mean: float = 2.0
    fwd_taken_lo: float = 0.25
    fwd_taken_hi: float = 0.65
    loop_taken_lo: float = 0.75
    loop_taken_hi: float = 0.92
    loop_span_max: int = 12
    p_poly_call: float = 0.10
    poly_targets: int = 3
    switch_targets: int = 4
    far_jump_fraction: float = 0.15
    callee_zipf: float = 0.85
    entry_zipf: float = 0.55
    text_shared_fraction: float = 0.45
    max_call_depth: int = 24
    max_transaction_instr: int = 20_000
    p_trap: float = 0.00015
    # --- data stream ---
    data_rate: float = 0.36
    p_reuse: float = 0.88
    reuse_window_lines: int = 384
    hot_bytes: int = 256 * 1024
    hot_zipf: float = 0.60
    cold_bytes: int = 24 * 1024 * 1024
    p_cold: float = 0.08
    cold_zipf: float = 0.70
    cold_private_fraction: float = 0.25

    #: address-space base for code (functions are laid out from here).
    code_base: int = 0x10000
    #: alignment (bytes) of function entry points.
    fn_align: int = 16

    def __post_init__(self) -> None:
        check_positive("n_functions", self.n_functions)
        check_positive("fn_median_instr", self.fn_median_instr)
        # Both feed SplitMix64.geometric, whose support starts at 1.
        for attr in ("block_mean_instr", "fwd_skip_mean"):
            if getattr(self, attr) < 1.0:
                raise ValueError(f"{attr} must be >= 1, got {getattr(self, attr)}")
        if self.fn_min_instr < 1 or self.fn_max_instr < self.fn_min_instr:
            raise ValueError(
                f"invalid function size bounds [{self.fn_min_instr}, {self.fn_max_instr}]"
            )
        for attr in (
            "entry_fraction",
            "p_cond",
            "p_uncond",
            "p_call",
            "p_switch",
            "p_early_return",
            "p_backward",
            "fwd_taken_lo",
            "fwd_taken_hi",
            "loop_taken_lo",
            "loop_taken_hi",
            "p_poly_call",
            "far_jump_fraction",
            "p_trap",
            "p_cold",
            "p_reuse",
            "cold_private_fraction",
            "text_shared_fraction",
        ):
            check_probability(attr, getattr(self, attr))
        total = self.p_cond + self.p_uncond + self.p_call + self.p_switch + self.p_early_return
        if total > 1.0:
            raise ValueError(f"terminator probabilities sum to {total:.3f} > 1")
        if self.fwd_taken_hi < self.fwd_taken_lo:
            raise ValueError("fwd_taken_hi < fwd_taken_lo")
        if self.loop_taken_hi < self.loop_taken_lo:
            raise ValueError("loop_taken_hi < loop_taken_lo")
        check_positive("max_call_depth", self.max_call_depth)
        check_positive("max_transaction_instr", self.max_transaction_instr)
        check_positive("data_rate", self.data_rate)
        check_positive("reuse_window_lines", self.reuse_window_lines)
        check_positive("hot_bytes", self.hot_bytes)
        check_positive("cold_bytes", self.cold_bytes)
        check_positive("fn_align", self.fn_align)

    @property
    def approx_code_footprint_bytes(self) -> int:
        """Rough expected code footprint (mean fn size × count × 4B)."""
        # Log-normal mean exceeds the median; 1.3x is a serviceable estimate
        # for the sigma range the shipped profiles use.
        mean_instr = int(self.fn_median_instr * 1.3)
        return self.n_functions * mean_instr * 4
