"""The trace walker: stochastic execution of a static program.

The walker runs *transactions*: it picks an entry function (Zipf popularity
over the program's entry points — a few services dominate), walks the call
graph until the entry returns, then starts the next transaction.  This
matches the paper's workloads, which are "transaction-oriented and do not
exhibit phase changes".

Only outcomes are sampled at walk time (conditional taken/not-taken, switch
target, polymorphic callee); all targets are static program structure, so
discontinuities repeat across transactions — the property the discontinuity
prefetcher learns.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.isa.kinds import TransitionKind
from repro.trace.record import BlockEvent
from repro.trace.stream import Trace
from repro.trace.synth.datagen import DataStream
from repro.trace.synth.params import WorkloadProfile
from repro.trace.synth.program import Program, TermKind, build_program
from repro.util.rng import SplitMix64, derive_seed

_SEQ = int(TransitionKind.SEQUENTIAL)
_TF = int(TransitionKind.COND_TAKEN_FWD)
_TB = int(TransitionKind.COND_TAKEN_BWD)
_NT = int(TransitionKind.COND_NOT_TAKEN)
_UNCOND = int(TransitionKind.UNCOND_BRANCH)
_CALL = int(TransitionKind.CALL)
_JUMP = int(TransitionKind.JUMP)
_RETURN = int(TransitionKind.RETURN)
_TRAP = int(TransitionKind.TRAP)


class TraceWalker:
    """Walks a :class:`~repro.trace.synth.program.Program`, emitting events."""

    def __init__(self, program: Program, seed: int, core: int = 0) -> None:
        self.program = program
        self.profile: WorkloadProfile = program.profile
        self._rng = SplitMix64(derive_seed(seed, "walker"))
        self._data = DataStream(self.profile, derive_seed(seed, "datastream"), core=core)
        self._seed = seed

    def walk(self, n_instructions: int) -> Trace:
        """Generate a trace of at least *n_instructions* instructions.

        The walk always completes the transaction in progress when the
        budget is reached, so the trace ends at a transaction boundary and
        may slightly exceed the requested count.
        """
        if n_instructions <= 0:
            raise ValueError(f"n_instructions must be positive, got {n_instructions}")

        rng = self._rng
        profile = self.profile
        program = self.program
        functions = program.functions
        entries = program.entry_indices
        trap_handlers = program.trap_handler_indices
        data = self._data
        events: List[BlockEvent] = []
        emitted = 0
        p_trap = profile.p_trap
        max_depth = profile.max_call_depth

        max_txn = profile.max_transaction_instr
        while emitted < n_instructions:
            # --- one transaction ---
            entry_rank = rng.zipf_index(len(entries), profile.entry_zipf)
            fn_index = entries[entry_rank]
            # (function index, block index) frames; the stack holds the
            # *continuation* of each suspended caller.
            stack: List[Tuple[int, int]] = []
            fn = functions[fn_index]
            blocks = fn.blocks
            block_index = 0
            pending_kind = _CALL  # transaction dispatch is itself a call
            txn_budget = emitted + max_txn

            while True:
                if emitted >= txn_budget:
                    # Transaction instruction budget exhausted: the service
                    # completes (remaining unwinding elided).
                    break
                block = blocks[block_index]
                ninstr = block.ninstr
                data.set_stack_depth(len(stack))
                accesses = data.accesses_for_block(ninstr)
                events.append(BlockEvent(block.addr, ninstr, pending_kind, accesses))
                emitted += ninstr

                # Rare trap injection: call a distant trap handler, then
                # resume at the interrupted block's terminator decision.
                if p_trap and rng.random() < p_trap and len(stack) < max_depth:
                    handler = functions[trap_handlers[rng.randrange(len(trap_handlers))]]
                    hblock = handler.blocks[0]
                    data.set_stack_depth(len(stack) + 1)
                    events.append(
                        BlockEvent(
                            hblock.addr,
                            hblock.ninstr,
                            _TRAP,
                            data.accesses_for_block(hblock.ninstr),
                        )
                    )
                    emitted += hblock.ninstr
                    pending_kind = _RETURN
                else:
                    pending_kind = _SEQ

                term = block.term
                if term == TermKind.FALLTHROUGH:
                    block_index += 1
                elif term == TermKind.COND:
                    if rng.random() < block.taken_prob:
                        target = block.target
                        if pending_kind == _SEQ:
                            pending_kind = _TB if target <= block_index else _TF
                        block_index = target
                    else:
                        if pending_kind == _SEQ:
                            pending_kind = _NT
                        block_index += 1
                elif term == TermKind.UNCOND:
                    if pending_kind == _SEQ:
                        pending_kind = _UNCOND
                    block_index = block.target
                elif term == TermKind.CALL:
                    if len(stack) >= max_depth:
                        # Depth cap: elide the call, fall through.
                        block_index += 1
                    else:
                        callees = block.callees
                        if len(callees) == 1:
                            callee = callees[0]
                            if pending_kind == _SEQ:
                                pending_kind = _CALL
                        else:
                            callee = callees[rng.randrange(len(callees))]
                            if pending_kind == _SEQ:
                                pending_kind = _JUMP
                        stack.append((fn_index, block_index + 1))
                        fn_index = callee
                        fn = functions[fn_index]
                        blocks = fn.blocks
                        block_index = 0
                        continue
                elif term == TermKind.SWITCH:
                    targets = block.switch_targets
                    if pending_kind == _SEQ:
                        pending_kind = _JUMP
                    block_index = targets[rng.randrange(len(targets))]
                elif term == TermKind.RETURN:
                    if not stack:
                        break  # transaction complete
                    fn_index, block_index = stack.pop()
                    fn = functions[fn_index]
                    blocks = fn.blocks
                    if pending_kind == _SEQ:
                        pending_kind = _RETURN
                    continue
                else:  # pragma: no cover - exhaustive enum
                    raise AssertionError(f"unknown terminator {term}")

                if block_index >= len(blocks):
                    # A fall-through past the last block behaves as a return.
                    if not stack:
                        break
                    fn_index, block_index = stack.pop()
                    fn = functions[fn_index]
                    blocks = fn.blocks
                    if pending_kind == _SEQ:
                        pending_kind = _RETURN

        return Trace(self.profile.name, self._seed, events)


#: address stride between the per-core instances of one program (32MB —
#: far larger than any code footprint, far below the data region base).
CORE_CODE_STRIDE = 1 << 25


class CoreWalk(NamedTuple):
    """One core's trace request: which program, which walk, which rebases.

    The program *structure* is derived from ``seed`` alone
    (``derive_seed(seed, "structure", profile.name)``); ``core``
    decorrelates the walk (``derive_seed(seed, "run", profile.name,
    core)``), places the core's private data regions and rebases the
    private text by ``core * CORE_CODE_STRIDE``.  ``offset`` then shifts
    every code and data address (the mix's disjoint regions).  Both
    synthesizers — :func:`walk_traces` and the compiled
    :mod:`repro.trace.synth.native` — consume exactly this description.
    """

    profile: WorkloadProfile
    seed: int
    core: int = 0
    offset: int = 0

    @property
    def structure_seed(self) -> int:
        return derive_seed(self.seed, "structure", self.profile.name)

    @property
    def run_seed(self) -> int:
        return derive_seed(self.seed, "run", self.profile.name, self.core)


def walk_traces(walks: Sequence[CoreWalk], n_instructions: int) -> List[Trace]:
    """One trace of *n_instructions* per :class:`CoreWalk`.

    Walks sharing a program (same profile and seed — every core of a
    homogeneous CMP) build it once.

    Modeling decision (see DESIGN.md): commercial middleware of the
    paper's era commonly ran one process/JVM per core, and JIT-compiled or
    per-process text is not shared between instances.  Only the
    *shared-text* region of the program (kernel/libraries — the profile's
    ``text_shared_fraction``) occupies common L2 lines across cores; the
    private-text region is rebased per core.  The resulting CMP code
    footprint exceeds the single core's, which is the mechanism behind
    the paper's Figure 2 observation that CMP L2 instruction miss rates
    substantially exceed the single core's.  The per-core *data* streams
    still share the cold region (buffer pool / shared heap) — see
    :mod:`repro.trace.synth.datagen`.
    """
    programs: Dict[Tuple[WorkloadProfile, int], Program] = {}
    traces: List[Trace] = []
    for walk in walks:
        key = (walk.profile, walk.structure_seed)
        program = programs.get(key)
        if program is None:
            program = programs[key] = build_program(*key)
        trace = TraceWalker(program, walk.run_seed, core=walk.core).walk(n_instructions)
        if walk.core:
            shift = walk.core * CORE_CODE_STRIDE
            boundary = program.private_text_start
            trace = Trace(
                trace.name,
                trace.seed,
                [
                    BlockEvent(
                        event[0] + shift if event[0] >= boundary else event[0],
                        event[1],
                        event[2],
                        event[3],
                    )
                    for event in trace.events
                ],
            )
        if walk.offset:
            trace = trace.rebased(walk.offset)
        traces.append(trace)
    return traces


def generate_program_trace(
    profile: WorkloadProfile, seed: int, n_instructions: int, core: int = 0
) -> Trace:
    """One core's trace: :func:`walk_traces` of a single :class:`CoreWalk`."""
    return walk_traces([CoreWalk(profile, seed, core)], n_instructions)[0]
