"""The per-core front-end engine.

One :class:`CoreEngine` walks one core's trace at cache-line-visit
granularity, performing for each visit:

1. **Prefetch issue** — drain the prefetch queue using the tag-probe slots
   accumulated since the previous visit (§4.1: prefetches use the tag port
   only when demand fetch doesn't need it).
2. **Demand fetch** — L1I lookup; on a miss, fetch through the L2/memory,
   charging the fetch stall (instruction misses stall the pipeline for
   their full exposed latency).  First use of a prefetched line clears its
   ``prefetched`` bit (the tagged trigger), credits the predicting table
   entry, and charges only the *residual* latency if the fill is still in
   flight.
3. **Discontinuity observation** — non-sequential transitions are reported
   to the prefetcher (allocation happens only for transitions that missed).
4. **Prefetch generation** — the prefetcher's candidates are filtered
   through the queue.
5. **Data accesses** — run against the L1D and unified L2, charging the
   exposed fraction of their latency; this is the data stream that the
   instruction prefetcher's L2 pollution hurts (Figure 7).
6. **Execution** — ``ninstr / issue_width`` cycles of issue-bound progress.

The engine is steppable (one visit per :meth:`step`) so the CMP system can
interleave cores in global cycle order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Optional

from repro.caches.cache import SetAssociativeCache
from repro.caches.line import LineState
from repro.caches.mshr import OutstandingRequestTracker
from repro.cmp.link import OffChipLink
from repro.core.l2policy import NORMAL_INSTALL, L2InstallPolicy
from repro.core.metrics import CoreStats
from repro.isa.classify import MissClass, classify_transition
from repro.isa.kinds import TransitionKind
from repro.prefetch.base import Prefetcher
from repro.prefetch.queue import PrefetchQueue
from repro.timing.params import TimingParams
from repro.trace.compiled import CompiledTrace, TraceLike

#: at most this many prefetches are issued per visit, bounding queue-drain
#: work even across very long stalls.
_MAX_ISSUE_PER_VISIT = 8


@dataclass
class EngineConfig:
    """Static configuration of one core engine."""

    core_id: int = 0
    warm_instructions: int = 0
    #: miss classes whose fetch stalls are waived (Figure 4 limit study).
    free_miss_classes: FrozenSet[MissClass] = frozenset()
    l2_policy: L2InstallPolicy = NORMAL_INSTALL
    #: Luk & Mowry-style re-prefetch filter (paper §2.4): drop prefetches
    #: for L2 lines marked as previously-prefetched-but-unused.
    useless_hint_filter: bool = False


class CoreEngine:
    """Trace-driven model of one core's front end and data path."""

    def __init__(
        self,
        config: EngineConfig,
        trace: TraceLike,
        line_size: int,
        l1i: SetAssociativeCache,
        l1d: SetAssociativeCache,
        l2: SetAssociativeCache,
        link: OffChipLink,
        prefetcher: Prefetcher,
        queue: PrefetchQueue,
        timing: TimingParams,
    ) -> None:
        # The engine steps one format: packed CompiledTrace columns read by
        # index (no generator frame, no LineVisit allocation per visit).  A
        # raw Trace is compiled once here, under its own provenance.
        if not isinstance(trace, CompiledTrace):
            trace = CompiledTrace.compile(
                trace,
                line_size,
                workload=trace.name,
                seed=trace.seed,
                core=config.core_id,
                n_instructions=trace.total_instructions,
            )
        elif trace.line_size != line_size:
            raise ValueError(
                f"trace compiled for line_size={trace.line_size}, "
                f"engine configured for {line_size}"
            )
        self.config = config
        self.trace = trace
        self.l1i = l1i
        self.l1d = l1d
        self.l2 = l2
        self.link = link
        self.prefetcher = prefetcher
        self.queue = queue
        self.timing = timing
        self.stats = CoreStats()

        self.cycle: float = 0.0
        self.total_instructions: int = 0
        self._line_shift = line_size.bit_length() - 1
        self._visit_index = 0
        self._c_lines = trace.lines
        self._c_kinds = trace.kinds
        self._c_ninstr = trace.ninstr
        self._c_data = trace.data
        self._c_offsets = trace.offsets
        self._c_disc = trace.disc
        self._c_count = trace.visit_count
        self._prev_line = -1
        self._slot_credit = 0.0
        self._last_slot_cycle = 0.0
        self._warmed = config.warm_instructions == 0
        self._warm_target = config.warm_instructions
        self._cycle_mark = 0.0
        self._mshr = OutstandingRequestTracker(timing.prefetch_mshr_capacity)
        self._exec_cpi = 1.0 / timing.issue_width + timing.base_cpi_overhead
        self._free_kind = self._build_free_kind_table(config.free_miss_classes)
        self._finished = False
        # step() and its callees run once per line visit — the simulator's
        # hottest loop.  Everything below is immutable for the engine's
        # lifetime, so hoist the repeated attribute chains (timing scalars,
        # bound methods of the caches/queue/prefetcher) into
        # locals-at-one-load distance.  l2_eviction_hook is deliberately NOT
        # hoisted: the system wires it up after construction.
        self._fetch_stall_exposed = timing.fetch_stall_exposed_fraction
        self._slot_rate = timing.prefetch_slot_rate
        self._l2_latency = float(timing.l2_latency)
        self._memory_latency = timing.memory_latency
        self._data_l2_exposed = timing.l2_latency * timing.data_l2_exposed_fraction
        self._data_memory_exposed = timing.data_memory_exposed_fraction
        self._l2_policy = config.l2_policy
        self._useless_hint_filter = config.useless_hint_filter
        self._l1i_lookup = l1i.lookup
        self._l1i_probe = l1i.probe
        self._l1d_lookup = l1d.lookup
        self._l2_lookup = l2.lookup
        self._l2_probe = l2.probe
        self._link_request = link.request
        self._queue_offer = queue.offer
        self._queue_pop_ready = queue.pop_ready
        self._queue_note_demand = queue.note_demand_fetch
        self._pf_on_demand_fetch = prefetcher.on_demand_fetch
        self._pf_on_discontinuity = prefetcher.on_discontinuity
        self._pf_credit = prefetcher.credit
        self._pf_overhead = prefetcher.consume_overhead_cycles
        #: optional callback invoked with the line index of every L2
        #: victim this engine causes; the CMP system uses it to implement
        #: inclusive-L2 back-invalidation of all cores' L1s.
        self.l2_eviction_hook: Optional[Callable[[int], None]] = None

    @staticmethod
    def _build_free_kind_table(free_classes: FrozenSet[MissClass]):
        """Per-kind bool list: is this transition kind's miss waived?"""
        return [classify_transition(kind) in free_classes for kind in TransitionKind]

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #

    @property
    def finished(self) -> bool:
        return self._finished

    def step(self) -> bool:
        """Process the next line visit; return False when the trace ends."""
        return self._step_compiled()

    def _step_compiled(self) -> bool:
        """Read the next visit's packed columns by index, allocation-free."""
        i = self._visit_index
        if i >= self._c_count:
            self._finished = True
            self.stats.cycles = self.cycle - self._cycle_mark
            return False
        self._visit_index = i + 1
        start = self._c_offsets[i]
        end = self._c_offsets[i + 1]
        return self._process_visit(
            self._c_lines[i],
            self._c_kinds[i],
            self._c_ninstr[i],
            self._c_data[start:end] if end > start else (),
            self._c_disc[i] != 0,
        )

    def _process_visit(self, line, kind, ninstr, data, disc) -> bool:
        """Steps (1)-(6) for one visit."""
        now = self.cycle
        stats = self.stats

        # (1) prefetch issue opportunities accumulated since the last visit.
        # Inlined no-slot guard: when the accrued credit stays below one
        # slot, store it back without the queue-drain call (the common
        # case).  Bit-identical to calling _issue_prefetches — the same
        # floats are computed in the same order.
        last = self._last_slot_cycle
        credit = self._slot_credit + (now - last) * self._slot_rate
        if credit < 1.0:
            self._last_slot_cycle = now
            self._slot_credit = credit
        else:
            self._issue_prefetches(now)

        # (2) demand fetch.  The stall is *computed* here but the clock only
        # advances after prefetch generation (step 4), because the miss
        # itself is what triggers the prefetcher in hardware: its requests
        # go out while the demand fill is still in flight, overlapping the
        # stall.  That overlap is precisely how a tagged next-line chain
        # hides latency on a sequential run.
        stats.l1i_fetches += 1
        state = self._l1i_lookup(line)
        first_use = False
        stall = 0.0
        if state is not None:
            was_miss = False
            if state.prefetched:
                first_use = True
                state.prefetched = False
                pf = stats.prefetch
                pf.useful += 1
                if state.from_memory:
                    pf.useful_from_memory += 1
                if state.provenance is not None:
                    self._pf_credit(state.provenance)
                if state.arrival > now:
                    # Late prefetch: stall for the residual fill latency.
                    stall = state.arrival - now
                    pf.useful_late += 1
            state.used = True
        else:
            was_miss = True
            stats.l1i_misses += 1
            stats.l1i_breakdown.record(kind)
            stall = self._demand_fill(line, kind, now)
            if self._free_kind[kind]:
                stall = 0.0

        # (3) discontinuity observation (flag precomputed at trace-compile
        # time).
        if disc:
            self._pf_on_discontinuity(self._prev_line, line, was_miss)
        self._prev_line = line

        # (4) prefetch generation + filtering; newly generated prefetches
        # may issue during the demand stall (the fetch unit is idle, so the
        # tag port is free — §4.1).
        self._queue_note_demand(line)
        candidates = self._pf_on_demand_fetch(line, was_miss, first_use, kind)
        if candidates:
            stats.prefetch.generated += len(candidates)
            offer = self._queue_offer
            for candidate in candidates:
                if candidate.line != line:
                    offer(candidate)
        if stall > 0.0:
            # The OoO window hides a slice of every fetch stall; only the
            # exposed fraction reaches the clock.
            stall *= self._fetch_stall_exposed
            stats.fetch_stall_cycles += stall
            # Same inlined guard as step (1): _last_slot_cycle already
            # equals `now` here (both step-(1) branches set it), so the
            # drain call sees zero elapsed time and only the explicit
            # stall-granted credit matters.
            credit = self._slot_credit + stall * self._slot_rate
            self._slot_credit = credit
            if credit >= 1.0:
                self._issue_prefetches(now)
            now += stall
            # The stall window's slots were granted explicitly above; do not
            # grant them again from elapsed time at the next visit.
            self._last_slot_cycle = now

        overhead = self._pf_overhead()
        if overhead:
            stats.exec_cycles += overhead
            now += overhead

        # (5) data accesses.  The L1D-hit check is inlined: a hit costs no
        # cycles (now + 0.0 == now exactly), so only misses take the call.
        if data:
            shift = self._line_shift
            l1d_lookup = self._l1d_lookup
            for addr in data:
                stats.data_accesses += 1
                dline = addr >> shift
                if l1d_lookup(dline) is None:
                    now += self._data_miss(dline, now)

        # (6) execution.
        exec_cycles = ninstr * self._exec_cpi
        stats.exec_cycles += exec_cycles
        now += exec_cycles
        self.cycle = now
        stats.instructions += ninstr
        self.total_instructions += ninstr

        if not self._warmed and self.total_instructions >= self._warm_target:
            self._end_warmup()
        return True

    def run(self) -> CoreStats:
        """Run the whole trace; return the measurement-window stats."""
        step = self._step_compiled
        while step():
            pass
        return self.stats

    def _end_warmup(self) -> None:
        """Zero the counters at the warm/measure boundary."""
        self._warmed = True
        self.stats.reset()
        self._cycle_mark = self.cycle

    # ------------------------------------------------------------------ #
    # Fill paths
    # ------------------------------------------------------------------ #

    def _install_l2(self, line: int, state: LineState) -> None:
        """Install into the L2, reporting the victim to the inclusion hook."""
        victim = self.l2.install(line, state)
        if victim is not None and self.l2_eviction_hook is not None:
            self.l2_eviction_hook(victim[0])

    def _demand_fill(self, line: int, kind: int, now: float) -> float:
        """Fetch *line* on a demand L1I miss; return the stall in cycles."""
        stats = self.stats
        stats.l2i_demand_accesses += 1
        l2_state = self._l2_lookup(line)
        if l2_state is not None:
            l2_state.used = True
            l2_state.prefetched = False
            l2_state.useless_hint = False
            stall = self._l2_latency
            if l2_state.arrival > now + stall:
                # The L2 copy itself is still arriving (it was installed by
                # an in-flight fill); wait for it.
                stall = l2_state.arrival - now
        else:
            stats.l2i_demand_misses += 1
            stats.l2i_breakdown.record(kind)
            start = self._link_request(now)
            stall = (start - now) + self._memory_latency
            arrival = now + stall
            self._install_l2(line, LineState(used=True, arrival=arrival))
        arrival = now + stall
        self._install_l1i(line, LineState(used=True, arrival=arrival), now)
        return stall

    def _install_l1i(self, line: int, state: LineState, now: float) -> None:
        """Install into the L1I, handling the eviction-side §7 policy."""
        victim = self.l1i.install(line, state)
        if victim is None:
            return
        victim_line, victim_state = victim
        if victim_state.prefetched:
            # Evicted without ever being demand-used.
            self.stats.prefetch.useless_evicted += 1
            if self._useless_hint_filter:
                l2_copy = self._l2_probe(victim_line)
                if l2_copy is not None:
                    l2_copy.useless_hint = True
            return
        if victim_state.bypass_pending and victim_state.used:
            # §7: proven-useful bypass line is installed into the L2 now.
            policy = self._l2_policy
            if policy.install_used_on_eviction and self._l2_probe(victim_line) is None:
                self._install_l2(victim_line, LineState(used=True, arrival=now))
                self.stats.prefetch.promoted_to_l2 += 1

    # ------------------------------------------------------------------ #
    # Prefetch issue
    # ------------------------------------------------------------------ #

    def _issue_prefetches(self, now: float) -> None:
        """Drain the queue using tag slots accrued since the last visit."""
        elapsed = now - self._last_slot_cycle
        self._last_slot_cycle = now
        credit = self._slot_credit + elapsed * self._slot_rate
        slots = int(credit)
        if slots <= 0:
            self._slot_credit = credit
            return
        if slots > _MAX_ISSUE_PER_VISIT:
            slots = _MAX_ISSUE_PER_VISIT
            credit = float(slots)
        self._slot_credit = credit - slots

        if self.queue.waiting == 0:
            # Nothing ready: the scan below would find nothing and mutate
            # nothing, so skipping it is exact — and O(1) instead of a walk
            # over stale entries.  (Slot credit above is still consumed, as
            # the scan's issue loop would have.)
            return

        pop_ready = self._queue_pop_ready
        probe = self._l1i_probe
        stats = self.stats.prefetch
        policy = self._l2_policy
        for _ in range(slots):
            entry = pop_ready()
            if entry is None:
                break
            line = entry.line
            # Tag probe (§4.1): after filtering, most probes should miss.
            if probe(line) is not None:
                stats.probe_found_present += 1
                continue
            if not self._mshr.can_accept(now):
                # MSHR file full: put the entry back and stop for now.
                self.queue.requeue(entry)
                break
            self._issue_one(line, entry.provenance, now, policy, stats)

    def _issue_one(self, line, provenance, now, policy, stats) -> None:
        l2_state = self._l2_probe(line)
        if (
            l2_state is not None
            and self._useless_hint_filter
            and l2_state.useless_hint
        ):
            stats.dropped_useless_hint += 1
            return
        if l2_state is not None:
            arrival = now + self._l2_latency
            if l2_state.arrival > arrival:
                arrival = l2_state.arrival
            if policy.promote_on_prefetch_hit:
                self.l2.touch(line)
            stats.issued += 1
            stats.issued_from_l2 += 1
            self._install_l1i(
                line,
                LineState(prefetched=True, arrival=arrival, provenance=provenance),
                now,
            )
            return
        start = self._link_request(now)
        arrival = start + self._memory_latency
        self._mshr.add(line, arrival, now)
        stats.issued += 1
        stats.issued_from_memory += 1
        bypass = not policy.install_prefetch_fills
        if not bypass:
            self._install_l2(line, LineState(prefetched=True, arrival=arrival))
        self._install_l1i(
            line,
            LineState(
                prefetched=True,
                arrival=arrival,
                bypass_pending=bypass,
                from_memory=True,
                provenance=provenance,
            ),
            now,
        )

    # ------------------------------------------------------------------ #
    # Data path
    # ------------------------------------------------------------------ #

    def _data_miss(self, line: int, now: float) -> float:
        """Run one data access that missed the L1D; return the exposed stall.

        The L1D lookup (and the ``data_accesses`` count) happens at the call
        site in :meth:`_process_visit` so hits never pay a method call.
        """
        stats = self.stats
        stats.l1d_misses += 1
        stats.l2d_accesses += 1
        l2_state = self._l2_lookup(line)
        if l2_state is not None:
            l2_state.used = True
            exposed = self._data_l2_exposed
        else:
            stats.l2d_misses += 1
            start = self._link_request(now)
            raw = (start - now) + self._memory_latency
            exposed = raw * self._data_memory_exposed
            self._install_l2(line, LineState(used=True, arrival=now + raw))
        self.l1d.install(line, LineState(used=True))
        stats.data_stall_cycles += exposed
        return exposed
