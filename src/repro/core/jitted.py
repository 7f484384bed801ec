"""The jit engine backend: compiled scalar-exact kernels via the C toolchain.

:class:`JittedCoreEngine` executes the reference
:class:`~repro.core.engine.CoreEngine` per-visit semantics inside one
compiled kernel and produces **bit-identical** results — same stats, same
floats, same eviction order.  It also owns the *multi-core* interleave
loop: :meth:`JittedCoreEngine.run_multicore` runs the whole
smallest-clock-first core interleave of
:meth:`repro.cmp.system.System.run` inside the kernel, so ``n_cores > 1``
is batch-stepped instead of one Python step per visit.

How it is compiled
------------------

The kernel is plain C, embedded below as a source string
(:func:`kernel_source`), compiled once per source hash with the system C
compiler (``cc -O2 -fPIC -shared -ffp-contract=off``) into a shared object
cached under ``REPRO_JIT_CACHE_DIR`` (default ``.repro-cache/jit``), and
loaded through :mod:`ctypes` — all by :mod:`repro.util.ccompile`, which
also builds the compiled trace synthesizer.  This needs no third-party
package: the kernel is available wherever a C compiler is — environments
without one fall back to the reference backend with one logged warning
(:func:`jit_available`).

Why the results are exactly equal
---------------------------------

CPython floats are IEEE-754 doubles; the kernel performs the *same
operations in the same order* on C ``double``.  ``-ffp-contract=off``
forbids fused multiply-add contraction and no fast-math flags are used,
so every intermediate rounds exactly like the interpreter's.  Integer
state (line indices, counters) is ``long long``; ``int(credit)`` becomes
the equally-truncating C cast.  Each reference structure is replicated
with explicit arrays:

- cache sets become per-set way arrays ordered LRU → MRU (an
  ``OrderedDict.move_to_end`` is a remove + append, ``popitem(last=False)``
  removes index 0);
- the prefetch queue/recent-demand filter/MSHR become capacity-sized flat
  arrays with the reference's exact scan, hoist and overflow behavior;
- the discontinuity table becomes three flat arrays (``None`` sources
  encoded as ``-1``).

Eligibility: all-LRU caches, no inclusive-L2 back-invalidation hook, and
a prefetcher whose semantics the kernel replicates (the ``none``/
sequential/lookahead/discontinuity families).  Anything else degrades to exact reference
stepping via ``super()`` — never to approximate fast behavior — so every
registered prefetcher passes the backend parity suite by construction.

State ownership: once an engine binds its state into the kernel (first
``step()``/``run()`` on an eligible config), the C state is authoritative
for cache/queue/MSHR/table *contents*.  Scalars and every stats object are
synced back after each kernel call, so ``--verify`` lockstep, the CMP
interleave driven from Python, and all result aggregation see exact
values.  When an engine finishes inside the kernel (``run()``,
``run_multicore()`` or the final ``step()``), its L1I, L1D and the shared
L2 are handed their C images and decode them on first read, so the public
cache inspection API (``probe``, ``resident_lines``, ``in``, ``len``)
sees exactly what the reference engine leaves behind.  Queue, MSHR and
discontinuity-table contents have no reader outside the engine and stay
C-resident.  Engines of one system share one :class:`_JitSystem` (the C
images of the shared L2 and off-chip link), keyed by link identity.
"""

from __future__ import annotations

import ctypes
import logging

# The toolchain runs in repro.util.ccompile; this module's ``subprocess``
# attribute is the same module object, so patching ``jitted.subprocess.run``
# still intercepts every compile.
import subprocess  # noqa: F401
import weakref
from collections import OrderedDict
from typing import List, Optional

from repro.caches.cache import SetAssociativeCache
from repro.caches.line import LineState
from repro.core.engine import CoreEngine
from repro.core.metrics import CoreStats
from repro.isa.kinds import TransitionKind
from repro.prefetch.base import NullPrefetcher
from repro.prefetch.discontinuity import DiscontinuityPrefetcher
from repro.prefetch.sequential import (
    LookaheadN,
    NextLineAlways,
    NextLineOnMiss,
    NextLineTagged,
    NextNLineTagged,
)
from repro.util import ccompile

logger = logging.getLogger(__name__)

_N_KINDS = len(TransitionKind)

#: widest discontinuity prefetch-ahead the kernel's fixed probe-hit
#: scratch arrays accommodate (the paper uses 4; ablations go to 8).
_MAX_DISC_AHEAD = 32

#: most cores one compiled interleave can hold (paper CMP is 4).
_MAX_CORES = 256


def kernel_source() -> str:
    """The C kernel, embedded so lint R6 fingerprints it like Python.

    Every function mirrors one reference hot path (named in the comment
    above it); the R6 ``PAIRS`` table points the reference side of each
    pair at this function, so editing ``engine.py``/``queue.py``/
    ``discontinuity.py`` hot paths without touching the kernel fails lint.
    """
    return r"""
/* repro jit kernel — scalar-exact replica of repro.core.engine.CoreEngine.
 *
 * Float discipline: compiled with -ffp-contract=off and no fast-math, so
 * every double op rounds exactly like the CPython interpreter's.  All
 * expressions below copy the reference source's operation order verbatim.
 */
#include <string.h>

/* repro.caches.line.LineState */
typedef struct {
    long long tag;
    double arrival;
    long long prov_kind;   /* 0 none, 1 ("seq",), 2 ("disc", index, line) */
    long long prov_index;
    long long prov_line;
    unsigned char prefetched, used, bypass_pending, from_memory, useless_hint;
} CLine;

/* repro.caches.cache.SetAssociativeCache (LRU only); each set is a way
 * array ordered LRU -> MRU with a live count. */
typedef struct {
    long long set_mask;
    long long assoc;
    CLine *lines;          /* (set_mask + 1) * assoc entries */
    long long *counts;     /* set_mask + 1 entries */
    long long lookups, hits, misses, installs, evictions;
} CCache;

/* repro.prefetch.queue.QueueEntry */
typedef struct {
    long long line;
    long long prov_kind, prov_index, prov_line;
    long long state;       /* QueueState: 0 WAITING, 1 ISSUED, 2 INVALID */
} CQEntry;

/* repro.prefetch.queue.PrefetchQueue + util.containers.BoundedRecentSet */
typedef struct {
    long long capacity, recent_capacity;
    long long lifo, filtering;
    CQEntry *entries;      /* capacity entries, oldest -> newest */
    long long n_entries;
    long long *recent;     /* recent_capacity + 1 entries, oldest -> newest */
    long long n_recent;
    long long waiting;
    long long offered, accepted, dropped_recent_demand, dropped_dup_issued,
        dropped_dup_invalid, hoisted, invalidated_by_demand, overflow_drops,
        popped;
} CQueue;

/* repro.prefetch.discontinuity.DiscontinuityTable (None source == -1) */
typedef struct {
    long long mask;
    long long counter_max;
    long long *sources;
    long long *targets;
    long long *counters;
    long long allocations, replacements, replacement_denied, target_updates,
        probe_hits, credits;
} CTable;

/* repro.cmp.link.OffChipLink */
typedef struct {
    double next_free, occupancy;
    long long requests;
    double busy_cycles, queue_delay_cycles;
} CLink;

/* One core: CoreEngine scalars + CoreStats + private components.  The L2
 * and link are pointers so sibling cores of one system share them. */
typedef struct {
    /* compiled trace columns (borrowed from the Python arrays) */
    const long long *t_lines;
    const signed char *t_kinds;
    const int *t_ninstr;
    const long long *t_data;
    const long long *t_offsets;
    const signed char *t_disc;
    long long visit_index, visit_count;

    /* clock / slot credit / warm boundary */
    double cycle, slot_credit, last_slot_cycle, cycle_mark;
    long long prev_line;
    long long total_instructions;
    long long warmed, warm_target, finished;

    /* timing scalars (precomputed by the Python engine, passed verbatim) */
    double slot_rate, exec_cpi, l2_latency, memory_latency,
        fetch_stall_exposed, data_l2_exposed, data_memory_exposed;
    long long line_shift;

    /* config flags */
    long long useless_hint_filter;
    long long pol_install_fills, pol_promote, pol_evict_install;
    const signed char *free_kind;   /* one flag per TransitionKind */

    /* prefetcher: 0 none, 1 nl-always, 2 nl-on-miss, 3 nl-tagged,
     * 4 next-N-line (ahead=degree), 5 lookahead-N (ahead=distance),
     * 6 discontinuity (ahead=prefetch_ahead, probe=probe_ahead) */
    long long pf_mode, pf_ahead, pf_probe;
    CTable table;

    /* CoreStats */
    long long instructions;
    double st_cycles, exec_cycles, fetch_stall_cycles, data_stall_cycles;
    long long l1i_fetches, l1i_misses, l2i_demand_accesses, l2i_demand_misses;
    long long data_accesses, l1d_misses, l2d_accesses, l2d_misses;
    long long *l1i_breakdown;
    long long *l2i_breakdown;

    /* PrefetchStats */
    long long generated, probe_found_present, issued, issued_from_l2,
        issued_from_memory, useful, useful_late, useful_from_memory,
        useless_evicted, dropped_useless_hint, promoted_to_l2;

    /* components */
    CCache l1i, l1d;
    CCache *l2;
    CLink *link;
    CQueue queue;

    /* repro.caches.mshr.OutstandingRequestTracker (insertion order kept) */
    long long *mshr_lines;
    double *mshr_arrivals;
    long long mshr_n, mshr_cap;
} CCore;

/* ---------------- SetAssociativeCache (LRU) ---------------- */

/* lookup(line) with update_recency=True */
static CLine *cache_lookup(CCache *cc, long long line) {
    long long si = line & cc->set_mask;
    CLine *base = cc->lines + si * cc->assoc;
    long long cnt = cc->counts[si];
    long long k, j;
    cc->lookups++;
    for (k = 0; k < cnt; k++) {
        if (base[k].tag == line) {
            cc->hits++;
            if (k != cnt - 1) {          /* move_to_end */
                CLine tmp = base[k];
                for (j = k; j < cnt - 1; j++) base[j] = base[j + 1];
                base[cnt - 1] = tmp;
            }
            return &base[cnt - 1];
        }
    }
    cc->misses++;
    return 0;
}

/* probe(line): tag check, no stats, no recency */
static CLine *cache_probe(CCache *cc, long long line) {
    long long si = line & cc->set_mask;
    CLine *base = cc->lines + si * cc->assoc;
    long long cnt = cc->counts[si], k;
    for (k = 0; k < cnt; k++)
        if (base[k].tag == line) return &base[k];
    return 0;
}

/* touch(line): recency only */
static void cache_touch(CCache *cc, long long line) {
    long long si = line & cc->set_mask;
    CLine *base = cc->lines + si * cc->assoc;
    long long cnt = cc->counts[si], k, j;
    for (k = 0; k < cnt; k++) {
        if (base[k].tag == line) {
            if (k != cnt - 1) {
                CLine tmp = base[k];
                for (j = k; j < cnt - 1; j++) base[j] = base[j + 1];
                base[cnt - 1] = tmp;
            }
            return;
        }
    }
}

/* install(line, state): returns 1 and fills *victim when a line was
 * evicted (resident replace refreshes recency, evicts nothing). */
static int cache_install(CCache *cc, const CLine *state, CLine *victim) {
    long long line = state->tag;
    long long si = line & cc->set_mask;
    CLine *base = cc->lines + si * cc->assoc;
    long long cnt = cc->counts[si], k, j;
    cc->installs++;
    for (k = 0; k < cnt; k++) {
        if (base[k].tag == line) {
            for (j = k; j < cnt - 1; j++) base[j] = base[j + 1];
            base[cnt - 1] = *state;
            return 0;
        }
    }
    if (cnt >= cc->assoc) {              /* popitem(last=False) */
        cc->evictions++;
        *victim = base[0];
        for (j = 0; j < cnt - 1; j++) base[j] = base[j + 1];
        cc->counts[si] = cnt;            /* cnt-1 evicted + 1 appended */
        base[cnt - 1] = *state;
        return 1;
    }
    base[cnt] = *state;
    cc->counts[si] = cnt + 1;
    return 0;
}

static CLine mkline(long long tag, int prefetched, int used, double arrival,
                    int bypass, int from_memory, long long pk, long long pi,
                    long long pl) {
    CLine s;
    s.tag = tag;
    s.arrival = arrival;
    s.prov_kind = pk;
    s.prov_index = pi;
    s.prov_line = pl;
    s.prefetched = (unsigned char)prefetched;
    s.used = (unsigned char)used;
    s.bypass_pending = (unsigned char)bypass;
    s.from_memory = (unsigned char)from_memory;
    s.useless_hint = 0;
    return s;
}

/* ---------------- OffChipLink.request ---------------- */

static double link_request(CLink *l, double now) {
    double start = l->next_free > now ? l->next_free : now;
    l->next_free = start + l->occupancy;
    l->requests++;
    l->busy_cycles += l->occupancy;
    l->queue_delay_cycles += start - now;
    return start;
}

/* ---------------- PrefetchQueue ---------------- */

/* note_demand_fetch(line): recent-set refresh + waiting-dup invalidation */
static void queue_note_demand(CQueue *q, long long line) {
    long long n, k, j, found;
    if (!q->filtering) return;
    n = q->n_recent;
    found = -1;
    for (k = 0; k < n; k++)
        if (q->recent[k] == line) { found = k; break; }
    if (found >= 0) {                    /* move_to_end */
        for (j = found; j < n - 1; j++) q->recent[j] = q->recent[j + 1];
        q->recent[n - 1] = line;
    } else {
        q->recent[n++] = line;
        if (n > q->recent_capacity) {    /* popitem(last=False) */
            for (j = 0; j < n - 1; j++) q->recent[j] = q->recent[j + 1];
            n--;
        }
        q->n_recent = n;
    }
    for (k = 0; k < q->n_entries; k++) { /* filtered: unique per line */
        if (q->entries[k].line == line) {
            if (q->entries[k].state == 0) {
                q->entries[k].state = 2;
                q->waiting--;
                q->invalidated_by_demand++;
            }
            break;
        }
    }
}

/* offer(candidate): filters, hoist, overflow — reference order exactly */
static void queue_offer(CQueue *q, long long line, long long pk, long long pi,
                        long long pl) {
    long long k, j;
    CQEntry *e;
    q->offered++;
    if (q->filtering) {
        for (k = 0; k < q->n_recent; k++)
            if (q->recent[k] == line) { q->dropped_recent_demand++; return; }
        for (k = 0; k < q->n_entries; k++) {
            if (q->entries[k].line == line) {
                long long st = q->entries[k].state;
                if (st == 0) {           /* hoist to the LIFO head */
                    CQEntry tmp = q->entries[k];
                    for (j = k; j < q->n_entries - 1; j++)
                        q->entries[j] = q->entries[j + 1];
                    q->entries[q->n_entries - 1] = tmp;
                    q->hoisted++;
                } else if (st == 1) {
                    q->dropped_dup_issued++;
                } else {
                    q->dropped_dup_invalid++;
                }
                return;
            }
        }
    }
    if (q->n_entries >= q->capacity) {   /* drop the oldest entry */
        if (q->entries[0].state == 0) q->waiting--;
        for (j = 0; j < q->n_entries - 1; j++) q->entries[j] = q->entries[j + 1];
        q->n_entries--;
        q->overflow_drops++;
    }
    e = &q->entries[q->n_entries++];
    e->line = line;
    e->prov_kind = pk;
    e->prov_index = pi;
    e->prov_line = pl;
    e->state = 0;
    q->accepted++;
    q->waiting++;
}

/* pop_ready(): newest-first scan (LIFO); entry stays as filter memory */
static long long queue_pop_ready(CQueue *q) {
    long long k;
    if (q->lifo) {
        for (k = q->n_entries - 1; k >= 0; k--)
            if (q->entries[k].state == 0) break;
    } else {
        for (k = 0; k < q->n_entries; k++)
            if (q->entries[k].state == 0) break;
        if (k >= q->n_entries) k = -1;
    }
    if (k < 0) return -1;
    q->entries[k].state = 1;
    q->waiting--;
    q->popped++;
    return k;
}

/* ---------------- OutstandingRequestTracker ---------------- */

static void mshr_prune(CCore *c, double now) {
    long long n = c->mshr_n, w = 0, k;
    for (k = 0; k < n; k++) {
        if (c->mshr_arrivals[k] > now) {
            c->mshr_lines[w] = c->mshr_lines[k];
            c->mshr_arrivals[w] = c->mshr_arrivals[k];
            w++;
        }
    }
    c->mshr_n = w;
}

static int mshr_can_accept(CCore *c, double now) {
    mshr_prune(c, now);
    return c->mshr_n < c->mshr_cap;
}

/* dict overwrite keeps the original position; append otherwise */
static void mshr_add(CCore *c, long long line, double arrival, double now) {
    long long k;
    mshr_prune(c, now);
    for (k = 0; k < c->mshr_n; k++)
        if (c->mshr_lines[k] == line) { c->mshr_arrivals[k] = arrival; return; }
    c->mshr_lines[c->mshr_n] = line;
    c->mshr_arrivals[c->mshr_n] = arrival;
    c->mshr_n++;
}

/* ---------------- DiscontinuityTable ---------------- */

static void table_observe(CTable *t, long long src, long long tgt) {
    long long idx = src & t->mask;
    long long res = t->sources[idx];
    if (res == src) {
        if (t->targets[idx] == tgt) return;
        if (t->counters[idx] == 0) {
            t->targets[idx] = tgt;
            t->counters[idx] = t->counter_max;
            t->target_updates++;
        } else {
            t->counters[idx]--;
        }
        return;
    }
    if (res == -1) {
        t->sources[idx] = src;
        t->targets[idx] = tgt;
        t->counters[idx] = t->counter_max;
        t->allocations++;
        return;
    }
    if (t->counters[idx] == 0) {
        t->sources[idx] = src;
        t->targets[idx] = tgt;
        t->counters[idx] = t->counter_max;
        t->replacements++;
    } else {
        t->counters[idx]--;
        t->replacement_denied++;
    }
}

static int table_predict(CTable *t, long long src, long long *target) {
    long long idx = src & t->mask;
    if (t->sources[idx] == src) {
        t->probe_hits++;
        *target = t->targets[idx];
        return 1;
    }
    return 0;
}

static void table_credit(CTable *t, long long idx, long long src) {
    if (t->sources[idx] == src) {
        if (t->counters[idx] < t->counter_max) t->counters[idx]++;
        t->credits++;
    }
}

/* ---------------- CoreEngine fill paths ---------------- */

static void install_l2(CCore *c, const CLine *state) {
    CLine victim;
    cache_install(c->l2, state, &victim);
    /* l2_eviction_hook is None on this path (binding eligibility) */
}

/* CoreEngine._install_l1i */
static void install_l1i(CCore *c, const CLine *state, double now) {
    CLine victim;
    if (!cache_install(&c->l1i, state, &victim)) return;
    if (victim.prefetched) {
        c->useless_evicted++;
        if (c->useless_hint_filter) {
            CLine *l2_copy = cache_probe(c->l2, victim.tag);
            if (l2_copy) l2_copy->useless_hint = 1;
        }
        return;
    }
    if (victim.bypass_pending && victim.used) {
        if (c->pol_evict_install && cache_probe(c->l2, victim.tag) == 0) {
            CLine promoted = mkline(victim.tag, 0, 1, now, 0, 0, 0, 0, 0);
            install_l2(c, &promoted);
            c->promoted_to_l2++;
        }
    }
}

/* CoreEngine._demand_fill */
static double demand_fill(CCore *c, long long line, long long kind, double now) {
    CLine *l2_state;
    double stall, arrival;
    CLine fill;
    c->l2i_demand_accesses++;
    l2_state = cache_lookup(c->l2, line);
    if (l2_state) {
        l2_state->used = 1;
        l2_state->prefetched = 0;
        l2_state->useless_hint = 0;
        stall = c->l2_latency;
        if (l2_state->arrival > now + stall) stall = l2_state->arrival - now;
    } else {
        double start;
        c->l2i_demand_misses++;
        c->l2i_breakdown[kind]++;
        start = link_request(c->link, now);
        stall = (start - now) + c->memory_latency;
        arrival = now + stall;
        fill = mkline(line, 0, 1, arrival, 0, 0, 0, 0, 0);
        install_l2(c, &fill);
    }
    arrival = now + stall;
    fill = mkline(line, 0, 1, arrival, 0, 0, 0, 0, 0);
    install_l1i(c, &fill, now);
    return stall;
}

/* CoreEngine._issue_one */
static void issue_one(CCore *c, long long line, long long pk, long long pi,
                      long long pl, double now) {
    CLine *l2_state = cache_probe(c->l2, line);
    double start, arrival;
    CLine fill;
    int bypass;
    if (l2_state && c->useless_hint_filter && l2_state->useless_hint) {
        c->dropped_useless_hint++;
        return;
    }
    if (l2_state) {
        arrival = now + c->l2_latency;
        if (l2_state->arrival > arrival) arrival = l2_state->arrival;
        if (c->pol_promote) cache_touch(c->l2, line);
        c->issued++;
        c->issued_from_l2++;
        fill = mkline(line, 1, 0, arrival, 0, 0, pk, pi, pl);
        install_l1i(c, &fill, now);
        return;
    }
    start = link_request(c->link, now);
    arrival = start + c->memory_latency;
    mshr_add(c, line, arrival, now);
    c->issued++;
    c->issued_from_memory++;
    bypass = !c->pol_install_fills;
    if (!bypass) {
        fill = mkline(line, 1, 0, arrival, 0, 0, 0, 0, 0);
        install_l2(c, &fill);
    }
    fill = mkline(line, 1, 0, arrival, bypass, 1, pk, pi, pl);
    install_l1i(c, &fill, now);
}

/* CoreEngine._issue_prefetches (_MAX_ISSUE_PER_VISIT == 8) */
static void issue_prefetches(CCore *c, double now) {
    double elapsed = now - c->last_slot_cycle;
    double credit;
    long long slots, s;
    c->last_slot_cycle = now;
    credit = c->slot_credit + elapsed * c->slot_rate;
    slots = (long long)credit;
    if (slots <= 0) { c->slot_credit = credit; return; }
    if (slots > 8) { slots = 8; credit = (double)slots; }
    c->slot_credit = credit - (double)slots;
    if (c->queue.waiting == 0) return;
    for (s = 0; s < slots; s++) {
        long long ei = queue_pop_ready(&c->queue);
        CQEntry *e;
        if (ei < 0) break;
        e = &c->queue.entries[ei];
        if (cache_probe(&c->l1i, e->line)) {
            c->probe_found_present++;
            continue;
        }
        if (!mshr_can_accept(c, now)) {  /* requeue + stop */
            e->state = 0;
            c->queue.waiting++;
            break;
        }
        issue_one(c, e->line, e->prov_kind, e->prov_index, e->prov_line, now);
    }
}

/* CoreEngine._data_miss */
static double data_miss(CCore *c, long long line, double now) {
    CLine *l2_state;
    double exposed;
    CLine fill, victim;
    c->l1d_misses++;
    c->l2d_accesses++;
    l2_state = cache_lookup(c->l2, line);
    if (l2_state) {
        l2_state->used = 1;
        exposed = c->data_l2_exposed;
    } else {
        double start, raw;
        c->l2d_misses++;
        start = link_request(c->link, now);
        raw = (start - now) + c->memory_latency;
        exposed = raw * c->data_memory_exposed;
        fill = mkline(line, 0, 1, now + raw, 0, 0, 0, 0, 0);
        install_l2(c, &fill);
    }
    fill = mkline(line, 0, 1, 0.0, 0, 0, 0, 0, 0);
    cache_install(&c->l1d, &fill, &victim);
    c->data_stall_cycles += exposed;
    return exposed;
}

/* CoreStats.reset at the warm/measure boundary */
static void reset_stats(CCore *c) {
    long long k;
    c->instructions = 0;
    c->st_cycles = 0.0;
    c->exec_cycles = 0.0;
    c->fetch_stall_cycles = 0.0;
    c->data_stall_cycles = 0.0;
    c->l1i_fetches = 0;
    c->l1i_misses = 0;
    c->l2i_demand_accesses = 0;
    c->l2i_demand_misses = 0;
    c->data_accesses = 0;
    c->l1d_misses = 0;
    c->l2d_accesses = 0;
    c->l2d_misses = 0;
    for (k = 0; k < 9; k++) {            /* len(TransitionKind) == 9 */
        c->l1i_breakdown[k] = 0;
        c->l2i_breakdown[k] = 0;
    }
    c->generated = 0;
    c->probe_found_present = 0;
    c->issued = 0;
    c->issued_from_l2 = 0;
    c->issued_from_memory = 0;
    c->useful = 0;
    c->useful_late = 0;
    c->useful_from_memory = 0;
    c->useless_evicted = 0;
    c->dropped_useless_hint = 0;
    c->promoted_to_l2 = 0;
}

/* CoreEngine._process_visit, steps (1)-(6) */
static void process_visit(CCore *c) {
    long long i = c->visit_index;
    long long line = c->t_lines[i];
    long long kind = (long long)c->t_kinds[i];
    long long ninstr = (long long)c->t_ninstr[i];
    long long dstart = c->t_offsets[i];
    long long dend = c->t_offsets[i + 1];
    int disc = c->t_disc[i] != 0;
    double now = c->cycle;
    double last, credit, stall, exec_cycles;
    CLine *state;
    int first_use = 0, was_miss;
    long long di;
    c->visit_index = i + 1;

    /* (1) prefetch issue, with the inlined no-slot guard */
    last = c->last_slot_cycle;
    credit = c->slot_credit + (now - last) * c->slot_rate;
    if (credit < 1.0) {
        c->last_slot_cycle = now;
        c->slot_credit = credit;
    } else {
        issue_prefetches(c, now);
    }

    /* (2) demand fetch */
    c->l1i_fetches++;
    state = cache_lookup(&c->l1i, line);
    stall = 0.0;
    if (state) {
        was_miss = 0;
        if (state->prefetched) {
            first_use = 1;
            state->prefetched = 0;
            c->useful++;
            if (state->from_memory) c->useful_from_memory++;
            if (state->prov_kind == 2 && c->pf_mode == 6)
                table_credit(&c->table, state->prov_index, state->prov_line);
            if (state->arrival > now) {
                stall = state->arrival - now;
                c->useful_late++;
            }
        }
        state->used = 1;
    } else {
        was_miss = 1;
        c->l1i_misses++;
        c->l1i_breakdown[kind]++;
        stall = demand_fill(c, line, kind, now);
        if (c->free_kind[kind]) stall = 0.0;
    }

    /* (3) discontinuity observation (no-op for every mode but 6) */
    if (disc && c->pf_mode == 6 && was_miss)
        table_observe(&c->table, c->prev_line, line);
    c->prev_line = line;

    /* (4) prefetch generation + filtering (queue sees the demand first) */
    queue_note_demand(&c->queue, line);
    switch (c->pf_mode) {
    case 1:                              /* next-line-always */
        c->generated += 1;
        queue_offer(&c->queue, line + 1, 1, 0, 0);
        break;
    case 2:                              /* next-line-on-miss */
        if (was_miss) {
            c->generated += 1;
            queue_offer(&c->queue, line + 1, 1, 0, 0);
        }
        break;
    case 3:                              /* next-line-tagged */
        if (was_miss || first_use) {
            c->generated += 1;
            queue_offer(&c->queue, line + 1, 1, 0, 0);
        }
        break;
    case 4:                              /* next-N-line tagged */
        if (was_miss || first_use) {
            long long d;
            c->generated += c->pf_ahead;
            for (d = 1; d <= c->pf_ahead; d++)
                queue_offer(&c->queue, line + d, 1, 0, 0);
        }
        break;
    case 5:                              /* lookahead-N */
        if (was_miss || first_use) {
            c->generated += 1;
            queue_offer(&c->queue, line + c->pf_ahead, 1, 0, 0);
        }
        break;
    case 6:                              /* discontinuity */
        if (was_miss || first_use) {
            /* The reference builds the full candidate list first (table
             * probes count probe_hits before any offer), then offers in
             * order: seq L+1..L+ahead, then each probe hit's target run. */
            long long ptgt[33], pidx[33], plin[33], prem[33];
            long long nhits = 0, total = c->pf_ahead;
            long long probe_window = c->pf_probe ? c->pf_ahead : 0;
            long long off, d, h;
            for (off = 0; off <= probe_window; off++) {
                long long probe_line = line + off, target;
                if (table_predict(&c->table, probe_line, &target)) {
                    ptgt[nhits] = target;
                    pidx[nhits] = probe_line & c->table.mask;
                    plin[nhits] = probe_line;
                    prem[nhits] = c->pf_ahead - off;
                    total += prem[nhits] + 1;
                    nhits++;
                }
            }
            c->generated += total;
            for (d = 1; d <= c->pf_ahead; d++)  /* always != line (d >= 1) */
                queue_offer(&c->queue, line + d, 1, 0, 0);
            for (h = 0; h < nhits; h++) {
                long long extra;
                for (extra = 0; extra <= prem[h]; extra++) {
                    long long cand = ptgt[h] + extra;
                    if (cand != line)
                        queue_offer(&c->queue, cand, 2, pidx[h], plin[h]);
                }
            }
        }
        break;
    default:
        break;                           /* mode 0: none */
    }

    if (stall > 0.0) {
        stall *= c->fetch_stall_exposed;
        c->fetch_stall_cycles += stall;
        credit = c->slot_credit + stall * c->slot_rate;
        c->slot_credit = credit;
        if (credit >= 1.0) issue_prefetches(c, now);
        now += stall;
        c->last_slot_cycle = now;
    }

    /* consume_overhead_cycles() is 0.0 for every kernel-supported mode */

    /* (5) data accesses */
    for (di = dstart; di < dend; di++) {
        long long dline;
        c->data_accesses++;
        dline = c->t_data[di] >> c->line_shift;
        if (cache_lookup(&c->l1d, dline) == 0) now += data_miss(c, dline, now);
    }

    /* (6) execution */
    exec_cycles = (double)ninstr * c->exec_cpi;
    c->exec_cycles += exec_cycles;
    now += exec_cycles;
    c->cycle = now;
    c->instructions += ninstr;
    c->total_instructions += ninstr;

    if (!c->warmed && c->total_instructions >= c->warm_target) {
        reset_stats(c);
        c->warmed = 1;
        c->cycle_mark = now;
    }
}

/* step()-granularity driver: process visits until *stop* (exclusive) */
void repro_span(CCore *c, long long stop) {
    if (stop > c->visit_count) stop = c->visit_count;
    while (c->visit_index < stop) process_visit(c);
}

/* CoreEngine.run(): whole trace + the trace-end finish bookkeeping */
void repro_run(CCore *c) {
    while (c->visit_index < c->visit_count) process_visit(c);
    c->finished = 1;
    c->st_cycles = c->cycle - c->cycle_mark;
}

/* System.run() multi-core branch: advance the core with the smallest
 * local clock (first minimum wins ties, matching the Python scan), drop
 * finished cores preserving order. */
void repro_run_system(CCore **cores, long long n) {
    long long active[256];
    long long na = 0, k;
    for (k = 0; k < n && k < 256; k++) active[na++] = k;
    while (na > 0) {
        long long best = 0;
        CCore *c;
        for (k = 1; k < na; k++)
            if (cores[active[k]]->cycle < cores[active[best]]->cycle) best = k;
        c = cores[active[best]];
        if (c->visit_index >= c->visit_count) {
            c->finished = 1;
            c->st_cycles = c->cycle - c->cycle_mark;
            for (k = best; k < na - 1; k++) active[k] = active[k + 1];
            na--;
        } else {
            process_visit(c);
        }
    }
}
"""


# --------------------------------------------------------------------- #
# ctypes mirrors of the kernel structs (field order must match the C)
# --------------------------------------------------------------------- #

_LL = ctypes.c_longlong
_DBL = ctypes.c_double


class _CLine(ctypes.Structure):
    _fields_ = [
        ("tag", _LL),
        ("arrival", _DBL),
        ("prov_kind", _LL),
        ("prov_index", _LL),
        ("prov_line", _LL),
        ("prefetched", ctypes.c_ubyte),
        ("used", ctypes.c_ubyte),
        ("bypass_pending", ctypes.c_ubyte),
        ("from_memory", ctypes.c_ubyte),
        ("useless_hint", ctypes.c_ubyte),
    ]


class _CCache(ctypes.Structure):
    _fields_ = [
        ("set_mask", _LL),
        ("assoc", _LL),
        ("lines", ctypes.POINTER(_CLine)),
        ("counts", ctypes.POINTER(_LL)),
        ("lookups", _LL),
        ("hits", _LL),
        ("misses", _LL),
        ("installs", _LL),
        ("evictions", _LL),
    ]


class _CQEntry(ctypes.Structure):
    _fields_ = [
        ("line", _LL),
        ("prov_kind", _LL),
        ("prov_index", _LL),
        ("prov_line", _LL),
        ("state", _LL),
    ]


class _CQueue(ctypes.Structure):
    _fields_ = [
        ("capacity", _LL),
        ("recent_capacity", _LL),
        ("lifo", _LL),
        ("filtering", _LL),
        ("entries", ctypes.POINTER(_CQEntry)),
        ("n_entries", _LL),
        ("recent", ctypes.POINTER(_LL)),
        ("n_recent", _LL),
        ("waiting", _LL),
        ("offered", _LL),
        ("accepted", _LL),
        ("dropped_recent_demand", _LL),
        ("dropped_dup_issued", _LL),
        ("dropped_dup_invalid", _LL),
        ("hoisted", _LL),
        ("invalidated_by_demand", _LL),
        ("overflow_drops", _LL),
        ("popped", _LL),
    ]


class _CTable(ctypes.Structure):
    _fields_ = [
        ("mask", _LL),
        ("counter_max", _LL),
        ("sources", ctypes.POINTER(_LL)),
        ("targets", ctypes.POINTER(_LL)),
        ("counters", ctypes.POINTER(_LL)),
        ("allocations", _LL),
        ("replacements", _LL),
        ("replacement_denied", _LL),
        ("target_updates", _LL),
        ("probe_hits", _LL),
        ("credits", _LL),
    ]


class _CLink(ctypes.Structure):
    _fields_ = [
        ("next_free", _DBL),
        ("occupancy", _DBL),
        ("requests", _LL),
        ("busy_cycles", _DBL),
        ("queue_delay_cycles", _DBL),
    ]


class _CCore(ctypes.Structure):
    _fields_ = [
        ("t_lines", ctypes.POINTER(_LL)),
        ("t_kinds", ctypes.POINTER(ctypes.c_byte)),
        ("t_ninstr", ctypes.POINTER(ctypes.c_int)),
        ("t_data", ctypes.POINTER(_LL)),
        ("t_offsets", ctypes.POINTER(_LL)),
        ("t_disc", ctypes.POINTER(ctypes.c_byte)),
        ("visit_index", _LL),
        ("visit_count", _LL),
        ("cycle", _DBL),
        ("slot_credit", _DBL),
        ("last_slot_cycle", _DBL),
        ("cycle_mark", _DBL),
        ("prev_line", _LL),
        ("total_instructions", _LL),
        ("warmed", _LL),
        ("warm_target", _LL),
        ("finished", _LL),
        ("slot_rate", _DBL),
        ("exec_cpi", _DBL),
        ("l2_latency", _DBL),
        ("memory_latency", _DBL),
        ("fetch_stall_exposed", _DBL),
        ("data_l2_exposed", _DBL),
        ("data_memory_exposed", _DBL),
        ("line_shift", _LL),
        ("useless_hint_filter", _LL),
        ("pol_install_fills", _LL),
        ("pol_promote", _LL),
        ("pol_evict_install", _LL),
        ("free_kind", ctypes.POINTER(ctypes.c_byte)),
        ("pf_mode", _LL),
        ("pf_ahead", _LL),
        ("pf_probe", _LL),
        ("table", _CTable),
        ("instructions", _LL),
        ("st_cycles", _DBL),
        ("exec_cycles", _DBL),
        ("fetch_stall_cycles", _DBL),
        ("data_stall_cycles", _DBL),
        ("l1i_fetches", _LL),
        ("l1i_misses", _LL),
        ("l2i_demand_accesses", _LL),
        ("l2i_demand_misses", _LL),
        ("data_accesses", _LL),
        ("l1d_misses", _LL),
        ("l2d_accesses", _LL),
        ("l2d_misses", _LL),
        ("l1i_breakdown", ctypes.POINTER(_LL)),
        ("l2i_breakdown", ctypes.POINTER(_LL)),
        ("generated", _LL),
        ("probe_found_present", _LL),
        ("issued", _LL),
        ("issued_from_l2", _LL),
        ("issued_from_memory", _LL),
        ("useful", _LL),
        ("useful_late", _LL),
        ("useful_from_memory", _LL),
        ("useless_evicted", _LL),
        ("dropped_useless_hint", _LL),
        ("promoted_to_l2", _LL),
        ("l1i", _CCache),
        ("l1d", _CCache),
        ("l2", ctypes.POINTER(_CCache)),
        ("link", ctypes.POINTER(_CLink)),
        ("queue", _CQueue),
        ("mshr_lines", ctypes.POINTER(_LL)),
        ("mshr_arrivals", ctypes.POINTER(_DBL)),
        ("mshr_n", _LL),
        ("mshr_cap", _LL),
    ]


# --------------------------------------------------------------------- #
# Kernel build + cache + availability
# --------------------------------------------------------------------- #

_kernel_lib: object = None
_kernel_probed = False
_compile_seconds = 0.0


def kernel_source_hash() -> str:
    """Hash naming the cached shared object (and the CI cache key)."""
    return ccompile.source_hash(kernel_source())


def _build_kernel():
    """Compile (or load from cache) the kernel; return the loaded library."""
    global _compile_seconds
    lib, seconds = ccompile.load("repro_jit", kernel_source())
    if seconds:
        _compile_seconds = seconds
    lib.repro_span.argtypes = [ctypes.POINTER(_CCore), _LL]
    lib.repro_span.restype = None
    lib.repro_run.argtypes = [ctypes.POINTER(_CCore)]
    lib.repro_run.restype = None
    lib.repro_run_system.argtypes = [ctypes.POINTER(ctypes.POINTER(_CCore)), _LL]
    lib.repro_run_system.restype = None
    return lib


def _kernel():
    """The loaded kernel library, or None when unavailable (one warning)."""
    global _kernel_lib, _kernel_probed
    if not _kernel_probed:
        _kernel_probed = True
        _kernel_lib = ccompile.load_or_warn(
            _build_kernel,
            logger,
            "jit engine backend",
            "falling back to the reference backend",
        )
    return _kernel_lib


def jit_available() -> bool:
    """True when the compiled kernel can be (or has been) loaded."""
    return _kernel() is not None


def kernel_compile_seconds() -> float:
    """One-time compile cost paid by *this* process (0.0 on a cache hit)."""
    return _compile_seconds


# --------------------------------------------------------------------- #
# Marshaling Python state into the C structs
# --------------------------------------------------------------------- #

#: exact prefetcher type -> kernel pf_mode (subclasses with overridden
#: behavior must not match, hence ``type() is``-style lookup).
_PF_MODES = {
    NullPrefetcher: 0,
    NextLineAlways: 1,
    NextLineOnMiss: 2,
    NextLineTagged: 3,
    NextNLineTagged: 4,
    LookaheadN: 5,
    DiscontinuityPrefetcher: 6,
}


def _encode_prov(provenance):
    """(kind, index, line) encoding of a candidate/line provenance."""
    if provenance is None:
        return 0, 0, 0
    tag = provenance[0]
    if tag == "seq":
        return 1, 0, 0
    if tag == "disc":
        return 2, provenance[1], provenance[2]
    raise ValueError(f"unsupported provenance {provenance!r}")


def _decode_prov(kind: int, index: int, line: int):
    """Inverse of :func:`_encode_prov`."""
    if kind == 0:
        return None
    if kind == 1:
        return ("seq",)
    return ("disc", index, line)


def _line_to_c(line: int, state) -> _CLine:
    pk, pi, pl = _encode_prov(state.provenance)
    return _CLine(
        tag=line,
        arrival=float(state.arrival),
        prov_kind=pk,
        prov_index=pi,
        prov_line=pl,
        prefetched=1 if state.prefetched else 0,
        used=1 if state.used else 0,
        bypass_pending=1 if state.bypass_pending else 0,
        from_memory=1 if state.from_memory else 0,
        useless_hint=1 if state.useless_hint else 0,
    )


_CACHE_STAT_FIELDS = ("lookups", "hits", "misses", "installs", "evictions")


class _CacheImage:
    """C image of one :class:`SetAssociativeCache` (LRU sets as arrays)."""

    def __init__(self, cache: SetAssociativeCache) -> None:
        n_sets = cache._set_mask + 1
        assoc = cache._assoc
        self.lines = (_CLine * (n_sets * assoc))()
        self.counts = (_LL * n_sets)()
        for si, cache_set in enumerate(cache._sets):
            base = si * assoc
            for k, (line, state) in enumerate(cache_set.items()):
                self.lines[base + k] = _line_to_c(line, state)
            self.counts[si] = len(cache_set)
        stats = cache.stats
        self.struct = _CCache(
            set_mask=cache._set_mask,
            assoc=assoc,
            lines=ctypes.cast(self.lines, ctypes.POINTER(_CLine)),
            counts=ctypes.cast(self.counts, ctypes.POINTER(_LL)),
            lookups=stats.lookups,
            hits=stats.hits,
            misses=stats.misses,
            installs=stats.installs,
            evictions=stats.evictions,
        )

    def decode(self) -> list:
        """The image's contents as a cache's per-set ``OrderedDict`` list
        (ways in LRU -> MRU order, every :class:`LineState` field)."""
        assoc = self.struct.assoc
        lines = self.lines
        sets = []
        for si, count in enumerate(self.counts):
            cache_set: OrderedDict = OrderedDict()
            for cl in lines[si * assoc : si * assoc + count]:
                cache_set[cl.tag] = LineState(
                    prefetched=bool(cl.prefetched),
                    used=bool(cl.used),
                    arrival=cl.arrival,
                    bypass_pending=bool(cl.bypass_pending),
                    from_memory=bool(cl.from_memory),
                    useless_hint=bool(cl.useless_hint),
                    provenance=_decode_prov(cl.prov_kind, cl.prov_index, cl.prov_line),
                )
            sets.append(cache_set)
        return sets


class _DecodedSets:
    """Stand-in for a cache's ``_sets`` once its engine finished in the
    kernel: decodes the C image on first read and puts the real per-set
    list in its own place, so later reads cost nothing extra.

    The cache is held weakly: a strong reference would form a cache ->
    stand-in -> cache cycle, keeping every finished system alive until
    the cyclic garbage collector runs.
    """

    __slots__ = ("_cache", "_image")

    def __init__(self, cache: SetAssociativeCache, image: _CacheImage) -> None:
        self._cache = weakref.ref(cache)
        self._image = image

    def _decoded(self) -> list:
        sets = self._image.decode()
        cache = self._cache()
        if cache is not None:
            cache._sets = sets
        return sets

    def __getitem__(self, index):
        return self._decoded()[index]

    def __iter__(self):
        return iter(self._decoded())


def _sync_cache_stats(cache: SetAssociativeCache, cstruct: _CCache) -> None:
    stats = cache.stats
    for name in _CACHE_STAT_FIELDS:
        setattr(stats, name, getattr(cstruct, name))


class _JitSystem:
    """Shared C images (L2 + off-chip link) for one system's engines.

    Sibling engines of one :class:`~repro.cmp.system.System` share the L2
    and link objects; their kernels must therefore share one C image of
    each.  Instances are discovered through a :data:`weakref` registry
    keyed by link identity — safe against id reuse because a live entry
    holds its link alive — and kept alive by the engines that bound them.
    """

    def __init__(self, link, l2: SetAssociativeCache) -> None:
        self.link = link
        self.l2 = l2
        self.l2_image = _CacheImage(l2)
        self.c_l2 = self.l2_image.struct
        stats = link.stats
        self.c_link = _CLink(
            next_free=link._next_free,
            occupancy=link.occupancy_cycles,
            requests=stats.requests,
            busy_cycles=stats.busy_cycles,
            queue_delay_cycles=stats.queue_delay_cycles,
        )

    def sync_out(self) -> None:
        _sync_cache_stats(self.l2, self.c_l2)
        self.link._next_free = self.c_link.next_free
        stats = self.link.stats
        stats.requests = self.c_link.requests
        stats.busy_cycles = self.c_link.busy_cycles
        stats.queue_delay_cycles = self.c_link.queue_delay_cycles


_SYSTEMS: "weakref.WeakValueDictionary[int, _JitSystem]" = weakref.WeakValueDictionary()


def _system_for(link, l2) -> _JitSystem:
    key = id(link)
    jitsys = _SYSTEMS.get(key)
    if jitsys is not None and jitsys.link is link and jitsys.l2 is l2:
        return jitsys
    jitsys = _JitSystem(link, l2)
    _SYSTEMS[key] = jitsys
    return jitsys


_QUEUE_STAT_FIELDS = (
    "offered",
    "accepted",
    "dropped_recent_demand",
    "dropped_dup_issued",
    "dropped_dup_invalid",
    "hoisted",
    "invalidated_by_demand",
    "overflow_drops",
    "popped",
)

_TABLE_STAT_FIELDS = (
    "allocations",
    "replacements",
    "replacement_denied",
    "target_updates",
    "probe_hits",
    "credits",
)

_PF_STAT_FIELDS = (
    "generated",
    "probe_found_present",
    "issued",
    "issued_from_l2",
    "issued_from_memory",
    "useful",
    "useful_late",
    "useful_from_memory",
    "useless_evicted",
    "dropped_useless_hint",
    "promoted_to_l2",
)


# --------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------- #


class JittedCoreEngine(CoreEngine):
    """Drop-in :class:`CoreEngine` stepping through the compiled kernel."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._twin_ok: Optional[bool] = None
        self._c: Optional[_CCore] = None
        self._c_started = False
        self._lib = None
        self._jit_system: Optional[_JitSystem] = None
        self._buffers: list = []
        self._cache_images: tuple = ()

    # ------------------------------------------------------------------ #
    # Eligibility + binding
    # ------------------------------------------------------------------ #

    def _twin_ready(self) -> bool:
        """Decide (once, lazily — the system wires ``l2_eviction_hook``
        after construction) whether the kernel replicates this
        configuration exactly; bind the state into C if so."""
        ok = self._twin_ok
        if ok is None:
            prefetcher = self.prefetcher
            ok = (
                self.l2_eviction_hook is None
                and self.l1i._is_lru
                and self.l1d._is_lru
                and self.l2._is_lru
                and type(prefetcher) in _PF_MODES
                and jit_available()
            )
            if ok and type(prefetcher) is DiscontinuityPrefetcher:
                ok = prefetcher.prefetch_ahead <= _MAX_DISC_AHEAD
            if ok:
                try:
                    self._bind()
                except Exception:
                    logger.exception(
                        "jit bind failed; falling back to reference stepping"
                    )
                    ok = False
            self._twin_ok = ok
        return ok

    def _bind(self) -> None:
        """Marshal the engine's entire live state into a ``CCore``."""
        lib = _kernel()
        assert lib is not None  # guarded by jit_available() in _twin_ready
        self._lib = lib
        trace = self.trace
        c = _CCore()
        keep = self._buffers

        def col(column, ctype):
            address, _length = column.buffer_info()
            return ctypes.cast(ctypes.c_void_p(address), ctypes.POINTER(ctype))

        # Trace columns are borrowed; self.trace keeps the arrays alive.
        c.t_lines = col(trace.lines, _LL)
        c.t_kinds = col(trace.kinds, ctypes.c_byte)
        c.t_ninstr = col(trace.ninstr, ctypes.c_int)
        c.t_data = col(trace.data, _LL)
        c.t_offsets = col(trace.offsets, _LL)
        c.t_disc = col(trace.disc, ctypes.c_byte)
        c.visit_index = self._visit_index
        c.visit_count = self._c_count

        c.cycle = self.cycle
        c.slot_credit = self._slot_credit
        c.last_slot_cycle = self._last_slot_cycle
        c.cycle_mark = self._cycle_mark
        c.prev_line = self._prev_line
        c.total_instructions = self.total_instructions
        c.warmed = 1 if self._warmed else 0
        c.warm_target = self._warm_target
        c.finished = 1 if self._finished else 0

        c.slot_rate = self._slot_rate
        c.exec_cpi = self._exec_cpi
        c.l2_latency = self._l2_latency
        c.memory_latency = self._memory_latency
        c.fetch_stall_exposed = self._fetch_stall_exposed
        c.data_l2_exposed = self._data_l2_exposed
        c.data_memory_exposed = self._data_memory_exposed
        c.line_shift = self._line_shift

        c.useless_hint_filter = 1 if self._useless_hint_filter else 0
        policy = self._l2_policy
        c.pol_install_fills = 1 if policy.install_prefetch_fills else 0
        c.pol_promote = 1 if policy.promote_on_prefetch_hit else 0
        c.pol_evict_install = 1 if policy.install_used_on_eviction else 0
        free_kind = (ctypes.c_byte * _N_KINDS)(
            *(1 if flag else 0 for flag in self._free_kind)
        )
        keep.append(free_kind)
        c.free_kind = ctypes.cast(free_kind, ctypes.POINTER(ctypes.c_byte))

        # Prefetcher: mode + parameters + (for mode 6) the table arrays.
        prefetcher = self.prefetcher
        mode = _PF_MODES[type(prefetcher)]
        c.pf_mode = mode
        if mode == 4:
            c.pf_ahead = prefetcher.degree
        elif mode == 5:
            c.pf_ahead = prefetcher.distance
        elif mode == 6:
            c.pf_ahead = prefetcher.prefetch_ahead
            c.pf_probe = 1 if prefetcher.probe_ahead else 0
        if mode == 6:
            table = prefetcher.table
            n = table.entries
            sources = (_LL * n)(
                *(-1 if src is None else src for src in table._sources)
            )
            targets = (_LL * n)(*table._targets)
            counters = (_LL * n)(*table._counters)
        else:
            sources = (_LL * 1)(-1)
            targets = (_LL * 1)()
            counters = (_LL * 1)()
        keep.extend((sources, targets, counters))
        tstats = prefetcher.table.stats if mode == 6 else None
        c.table = _CTable(
            mask=prefetcher.table._mask if mode == 6 else 0,
            counter_max=prefetcher.table.counter_max if mode == 6 else 0,
            sources=ctypes.cast(sources, ctypes.POINTER(_LL)),
            targets=ctypes.cast(targets, ctypes.POINTER(_LL)),
            counters=ctypes.cast(counters, ctypes.POINTER(_LL)),
            **{name: getattr(tstats, name) if tstats else 0 for name in _TABLE_STAT_FIELDS},
        )

        # CoreStats (binding may happen mid-run; counters carry over).
        stats = self.stats
        c.instructions = stats.instructions
        c.st_cycles = stats.cycles
        c.exec_cycles = stats.exec_cycles
        c.fetch_stall_cycles = stats.fetch_stall_cycles
        c.data_stall_cycles = stats.data_stall_cycles
        c.l1i_fetches = stats.l1i_fetches
        c.l1i_misses = stats.l1i_misses
        c.l2i_demand_accesses = stats.l2i_demand_accesses
        c.l2i_demand_misses = stats.l2i_demand_misses
        c.data_accesses = stats.data_accesses
        c.l1d_misses = stats.l1d_misses
        c.l2d_accesses = stats.l2d_accesses
        c.l2d_misses = stats.l2d_misses
        l1i_bd = (_LL * _N_KINDS)(*stats.l1i_breakdown._counts)
        l2i_bd = (_LL * _N_KINDS)(*stats.l2i_breakdown._counts)
        keep.extend((l1i_bd, l2i_bd))
        c.l1i_breakdown = ctypes.cast(l1i_bd, ctypes.POINTER(_LL))
        c.l2i_breakdown = ctypes.cast(l2i_bd, ctypes.POINTER(_LL))
        self._c_l1i_bd = l1i_bd
        self._c_l2i_bd = l2i_bd
        pf_stats = stats.prefetch
        for name in _PF_STAT_FIELDS:
            setattr(c, name, getattr(pf_stats, name))

        # Private caches are inline; the shared L2 + link live in the
        # per-system image so sibling cores mutate one copy.
        l1i_image = _CacheImage(self.l1i)
        l1d_image = _CacheImage(self.l1d)
        keep.extend((l1i_image, l1d_image))
        c.l1i = l1i_image.struct
        c.l1d = l1d_image.struct
        jitsys = _system_for(self.link, self.l2)
        self._jit_system = jitsys
        self._cache_images = (
            (self.l1i, l1i_image),
            (self.l1d, l1d_image),
            (self.l2, jitsys.l2_image),
        )
        c.l2 = ctypes.pointer(jitsys.c_l2)
        c.link = ctypes.pointer(jitsys.c_link)

        # Queue (entries + recent-demand filter + stats).
        queue = self.queue
        qconfig = queue._config
        entries = (_CQEntry * qconfig.capacity)()
        for k, entry in enumerate(queue._entries):
            pk, pi, pl = _encode_prov(entry.provenance)
            entries[k] = _CQEntry(
                line=entry.line, prov_kind=pk, prov_index=pi, prov_line=pl,
                state=int(entry.state),
            )
        recent = (_LL * (qconfig.recent_capacity + 1))()
        recent_keys = list(queue._recent._entries.keys())
        for k, line in enumerate(recent_keys):
            recent[k] = line
        keep.extend((entries, recent))
        qstats = queue.stats
        c.queue = _CQueue(
            capacity=qconfig.capacity,
            recent_capacity=qconfig.recent_capacity,
            lifo=1 if qconfig.lifo else 0,
            filtering=1 if qconfig.filtering else 0,
            entries=ctypes.cast(entries, ctypes.POINTER(_CQEntry)),
            n_entries=len(queue._entries),
            recent=ctypes.cast(recent, ctypes.POINTER(_LL)),
            n_recent=len(recent_keys),
            waiting=queue.waiting,
            **{name: getattr(qstats, name) for name in _QUEUE_STAT_FIELDS},
        )

        # MSHR (insertion-ordered flat arrays).
        mshr = self._mshr
        mshr_lines = (_LL * mshr._capacity)()
        mshr_arrivals = (_DBL * mshr._capacity)()
        for k, (line, arrival) in enumerate(mshr._entries.items()):
            mshr_lines[k] = line
            mshr_arrivals[k] = arrival
        keep.extend((mshr_lines, mshr_arrivals))
        c.mshr_lines = ctypes.cast(mshr_lines, ctypes.POINTER(_LL))
        c.mshr_arrivals = ctypes.cast(mshr_arrivals, ctypes.POINTER(_DBL))
        c.mshr_n = len(mshr._entries)
        c.mshr_cap = mshr._capacity

        self._c = c

    # ------------------------------------------------------------------ #
    # Sync-out: C -> Python after every kernel call
    # ------------------------------------------------------------------ #

    def _sync_out(self) -> None:
        """Copy scalars and every stats object back to the Python side.

        Cache contents follow once the run finishes (:meth:`_finish`);
        queue/MSHR/table contents stay C-resident (see the module
        docstring) — everything result aggregation, ``--verify`` lockstep
        or the CMP driver reads is synced exactly.
        """
        c = self._c
        self.cycle = c.cycle
        self._slot_credit = c.slot_credit
        self._last_slot_cycle = c.last_slot_cycle
        self._cycle_mark = c.cycle_mark
        self._prev_line = c.prev_line
        self.total_instructions = c.total_instructions
        self._visit_index = c.visit_index
        self._warmed = bool(c.warmed)

        stats = self.stats
        stats.instructions = c.instructions
        stats.cycles = c.st_cycles
        stats.exec_cycles = c.exec_cycles
        stats.fetch_stall_cycles = c.fetch_stall_cycles
        stats.data_stall_cycles = c.data_stall_cycles
        stats.l1i_fetches = c.l1i_fetches
        stats.l1i_misses = c.l1i_misses
        stats.l2i_demand_accesses = c.l2i_demand_accesses
        stats.l2i_demand_misses = c.l2i_demand_misses
        stats.data_accesses = c.data_accesses
        stats.l1d_misses = c.l1d_misses
        stats.l2d_accesses = c.l2d_accesses
        stats.l2d_misses = c.l2d_misses
        stats.l1i_breakdown._counts[:] = list(self._c_l1i_bd)
        stats.l2i_breakdown._counts[:] = list(self._c_l2i_bd)
        pf_stats = stats.prefetch
        for name in _PF_STAT_FIELDS:
            setattr(pf_stats, name, getattr(c, name))

        _sync_cache_stats(self.l1i, c.l1i)
        _sync_cache_stats(self.l1d, c.l1d)
        self._jit_system.sync_out()

        queue = self.queue
        queue.waiting = c.queue.waiting
        qstats = queue.stats
        for name in _QUEUE_STAT_FIELDS:
            setattr(qstats, name, getattr(c.queue, name))

        if c.pf_mode == 6:
            tstats = self.prefetcher.table.stats
            for name in _TABLE_STAT_FIELDS:
                setattr(tstats, name, getattr(c.table, name))

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """One visit per call — exact CMP interleaving, kernel body."""
        if not self._twin_ready():
            return super().step()
        c = self._c
        i = c.visit_index
        if i >= c.visit_count:
            self._finish()
            c.finished = 1
            cycles = self.cycle - self._cycle_mark
            self.stats.cycles = cycles
            c.st_cycles = cycles
            return False
        self._c_started = True
        self._lib.repro_span(ctypes.byref(c), i + 1)
        self._sync_out()
        return True

    def run(self) -> CoreStats:
        """Run the whole trace inside the kernel."""
        if not self._twin_ready():
            return super().run()
        self._c_started = True
        self._lib.repro_run(ctypes.byref(self._c))
        self._sync_out()
        self._finish()
        return self.stats

    def _finish(self) -> None:
        """Mark the run finished and hand each cache its C image, decoded
        on first read (see the module docstring)."""
        self._finished = True
        for cache, image in self._cache_images:
            cache._sets = _DecodedSets(cache, image)  # type: ignore[assignment]

    @staticmethod
    def run_multicore(engines: List["JittedCoreEngine"]) -> bool:
        """Run a whole multi-core system inside one kernel call.

        Invoked by :meth:`repro.cmp.system.System.run` before its Python
        interleave loop.  Returns False (caller falls back to the exact
        Python loop) unless *every* engine is kernel-eligible: a mix of
        kernel-resident and Python-resident engines sharing one L2 would
        silently diverge, so ineligibility of any sibling flips the whole
        system to reference stepping.  Uniform system construction makes
        the mixed case practically unreachable, but the guard is load-
        bearing for custom per-core prefetcher factories.
        """
        ready = all(
            isinstance(engine, JittedCoreEngine) and engine._twin_ready()
            for engine in engines
        )
        if not ready or len(engines) > _MAX_CORES:
            for engine in engines:
                if isinstance(engine, JittedCoreEngine) and not engine._c_started:
                    engine._twin_ok = False
            return False
        cores = (ctypes.POINTER(_CCore) * len(engines))(
            *(ctypes.pointer(engine._c) for engine in engines)
        )
        for engine in engines:
            engine._c_started = True
        engines[0]._lib.repro_run_system(cores, len(engines))
        for engine in engines:
            engine._sync_out()
            engine._finish()
        return True
