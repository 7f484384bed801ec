/* ---------------- engine.c: repro.core.engine.CoreEngine + System.run */

/* repro.prefetch.base.NullPrefetcher */
const PfOps repro_pf_none = {0, 0, 0};

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

    /* prefetcher: family hooks, family state, candidate buffer (sized by
     * the marshaller for the family's largest candidate list) */
    const PfOps *pf_ops;
    void *pf;
    CCand *cand;

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
    CMshr mshr;
} CCore;

/* CoreEngine._install_l2 */
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
    mshr_add(&c->mshr, line, arrival, now);
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
        if (!mshr_can_accept(&c->mshr, now)) {  /* requeue + stop */
            queue_requeue(&c->queue, ei);
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
    const PfOps *ops = c->pf_ops;
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
            if (state->prov_kind != 0 && ops->credit)
                ops->credit(c->pf, state->prov_kind, state->prov_index,
                            state->prov_line);
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

    /* (3) discontinuity observation */
    if (disc && ops->discontinuity)
        ops->discontinuity(c->pf, c->prev_line, line, was_miss);
    c->prev_line = line;

    /* (4) prefetch generation + filtering (queue sees the demand first);
     * every candidate counts as generated, the demand line is not offered */
    queue_note_demand(&c->queue, line);
    if (ops->demand) {
        long long n = ops->demand(c->pf, line, was_miss, first_use, kind, c->cand);
        long long k;
        c->generated += n;
        for (k = 0; k < n; k++)
            if (c->cand[k].line != line) queue_offer(&c->queue, &c->cand[k]);
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

    /* consume_overhead_cycles() is 0.0 for every kernel family */

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
 * finished cores preserving order.  The other clocks stand still while
 * one core runs, so the chosen core keeps running without a rescan while
 * its clock stays below limit, the smallest of theirs (a tie rescans). */
void repro_run_system(CCore **cores, long long n) {
    long long active[256];
    long long na = 0, k;
    for (k = 0; k < n && k < 256; k++) active[na++] = k;
    while (na > 0) {
        long long best = 0;
        double limit = DBL_MAX;
        CCore *c;
        for (k = 1; k < na; k++) {
            double cycle = cores[active[k]]->cycle;
            if (cycle < cores[active[best]]->cycle) {
                limit = cores[active[best]]->cycle;
                best = k;
            } else if (cycle < limit) {
                limit = cycle;
            }
        }
        c = cores[active[best]];
        do {
            if (c->visit_index >= c->visit_count) {
                c->finished = 1;
                c->st_cycles = c->cycle - c->cycle_mark;
                for (k = best; k < na - 1; k++) active[k] = active[k + 1];
                na--;
                break;
            }
            process_visit(c);
        } while (c->cycle < limit);
    }
}
