/* ---------------- discontinuity.c: repro.prefetch.discontinuity */

/* DiscontinuityTable (None source == -1) + the prefetcher's parameters */
typedef struct {
    long long mask;
    long long counter_max;
    long long *sources;
    long long *targets;
    long long *counters;
    long long allocations, replacements, replacement_denied, target_updates,
        probe_hits, credits;
    long long ahead;       /* prefetch_ahead */
    long long probe;       /* probe_ahead */
} CDisc;

/* DiscontinuityTable.observe */
static void table_observe(CDisc *t, long long src, long long tgt) {
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

/* DiscontinuityTable.predict */
static int table_predict(CDisc *t, long long src, long long *target) {
    long long idx = src & t->mask;
    if (t->sources[idx] == src) {
        t->probe_hits++;
        *target = t->targets[idx];
        return 1;
    }
    return 0;
}

/* DiscontinuityTable.credit */
static void table_credit(CDisc *t, long long idx, long long src) {
    if (t->sources[idx] == src) {
        if (t->counters[idx] < t->counter_max) t->counters[idx]++;
        t->credits++;
    }
}

/* DiscontinuityPrefetcher.on_demand_fetch: seq L+1..L+ahead, then each
 * probe hit's target run, in probe order (all table probes happen before
 * the engine offers any candidate, as in the reference list build). */
static long long disc_demand(void *pf, long long line, int was_miss,
                             int first_use, long long kind, CCand *out) {
    CDisc *t = (CDisc *)pf;
    long long ahead = t->ahead;
    long long probe_window = t->probe ? ahead : 0;
    long long n = 0, d, off, extra;
    (void)kind;
    if (!(was_miss || first_use)) return 0;
    for (d = 1; d <= ahead; d++) {
        out[n].line = line + d;
        out[n].prov_kind = 1;
        out[n].prov_index = 0;
        out[n].prov_line = 0;
        n++;
    }
    for (off = 0; off <= probe_window; off++) {
        long long probe_line = line + off, target;
        if (!table_predict(t, probe_line, &target)) continue;
        for (extra = 0; extra <= ahead - off; extra++) {
            out[n].line = target + extra;
            out[n].prov_kind = 2;
            out[n].prov_index = probe_line & t->mask;
            out[n].prov_line = probe_line;
            n++;
        }
    }
    return n;
}

/* DiscontinuityPrefetcher.on_discontinuity: allocate on a miss only */
static void disc_discontinuity(void *pf, long long source, long long target,
                               int caused_miss) {
    if (caused_miss) table_observe((CDisc *)pf, source, target);
}

/* DiscontinuityPrefetcher.credit */
static void disc_credit(void *pf, long long prov_kind, long long prov_index,
                        long long prov_line) {
    if (prov_kind == 2) table_credit((CDisc *)pf, prov_index, prov_line);
}

const PfOps repro_pf_disc = {disc_demand, disc_discontinuity, disc_credit};
