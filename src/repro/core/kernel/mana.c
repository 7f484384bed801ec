/* ---------------- mana.c: repro.prefetch.mana */

/* mana._Record.  The footprint bitmap has one bit per line of a region,
 * so regions of up to 64 lines fit (larger ones step on reference). */
typedef struct {
    long long trigger;
    unsigned long long footprint;
    long long successor;     /* next record's trigger, or -1 */
    long long confidence;    /* saturates at 3 (_CONFIDENCE_MAX) */
} CManaRecord;

/* ManaTable (per-set way lists ordered LRU -> MRU) + ManaStats + the
 * ManaPrefetcher's parameters and SAB recorder */
typedef struct {
    long long set_mask, assoc;
    CManaRecord *ways;       /* (set_mask + 1) * assoc records */
    long long *counts;       /* set_mask + 1 entries */
    long long commits, allocations, evictions, probe_hits, replays, credits;
    long long region_shift, offset_mask, replay_depth;
    long long rec_region, rec_trigger;
    unsigned long long rec_footprint;
    long long prev_trigger;
} CMana;

/* The way list of trigger's set; *n points at its length. */
static CManaRecord *mana_set(const CMana *m, long long trigger, long long **n) {
    long long si = trigger & m->set_mask;
    *n = m->counts + si;
    return m->ways + si * m->assoc;
}

/* Move way k of a set of n to its MRU end; return the moved record. */
static CManaRecord *mana_to_mru(CManaRecord *ways, long long k, long long n) {
    CManaRecord record = ways[k];
    memmove(ways + k, ways + k + 1, (n - 1 - k) * sizeof(CManaRecord));
    ways[n - 1] = record;
    return &ways[n - 1];
}

/* ManaTable.lookup: LRU-touch and count a hit */
static CManaRecord *mana_lookup(CMana *m, long long trigger) {
    long long *n, k;
    CManaRecord *ways = mana_set(m, trigger, &n);
    for (k = 0; k < *n; k++) {
        if (ways[k].trigger == trigger) {
            m->probe_hits++;
            return mana_to_mru(ways, k, *n);
        }
    }
    return 0;
}

/* ManaTable.commit: refresh a resident record, else evict the first way
 * of lowest confidence from a full set and append a new one */
static void mana_commit(CMana *m, long long trigger, unsigned long long footprint,
                        long long successor) {
    long long *n, k, victim;
    CManaRecord *ways = mana_set(m, trigger, &n);
    m->commits++;
    for (k = 0; k < *n; k++) {
        if (ways[k].trigger == trigger) {
            ways[k].footprint = footprint;
            ways[k].successor = successor;
            mana_to_mru(ways, k, *n);
            return;
        }
    }
    if (*n >= m->assoc) {
        victim = 0;
        for (k = 0; k < *n; k++)
            if (ways[k].confidence < ways[victim].confidence) victim = k;
        memmove(ways + victim, ways + victim + 1,
                (*n - 1 - victim) * sizeof(CManaRecord));
        --*n;
        m->evictions++;
    }
    ways[*n].trigger = trigger;
    ways[*n].footprint = footprint;
    ways[*n].successor = successor;
    ways[*n].confidence = 1;     /* _CONFIDENCE_INIT */
    ++*n;
    m->allocations++;
}

/* ManaPrefetcher._record: the SAB recorder.  Leaving a region commits
 * its record (successor: the line that left it) and probes the previous
 * record, which already chains to this one. */
static void mana_record(CMana *m, long long line) {
    long long region = line >> m->region_shift;
    if (region == m->rec_region) {
        m->rec_footprint |= 1ULL << (line & m->offset_mask);
        return;
    }
    if (m->rec_region >= 0) {
        mana_commit(m, m->rec_trigger, m->rec_footprint, line);
        if (m->prev_trigger >= 0) mana_lookup(m, m->prev_trigger);
        m->prev_trigger = m->rec_trigger;
    }
    m->rec_region = region;
    m->rec_trigger = line;
    m->rec_footprint = 1ULL << (line & m->offset_mask);
}

/* ManaPrefetcher._replay: each chained record's footprint, lowest line
 * first, minus the trigger line itself */
static long long mana_replay(CMana *m, long long trigger, CCand *out) {
    long long current = trigger, n = 0, depth, base, offset;
    for (depth = 0; depth < m->replay_depth; depth++) {
        CManaRecord *record = mana_lookup(m, current);
        unsigned long long footprint;
        if (!record) break;
        m->replays++;
        base = (current >> m->region_shift) << m->region_shift;
        footprint = record->footprint;
        for (offset = 0; footprint; footprint >>= 1, offset++) {
            if ((footprint & 1) && base + offset != trigger) {
                out[n].line = base + offset;
                out[n].prov_kind = 7;
                out[n].prov_index = 0;
                out[n].prov_line = current;
                n++;
            }
        }
        current = record->successor;
        if (current < 0) break;
    }
    return n;
}

/* ManaPrefetcher.on_demand_fetch: record every fetch, replay on a miss
 * or the first use of a prefetched line */
static long long mana_demand(void *pf, long long line, int was_miss,
                             int first_use, long long kind, CCand *out) {
    CMana *m = (CMana *)pf;
    (void)kind;
    mana_record(m, line);
    if (!(was_miss || first_use)) return 0;
    return mana_replay(m, line, out);
}

/* ManaPrefetcher.credit -> ManaTable.credit (no LRU touch) */
static void mana_credit(void *pf, long long prov_kind, long long prov_index,
                        long long prov_line) {
    CMana *m = (CMana *)pf;
    long long *n, k;
    CManaRecord *ways;
    (void)prov_index;
    if (prov_kind != 7) return;
    ways = mana_set(m, prov_line, &n);
    for (k = 0; k < *n; k++) {
        if (ways[k].trigger == prov_line) {
            if (ways[k].confidence < 3) ways[k].confidence++;
            m->credits++;
            return;
        }
    }
}

const PfOps repro_pf_mana = {mana_demand, 0, mana_credit};
