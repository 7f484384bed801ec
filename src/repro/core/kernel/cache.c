/* ---------------- cache.c: repro.caches.cache.SetAssociativeCache (LRU) */

/* repro.caches.line.LineState (provenance kinds as listed in kernel.h) */
typedef struct {
    long long tag;
    double arrival;
    long long prov_kind;
    long long prov_index;
    long long prov_line;
    unsigned char prefetched, used, bypass_pending, from_memory, useless_hint;
} CLine;

/* Each set is a way array ordered LRU -> MRU with a live count. */
typedef struct {
    long long set_mask;
    long long assoc;
    CLine *lines;          /* (set_mask + 1) * assoc entries */
    long long *counts;     /* set_mask + 1 entries */
    long long lookups, hits, misses, installs, evictions;
} CCache;

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

/* install(line, state) of a line that is not resident: returns 1 and
 * fills *victim when a line was evicted. */
static int cache_install(CCache *cc, const CLine *state, CLine *victim) {
    long long si = state->tag & cc->set_mask;
    CLine *base = cc->lines + si * cc->assoc;
    long long cnt = cc->counts[si], j;
    cc->installs++;
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
