/* ---------------- history.c: repro.prefetch.target + repro.prefetch.markov */

/* The OrderedDict keyed by line that both tables are: get, move_to_end,
 * an insert at the MRU end and popitem(last=False).  Entries live in
 * nodes (capacity + 1 of them: an insert exceeds the capacity before the
 * LRU pop), a doubly linked list orders the nodes LRU -> MRU, and an
 * open-addressed index (linear probing, backward-shift deletion) maps a
 * line to its node. */
typedef struct {
    long long capacity;      /* most entries kept */
    long long n;             /* live entries */
    long long *keys;         /* per node: its line */
    long long *prev, *next;  /* per node: recency neighbours (-1 ends) */
    long long head, tail;    /* LRU and MRU node, -1 when empty */
    long long free_node;     /* first free node, chained through next */
    long long *slots;        /* index: a node or -1, 1 << slot_bits of them */
    long long slot_bits;
} CHist;

static long long hist_home(const CHist *h, long long line) {
    return (long long)(((unsigned long long)line * 0x9E3779B97F4A7C15ULL) >>
                       (64 - h->slot_bits));
}

/* the node holding line, or -1 */
static long long hist_find(const CHist *h, long long line) {
    long long mask = (1LL << h->slot_bits) - 1;
    long long s = hist_home(h, line), node;
    while ((node = h->slots[s]) >= 0) {
        if (h->keys[node] == line) return node;
        s = (s + 1) & mask;
    }
    return -1;
}

static void hist_unlink(CHist *h, long long node) {
    long long p = h->prev[node], q = h->next[node];
    if (p >= 0) h->next[p] = q; else h->head = q;
    if (q >= 0) h->prev[q] = p; else h->tail = p;
}

static void hist_append(CHist *h, long long node) {
    h->prev[node] = h->tail;
    h->next[node] = -1;
    if (h->tail >= 0) h->next[h->tail] = node; else h->head = node;
    h->tail = node;
}

/* move_to_end(line) */
static void hist_touch(CHist *h, long long node) {
    if (node == h->tail) return;
    hist_unlink(h, node);
    hist_append(h, node);
}

/* table[line] = ... for an absent line: a new MRU node */
static long long hist_insert(CHist *h, long long line) {
    long long mask = (1LL << h->slot_bits) - 1;
    long long node = h->free_node, s = hist_home(h, line);
    h->free_node = h->next[node];
    h->keys[node] = line;
    while (h->slots[s] >= 0) s = (s + 1) & mask;
    h->slots[s] = node;
    hist_append(h, node);
    h->n++;
    return node;
}

/* popitem(last=False) */
static void hist_pop_lru(CHist *h) {
    long long mask = (1LL << h->slot_bits) - 1;
    long long node = h->head, i, j;
    i = hist_home(h, h->keys[node]);
    while (h->slots[i] != node) i = (i + 1) & mask;
    /* backward-shift deletion: pull later entries of the probe run into
     * the hole unless their home lies cyclically in (hole, position] */
    for (j = (i + 1) & mask; h->slots[j] >= 0; j = (j + 1) & mask) {
        long long home = hist_home(h, h->keys[h->slots[j]]);
        int stays = i <= j ? (i < home && home <= j) : (i < home || home <= j);
        if (!stays) {
            h->slots[i] = h->slots[j];
            i = j;
        }
    }
    h->slots[i] = -1;
    hist_unlink(h, node);
    h->next[node] = h->free_node;
    h->free_node = node;
    h->n--;
}

/* Empty a zeroed map: no index slot taken, no recency list, and every
 * node free, chained from node 0. */
void repro_hist_init(CHist *h) {
    long long k;
    for (k = 0; k < 1LL << h->slot_bits; k++) h->slots[k] = -1;
    for (k = 0; k <= h->capacity; k++) h->next[k] = k < h->capacity ? k + 1 : -1;
    h->head = h->tail = -1;
}

/* ---- TargetPrefetcher */

typedef struct {
    CHist map;
    long long *targets;      /* per node: the learned next line */
    long long degree;
} CTarget;

/* TargetPrefetcher.on_demand_fetch: probe with the current line only */
static long long target_demand(void *pf, long long line, int was_miss,
                               int first_use, long long kind, CCand *out) {
    CTarget *t = (CTarget *)pf;
    long long node = hist_find(&t->map, line), target, extra;
    (void)was_miss;
    (void)first_use;
    (void)kind;
    if (node < 0) return 0;
    hist_touch(&t->map, node);
    target = t->targets[node];
    for (extra = 0; extra < t->degree; extra++) {
        out[extra].line = target + extra;
        out[extra].prov_kind = 5;
        out[extra].prov_index = 0;
        out[extra].prov_line = line;
    }
    return t->degree;
}

/* TargetPrefetcher.on_discontinuity: learn every transition */
static void target_discontinuity(void *pf, long long source, long long target,
                                 int caused_miss) {
    CTarget *t = (CTarget *)pf;
    long long node = hist_find(&t->map, source);
    (void)caused_miss;
    if (node >= 0) {
        t->targets[node] = target;
        hist_touch(&t->map, node);
        return;
    }
    node = hist_insert(&t->map, source);
    t->targets[node] = target;
    if (t->map.n > t->map.capacity) hist_pop_lru(&t->map);
}

const PfOps repro_pf_target = {target_demand, target_discontinuity, 0};

/* ---- MarkovPrefetcher */

/* markov._Entry.successors: one [target_line, count] pair */
typedef struct {
    long long target, count;
} CSucc;

typedef struct {
    CHist map;
    CSucc *succ;             /* per node: targets_per_entry pairs */
    long long *succ_n;       /* per node: pairs held */
    long long targets_per_entry, fanout, ahead;
    /* MarkovStats */
    long long allocations, evictions, successor_updates, probe_hits;
} CMarkov;

/* _Entry._canonicalize: count descending, target ascending on ties */
static void markov_canonicalize(CSucc *s, long long n) {
    long long k, j;
    for (k = 1; k < n; k++) {
        CSucc cur = s[k];
        for (j = k; j > 0; j--) {
            const CSucc *prev = &s[j - 1];
            if (prev->count > cur.count ||
                (prev->count == cur.count && prev->target < cur.target))
                break;
            s[j] = s[j - 1];
        }
        s[j] = cur;
    }
}

/* _Entry.observe */
static void markov_entry_observe(CMarkov *m, long long node, long long target) {
    CSucc *s = m->succ + node * m->targets_per_entry;
    long long n = m->succ_n[node], k;
    for (k = 0; k < n; k++) {
        if (s[k].target == target) {
            s[k].count++;
            markov_canonicalize(s, n);
            return;
        }
    }
    if (n < m->targets_per_entry) {
        s[n].target = target;
        s[n].count = 1;
        m->succ_n[node] = n + 1;
        markov_canonicalize(s, n + 1);
        return;
    }
    /* decay: halve the least-frequent successor, replace it at zero */
    s[n - 1].count /= 2;
    if (s[n - 1].count == 0) {
        s[n - 1].target = target;
        s[n - 1].count = 1;
        markov_canonicalize(s, n);
    }
}

/* MarkovTable.observe */
static void markov_observe(CMarkov *m, long long source, long long target) {
    long long node = hist_find(&m->map, source);
    if (node < 0) {
        node = hist_insert(&m->map, source);
        m->succ_n[node] = 0;
        m->allocations++;
        if (m->map.n > m->map.capacity) {
            hist_pop_lru(&m->map);
            m->evictions++;
        }
    } else {
        hist_touch(&m->map, node);
    }
    markov_entry_observe(m, node, target);
    m->successor_updates++;
}

/* MarkovPrefetcher.on_demand_fetch: seq L+1..L+ahead, then each probe
 * hit's top `fanout` successors, each followed by its remaining window
 * (every table probe happens before the engine offers a candidate). */
static long long markov_demand(void *pf, long long line, int was_miss,
                               int first_use, long long kind, CCand *out) {
    CMarkov *m = (CMarkov *)pf;
    long long ahead = m->ahead;
    long long n = 0, d, off, k, extra;
    (void)kind;
    if (!(was_miss || first_use)) return 0;
    for (d = 1; d <= ahead; d++) {
        out[n].line = line + d;
        out[n].prov_kind = 1;
        out[n].prov_index = 0;
        out[n].prov_line = 0;
        n++;
    }
    for (off = 0; off <= ahead; off++) {
        long long probe_line = line + off;
        long long node = hist_find(&m->map, probe_line), top;
        const CSucc *s;
        if (node < 0) continue;
        hist_touch(&m->map, node);
        m->probe_hits++;
        s = m->succ + node * m->targets_per_entry;
        top = m->succ_n[node] < m->fanout ? m->succ_n[node] : m->fanout;
        for (k = 0; k < top; k++) {
            for (extra = 0; extra <= ahead - off; extra++) {
                out[n].line = s[k].target + extra;
                out[n].prov_kind = 6;
                out[n].prov_index = 0;
                out[n].prov_line = probe_line;
                n++;
            }
        }
    }
    return n;
}

/* MarkovPrefetcher.on_discontinuity: allocate on a miss only */
static void markov_discontinuity(void *pf, long long source, long long target,
                                 int caused_miss) {
    if (caused_miss) markov_observe((CMarkov *)pf, source, target);
}

const PfOps repro_pf_markov = {markov_demand, markov_discontinuity, 0};
