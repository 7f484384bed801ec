/* ---------------- queue.c: repro.prefetch.queue.PrefetchQueue + MSHR */

/* repro.prefetch.queue.QueueEntry */
typedef struct {
    long long line;
    long long prov_kind, prov_index, prov_line;
    long long state;       /* QueueState: 0 WAITING, 1 ISSUED, 2 INVALID */
} CQEntry;

/* PrefetchQueue + util.containers.BoundedRecentSet */
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
static void queue_offer(CQueue *q, const CCand *cand) {
    long long line = cand->line;
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
    e->prov_kind = cand->prov_kind;
    e->prov_index = cand->prov_index;
    e->prov_line = cand->prov_line;
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

/* repro.caches.mshr.OutstandingRequestTracker (insertion order kept) */
typedef struct {
    long long *lines;
    double *arrivals;
    long long n, cap;
} CMshr;

static void mshr_prune(CMshr *m, double now) {
    long long n = m->n, w = 0, k;
    for (k = 0; k < n; k++) {
        if (m->arrivals[k] > now) {
            m->lines[w] = m->lines[k];
            m->arrivals[w] = m->arrivals[k];
            w++;
        }
    }
    m->n = w;
}

static int mshr_can_accept(CMshr *m, double now) {
    mshr_prune(m, now);
    return m->n < m->cap;
}

/* dict overwrite keeps the original position; append otherwise */
static void mshr_add(CMshr *m, long long line, double arrival, double now) {
    long long k;
    mshr_prune(m, now);
    for (k = 0; k < m->n; k++)
        if (m->lines[k] == line) { m->arrivals[k] = arrival; return; }
    m->lines[m->n] = line;
    m->arrivals[m->n] = arrival;
    m->n++;
}
