/* ---------------- queue.c: repro.prefetch.queue.PrefetchQueue + MSHR */

/* Nothing here shifts entries.  Entries and recent demand lines live in
 * fixed node pools, doubly linked lists keep their age order, and one
 * open-addressed index finds both nodes of a line.  So offer and
 * note-demand each look their line up once; an overflow or a recent-set
 * eviction adds one lookup of the dropped line, its release and a
 * re-find.  A lookup probes a run of an index at most a quarter full,
 * whatever the capacity. */

/* One index slot: a line and its node + 1 in each pool (0 == none); a
 * slot with neither is empty. */
typedef struct {
    long long line, entry, recent;
} CSlot;

/* line -> nodes (the reference's _by_line and recent-set dicts), linear
 * probing, at most a quarter full; dropping a slot re-places the rest of
 * its probe run, so there are no tombstones. */
typedef struct {
    CSlot *slots;
    long long bits;        /* 1 << bits slots */
} CIndex;

/* A doubly linked list over a node pool, oldest -> newest.  links[2k] is
 * node k's older neighbour and links[2k + 1] its newer one (-1 at an end). */
typedef struct {
    long long *links;
    long long oldest, newest;   /* -1 when empty */
} CList;

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
    CQEntry *entries;      /* capacity nodes; nodes 0..n_entries-1 in use */
    long long n_entries;
    CList age;             /* every entry (the reference's _entries) */
    CList ready;           /* the WAITING entries, in age order */
    long long *recent;     /* recent_capacity nodes: one demand line each */
    long long n_recent;
    CList recency;         /* the recent set's OrderedDict order */
    CIndex index;          /* each line's entry (_by_line, the newest) and recent node */
    long long waiting;
    long long offered, accepted, dropped_recent_demand, dropped_dup_issued,
        dropped_dup_invalid, hoisted, invalidated_by_demand, overflow_drops,
        popped;
} CQueue;

static unsigned long long index_home(const CIndex *ix, long long line) {
    return ((unsigned long long)line * 0x9E3779B97F4A7C15ULL) >> (64 - ix->bits);
}

/* The slot holding line, or the empty slot ending its probe run (where
 * line goes). */
static CSlot *index_slot(const CIndex *ix, long long line) {
    unsigned long long mask = (1ULL << ix->bits) - 1, i = index_home(ix, line);
    CSlot *s = &ix->slots[i];
    while ((s->entry | s->recent) && s->line != line) {
        i = (i + 1) & mask;
        s = &ix->slots[i];
    }
    return s;
}

/* Drop slot s once neither pool maps its line, then re-place each later
 * member of its probe run, so that every run stays unbroken.  Moves
 * slots, so earlier slot pointers go stale. */
static void index_release(CIndex *ix, CSlot *s) {
    unsigned long long mask = (1ULL << ix->bits) - 1;
    unsigned long long j = (unsigned long long)(s - ix->slots);
    CSlot moved;
    if (s->entry | s->recent) return;
    for (;;) {
        j = (j + 1) & mask;
        s = &ix->slots[j];
        if (!(s->entry | s->recent)) return;
        moved = *s;
        s->entry = s->recent = 0;
        *index_slot(ix, moved.line) = moved;
    }
}

static void list_unlink(CList *l, long long k) {
    long long older = l->links[2 * k], newer = l->links[2 * k + 1];
    if (older >= 0) l->links[2 * older + 1] = newer; else l->oldest = newer;
    if (newer >= 0) l->links[2 * newer] = older; else l->newest = older;
}

/* Link node k in before node at (at the newest end when at == -1). */
static void list_insert(CList *l, long long k, long long at) {
    long long older = at >= 0 ? l->links[2 * at] : l->newest;
    l->links[2 * k] = older;
    l->links[2 * k + 1] = at;
    if (older >= 0) l->links[2 * older + 1] = k; else l->oldest = k;
    if (at >= 0) l->links[2 * at] = k; else l->newest = k;
}

static void list_to_newest(CList *l, long long k) {
    if (l->newest == k) return;
    list_unlink(l, k);
    list_insert(l, k, -1);
}

/* Empty the lists of a zeroed queue (a zeroed index is already empty). */
void repro_queue_init(CQueue *q) {
    q->age.oldest = q->age.newest = -1;
    q->ready.oldest = q->ready.newest = -1;
    q->recency.oldest = q->recency.newest = -1;
}

/* note_demand_fetch(line): recent-set refresh + waiting-dup invalidation */
static void queue_note_demand(CQueue *q, long long line) {
    CSlot *s;
    long long k;
    if (!q->filtering) return;
    s = index_slot(&q->index, line);
    if (s->recent) {                     /* move_to_end */
        list_to_newest(&q->recency, s->recent - 1);
    } else {
        if (q->n_recent < q->recent_capacity) {
            k = q->n_recent++;
        } else {                         /* popitem(last=False) */
            CSlot *old;
            k = q->recency.oldest;
            list_unlink(&q->recency, k);
            old = index_slot(&q->index, q->recent[k]);
            old->recent = 0;
            index_release(&q->index, old);
            s = index_slot(&q->index, line);
        }
        q->recent[k] = line;
        list_insert(&q->recency, k, -1);
        s->line = line;
        s->recent = k + 1;
    }
    k = s->entry - 1;
    if (k >= 0 && q->entries[k].state == 0) {
        q->entries[k].state = 2;
        list_unlink(&q->ready, k);
        q->waiting--;
        q->invalidated_by_demand++;
    }
}

/* offer(candidate): filters, hoist, overflow — reference order exactly.
 * Unfiltered, duplicates are kept and the index names the newest. */
static void queue_offer(CQueue *q, const CCand *cand) {
    long long line = cand->line;
    CSlot *s = index_slot(&q->index, line);
    long long k;
    CQEntry *e;
    q->offered++;
    if (q->filtering) {
        if (s->recent) {
            q->dropped_recent_demand++;
            return;
        }
        if (s->entry) {
            k = s->entry - 1;
            if (q->entries[k].state == 0) {   /* hoist to the LIFO head */
                list_to_newest(&q->age, k);
                list_to_newest(&q->ready, k);
                q->hoisted++;
            } else if (q->entries[k].state == 1) {
                q->dropped_dup_issued++;
            } else {
                q->dropped_dup_invalid++;
            }
            return;
        }
    }
    if (q->n_entries < q->capacity) {
        k = q->n_entries++;
    } else {                             /* drop the oldest entry */
        CSlot *old;
        k = q->age.oldest;
        list_unlink(&q->age, k);
        if (q->entries[k].state == 0) {
            list_unlink(&q->ready, k);
            q->waiting--;
        }
        old = index_slot(&q->index, q->entries[k].line);
        if (old->entry == k + 1) {
            old->entry = 0;
            index_release(&q->index, old);
        }
        q->overflow_drops++;
        s = index_slot(&q->index, line);
    }
    e = &q->entries[k];
    e->line = line;
    e->prov_kind = cand->prov_kind;
    e->prov_index = cand->prov_index;
    e->prov_line = cand->prov_line;
    e->state = 0;
    list_insert(&q->age, k, -1);
    list_insert(&q->ready, k, -1);
    s->line = line;
    s->entry = k + 1;
    q->accepted++;
    q->waiting++;
}

/* pop_ready(): the newest (LIFO) or oldest waiting entry, now ISSUED; it
 * stays in the queue as filter memory.  Returns its node, or -1. */
static long long queue_pop_ready(CQueue *q) {
    long long k = q->lifo ? q->ready.newest : q->ready.oldest;
    if (k < 0) return -1;
    list_unlink(&q->ready, k);
    q->entries[k].state = 1;
    q->waiting--;
    q->popped++;
    return k;
}

/* requeue(entry): back to WAITING, in its age place among the waiting */
static void queue_requeue(CQueue *q, long long k) {
    long long at = q->age.links[2 * k + 1];
    while (at >= 0 && q->entries[at].state != 0) at = q->age.links[2 * at + 1];
    q->entries[k].state = 0;
    list_insert(&q->ready, k, at);
    q->waiting++;
}

/* repro.caches.mshr.OutstandingRequestTracker (insertion order kept).
 * floor is at most the earliest arrival, so a prune at an earlier time
 * has nothing to drop (a zeroed floor only forces the first prune). */
typedef struct {
    long long *lines;
    double *arrivals;
    long long n, cap;
    double floor;
} CMshr;

static void mshr_prune(CMshr *m, double now) {
    long long n = m->n, w = 0, k;
    double floor = DBL_MAX;
    if (now < m->floor) return;
    for (k = 0; k < n; k++) {
        if (m->arrivals[k] > now) {
            m->lines[w] = m->lines[k];
            m->arrivals[w] = m->arrivals[k];
            if (m->arrivals[k] < floor) floor = m->arrivals[k];
            w++;
        }
    }
    m->n = w;
    m->floor = floor;
}

static int mshr_can_accept(CMshr *m, double now) {
    mshr_prune(m, now);
    return m->n < m->cap;
}

/* dict overwrite keeps the original position; append otherwise */
static void mshr_add(CMshr *m, long long line, double arrival, double now) {
    long long k;
    mshr_prune(m, now);
    if (arrival < m->floor) m->floor = arrival;
    for (k = 0; k < m->n; k++)
        if (m->lines[k] == line) { m->arrivals[k] = arrival; return; }
    m->lines[m->n] = line;
    m->arrivals[m->n] = arrival;
    m->n++;
}
