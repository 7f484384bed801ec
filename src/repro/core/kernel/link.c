/* ---------------- link.c: repro.cmp.link.OffChipLink */

typedef struct {
    double next_free, occupancy;
    long long requests;
    double busy_cycles, queue_delay_cycles;
} CLink;

/* request(now) */
static double link_request(CLink *l, double now) {
    double start = l->next_free > now ? l->next_free : now;
    l->next_free = start + l->occupancy;
    l->requests++;
    l->busy_cycles += l->occupancy;
    l->queue_delay_cycles += start - now;
    return start;
}
