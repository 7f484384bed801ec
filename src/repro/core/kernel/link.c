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

/* struct layouts (kernel.h CLayout) */
const CLayout repro_layout_link[] = {
    LAYOUT_SIZE(CLink),
    LAYOUT_FIELD(CLink, next_free), LAYOUT_FIELD(CLink, occupancy),
    LAYOUT_FIELD(CLink, requests), LAYOUT_FIELD(CLink, busy_cycles),
    LAYOUT_FIELD(CLink, queue_delay_cycles),
    LAYOUT_END,
};
