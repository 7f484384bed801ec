/* ---------------- sequential.c: repro.prefetch.sequential */

/* Every variant offers `count` lines starting `first` past the demand
 * line, with ("seq",) provenance, when its trigger fires:
 *   next-line-always   trigger 0 (every fetch)     first 1         count 1
 *   next-line-on-miss  trigger 1 (miss)            first 1         count 1
 *   next-line-tagged   trigger 2 (miss/first use)  first 1         count 1
 *   next-N-line        trigger 2                   first 1         count N
 *   lookahead-N        trigger 2                   first N         count 1 */
typedef struct {
    long long trigger, first, count;
} CSeq;

/* <variant>.on_demand_fetch */
static long long seq_demand(void *pf, long long line, int was_miss,
                            int first_use, long long kind, CCand *out) {
    CSeq *s = (CSeq *)pf;
    long long d;
    (void)kind;
    if (s->trigger == 1 && !was_miss) return 0;
    if (s->trigger == 2 && !(was_miss || first_use)) return 0;
    for (d = 0; d < s->count; d++) {
        out[d].line = line + s->first + d;
        out[d].prov_kind = 1;
        out[d].prov_index = 0;
        out[d].prov_line = 0;
    }
    return s->count;
}

const PfOps repro_pf_seq = {seq_demand, 0, 0};
