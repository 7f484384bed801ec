/* ---------------- branch.c: repro.prefetch.fdp + repro.prefetch.shadow */

/* The branch-prediction substrate of repro.branch plus the
 * FetchDirectedPrefetcher fields; ShadowBranchPrefetcher extends it. */
typedef struct {
    /* GsharePredictor: 2-bit counters at (line ^ history) & pht_mask */
    unsigned char *pht;
    long long pht_mask, history, history_mask;
    /* BranchTargetBuffer: tagless, -1 == never trained */
    long long *btb;
    long long btb_mask;
    /* ReturnAddressStack, oldest -> newest */
    long long *ras;
    long long ras_n, ras_cap;
    /* FetchDirectedPrefetcher */
    long long prev_line, lookahead;
    long long k_call, k_jump, k_return;   /* TransitionKind values */
} CBranch;

/* repro.prefetch.shadow._ShadowEntry */
typedef struct {
    long long line, target, confidence;
} CStbEntry;

/* ShadowBranchPrefetcher */
typedef struct {
    CBranch b;
    long long ftq_entries, degree;
    long long *ftq_lines;  /* min(lookahead, ftq_entries) entries */
    long long *ftq_seq;    /* left_seq mark per FTQ entry */
    /* ShadowTargetBuffer: per-set way lists in list order */
    long long stb_set_mask, stb_assoc;
    CStbEntry *stb;        /* (stb_set_mask + 1) * stb_assoc entries */
    long long *stb_counts; /* stb_set_mask + 1 entries */
    long long discoveries; /* shadow_discoveries */
} CShadow;

/* GsharePredictor.predict(line, history) */
static int gshare_predict(const CBranch *b, long long line, long long history) {
    return b->pht[(line ^ history) & b->pht_mask] >= 2;
}

/* GsharePredictor.speculate_history */
static long long gshare_speculate(const CBranch *b, long long history, int taken) {
    return ((history << 1) | (taken ? 1 : 0)) & b->history_mask;
}

/* GsharePredictor.update */
static void gshare_update(CBranch *b, long long line, int taken) {
    long long index = (line ^ b->history) & b->pht_mask;
    unsigned char counter = b->pht[index];
    if (taken) {
        if (counter < 3) b->pht[index] = (unsigned char)(counter + 1);
    } else {
        if (counter > 0) b->pht[index] = (unsigned char)(counter - 1);
    }
    b->history = gshare_speculate(b, b->history, taken);
}

/* ReturnAddressStack.push: overflow drops the oldest frame */
static void ras_push(CBranch *b, long long return_line) {
    if (b->ras_n >= b->ras_cap) {
        memmove(b->ras, b->ras + 1, (b->ras_n - 1) * sizeof(long long));
        b->ras_n--;
    }
    b->ras[b->ras_n++] = return_line;
}

/* FetchDirectedPrefetcher.on_demand_fetch, training half: every fetch
 * trains on the transition from the previous fetched line. */
static void branch_train(CBranch *b, long long line, long long kind) {
    long long prev = b->prev_line;
    b->prev_line = line;
    if (prev >= 0) {
        int taken = line != prev + 1;
        gshare_update(b, prev, taken);
        if (taken) b->btb[prev & b->btb_mask] = line;
        if (kind == b->k_call || kind == b->k_jump) {
            ras_push(b, prev + 1);
        } else if (kind == b->k_return) {
            if (b->ras_n > 0) b->ras_n--;
        }
    }
}

/* One predicted-path step from *current (shared by both walks).  Returns
 * 0 when the path ends (taken with no BTB target); run-ahead pops read the
 * RAS top-down through *ras_n, which is a copy of the stack depth, so the
 * training stack is never modified. */
static int branch_step(const CBranch *b, long long *current, long long *history,
                       long long *ras_n, int *taken_out) {
    long long cur = *current;
    int taken = gshare_predict(b, cur, *history);
    *history = gshare_speculate(b, *history, taken);
    *taken_out = taken;
    if (taken) {
        long long target = b->btb[cur & b->btb_mask];
        if (target < 0) return 0;
        if (*ras_n > 0 && target == cur + 1) target = b->ras[--*ras_n];
        *current = target;
    } else {
        *current = cur + 1;
    }
    return 1;
}

/* FetchDirectedPrefetcher._run_ahead */
static long long fdp_run_ahead(CBranch *b, long long line, CCand *out) {
    long long current = line, history = b->history, ras_n = b->ras_n;
    long long n = 0, k;
    int taken;
    for (k = 0; k < b->lookahead; k++) {
        long long prev = current;
        if (!branch_step(b, &current, &history, &ras_n, &taken)) break;
        /* tagless-BTB self-target: end the path (fdp only) */
        if (taken && current == prev) break;
        out[n].line = current;
        out[n].prov_kind = 3;
        out[n].prov_index = 0;
        out[n].prov_line = 0;
        n++;
    }
    return n;
}

static long long fdp_demand(void *pf, long long line, int was_miss,
                            int first_use, long long kind, CCand *out) {
    CBranch *b = (CBranch *)pf;
    branch_train(b, line, kind);
    if (!(was_miss || first_use)) return 0;
    return fdp_run_ahead(b, line, out);
}

const PfOps repro_pf_fdp = {fdp_demand, 0, 0};

/* The way list of line's STB set; *n points at its length. */
static CStbEntry *stb_set(const CShadow *s, long long line, long long **n) {
    long long si = line & s->stb_set_mask;
    *n = s->stb_counts + si;
    return s->stb + si * s->stb_assoc;
}

/* ShadowTargetBuffer.lookup (no recency update) */
static CStbEntry *stb_lookup(const CShadow *s, long long line) {
    long long *n, k;
    CStbEntry *ways = stb_set(s, line, &n);
    for (k = 0; k < *n; k++)
        if (ways[k].line == line) return &ways[k];
    return 0;
}

/* ShadowTargetBuffer.observe: a hit moves to the end keeping its
 * confidence; a full set drops the first way of minimum confidence. */
static void stb_observe(CShadow *s, long long line, long long target) {
    long long *n, k, drop = -1;
    CStbEntry *ways = stb_set(s, line, &n);
    CStbEntry entry = {line, target, 1};
    for (k = 0; k < *n; k++) {
        if (ways[k].line == line) {
            entry.confidence = ways[k].confidence;
            drop = k;
            break;
        }
    }
    if (drop < 0 && *n >= s->stb_assoc) {
        drop = 0;
        for (k = 0; k < *n; k++)
            if (ways[k].confidence < ways[drop].confidence) drop = k;
    }
    if (drop >= 0) {
        memmove(ways + drop, ways + drop + 1, (*n - 1 - drop) * sizeof(CStbEntry));
        --*n;
    }
    ways[(*n)++] = entry;
}

/* ShadowBranchPrefetcher._run_ahead: fill the FTQ along the predicted
 * path, then drain it, predecoding each sequentially-exited line. */
static long long shadow_run_ahead(CShadow *s, long long line, CCand *out) {
    const CBranch *b = &s->b;
    long long current = line, history = b->history, ras_n = b->ras_n;
    long long steps = b->lookahead < s->ftq_entries ? b->lookahead : s->ftq_entries;
    long long nq = 0, n = 0, k, extra;
    int taken;
    for (k = 0; k < steps; k++) {
        int more = branch_step(b, &current, &history, &ras_n, &taken);
        if (nq) s->ftq_seq[nq - 1] = !taken;
        if (!more) break;
        s->ftq_lines[nq] = current;
        s->ftq_seq[nq] = 1;
        nq++;
    }
    for (k = 0; k < nq; k++) {
        long long qline = s->ftq_lines[k], target;
        const CStbEntry *hit;
        out[n].line = qline;
        out[n].prov_kind = 3;
        out[n].prov_index = 0;
        out[n].prov_line = 0;
        n++;
        if (!s->ftq_seq[k]) continue;
        hit = stb_lookup(s, qline);
        if (!hit || hit->target == qline + 1) continue;
        target = hit->target;
        s->discoveries++;
        for (extra = 0; extra < s->degree; extra++) {
            out[n].line = target + extra;
            out[n].prov_kind = 4;
            out[n].prov_index = 0;
            out[n].prov_line = qline;
            n++;
        }
    }
    return n;
}

static long long shadow_demand(void *pf, long long line, int was_miss,
                               int first_use, long long kind, CCand *out) {
    CShadow *s = (CShadow *)pf;
    branch_train(&s->b, line, kind);
    if (!(was_miss || first_use)) return 0;
    return shadow_run_ahead(s, line, out);
}

/* ShadowBranchPrefetcher.on_discontinuity: train on every transition */
static void shadow_discontinuity(void *pf, long long source, long long target,
                                 int caused_miss) {
    (void)caused_miss;
    stb_observe((CShadow *)pf, source, target);
}

/* ShadowBranchPrefetcher.credit -> ShadowTargetBuffer.credit (saturates
 * at 3) */
static void shadow_credit(void *pf, long long prov_kind, long long prov_index,
                          long long prov_line) {
    CStbEntry *hit;
    (void)prov_index;
    if (prov_kind != 4) return;
    hit = stb_lookup((CShadow *)pf, prov_line);
    if (hit && hit->confidence < 3) hit->confidence++;
}

const PfOps repro_pf_shadow = {shadow_demand, shadow_discontinuity, shadow_credit};
