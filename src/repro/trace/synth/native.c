/*
 * Compiled trace synthesis and lowering.
 *
 * A transcription of the Python synthesizer, which stays the
 * specification:
 *
 *   util/rng.py            SplitMix64, derive_seed and the samplers
 *   trace/synth/program.py build_program and its terminator assignment
 *   trace/synth/walker.py  TraceWalker.walk and the per-core text rebase
 *   trace/synth/datagen.py DataStream
 *   trace/synth/mix.py     the mix's whole-trace rebase
 *   trace/stream.py        iter_line_visits
 *   trace/compiled.py      the per-visit discontinuity flag
 *
 * Every random draw happens in the same order as in Python and every
 * double operation in the same order and precision: sums are written out
 * left to right, Python's float ** is libm pow, int() is the truncating C
 * cast, and the unit is built with -ffp-contract=off.  The columns it
 * emits are therefore byte-identical to CompiledTrace.compile over the
 * Python trace.  Stored traces are stamped with the package's code hash,
 * which covers this file, so an edit here never serves a stale trace.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* SplitMix64 (util/rng.py)                                            */
/* ------------------------------------------------------------------ */

typedef struct {
    uint64_t state;
} Rng;

static uint64_t mix64(uint64_t value) {
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9ULL;
    value = (value ^ (value >> 27)) * 0x94D049BB133111EBULL;
    return value ^ (value >> 31);
}

/* derive_seed(root, label) for one label; `repr` is the bytes of
 * repr(label), quotes included ("'program'"). */
static uint64_t derive_seed(uint64_t root, const char *repr) {
    uint64_t state = root ^ 0x6A09E667F3BCC909ULL;
    const unsigned char *byte;
    for (byte = (const unsigned char *)repr; *byte; ++byte) {
        state = (state ^ *byte) * 0x100000001B3ULL;
    }
    return mix64(state);
}

static uint64_t next_u64(Rng *rng) {
    rng->state += 0x9E3779B97F4A7C15ULL;
    return mix64(rng->state);
}

static double rand_double(Rng *rng) {
    return (double)next_u64(rng) / 18446744073709551616.0;
}

static int64_t randrange(Rng *rng, int64_t bound) {
    return (int64_t)(next_u64(rng) % (uint64_t)bound);
}

static int64_t randint(Rng *rng, int64_t low, int64_t high) {
    return low + randrange(rng, high - low + 1);
}

static int64_t geometric(Rng *rng, double mean) {
    double success;
    int64_t count = 1;
    if (mean == 1.0) {
        return 1;
    }
    success = 1.0 / mean;
    while (rand_double(rng) > success) {
        count += 1;
        if ((double)count >= mean * 20.0) {
            break;
        }
    }
    return count;
}

static int64_t lognormal_int(Rng *rng, int64_t median, double sigma, int64_t low,
                             int64_t high) {
    /* Six draws, summed left to right (C leaves call order unspecified
     * inside one expression, so each is sequenced first). */
    double u1 = rand_double(rng);
    double u2 = rand_double(rng);
    double u3 = rand_double(rng);
    double u4 = rand_double(rng);
    double u5 = rand_double(rng);
    double u6 = rand_double(rng);
    double z = (u1 + u2 + u3 + u4 + u5 + u6 - 3.0) / 1.0;
    int64_t value = (int64_t)((double)median * pow(2.0, sigma * z));
    if (value < low) {
        return low;
    }
    if (value > high) {
        return high;
    }
    return value;
}

static int64_t zipf_index(Rng *rng, int64_t n, double skew) {
    double u, rank, one_minus;
    int64_t index;
    if (n == 1) {
        return 0;
    }
    if (skew <= 0.0) {
        return randrange(rng, n);
    }
    u = rand_double(rng);
    if (skew == 1.0) {
        rank = pow((double)n, u);
    } else {
        one_minus = 1.0 - skew;
        rank = pow((pow((double)n, one_minus) - 1.0) * u + 1.0, 1.0 / one_minus);
    }
    index = (int64_t)rank - 1;
    if (index < 0) {
        return 0;
    }
    if (index >= n) {
        return n - 1;
    }
    return index;
}

static void shuffle(Rng *rng, int64_t *items, int64_t n) {
    int64_t i, j, swap;
    for (i = n - 1; i > 0; --i) {
        j = randrange(rng, i + 1);
        swap = items[i];
        items[i] = items[j];
        items[j] = swap;
    }
}

/* ------------------------------------------------------------------ */
/* Growable arrays                                                     */
/* ------------------------------------------------------------------ */

/* Grow *ptr (holding *cap elements of `size` bytes) to fit `need`. */
static int reserve(void **ptr, int64_t *cap, int64_t need, size_t size) {
    int64_t grown;
    void *moved;
    if (need <= *cap) {
        return 0;
    }
    grown = *cap ? *cap * 2 : 1024;
    while (grown < need) {
        grown *= 2;
    }
    moved = realloc(*ptr, (size_t)grown * size);
    if (moved == NULL) {
        return -1;
    }
    *ptr = moved;
    *cap = grown;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Workload profile (trace/synth/params.py): each field is filled from  */
/* the WorkloadProfile attribute of its name.                          */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t n_functions;
    int64_t fn_median_instr;
    int64_t fn_min_instr;
    int64_t fn_max_instr;
    int64_t loop_span_max;
    int64_t poly_targets;
    int64_t switch_targets;
    int64_t max_call_depth;
    int64_t max_transaction_instr;
    int64_t reuse_window_lines;
    int64_t hot_bytes;
    int64_t cold_bytes;
    int64_t code_base;
    int64_t fn_align;
    double fn_sigma;
    double block_mean_instr;
    double entry_fraction;
    double p_cond;
    double p_uncond;
    double p_call;
    double p_switch;
    double p_early_return;
    double p_backward;
    double fwd_skip_mean;
    double fwd_taken_lo;
    double fwd_taken_hi;
    double loop_taken_lo;
    double loop_taken_hi;
    double p_poly_call;
    double far_jump_fraction;
    double callee_zipf;
    double entry_zipf;
    double text_shared_fraction;
    double p_trap;
    double data_rate;
    double p_reuse;
    double hot_zipf;
    double p_cold;
    double cold_zipf;
    double cold_private_fraction;
} Profile;

/* ------------------------------------------------------------------ */
/* Static program (trace/synth/program.py)                             */
/* ------------------------------------------------------------------ */

enum { FALLTHROUGH = 0, COND = 1, UNCOND = 2, CALL = 3, SWITCH = 4, RETURN = 5 };

#define INSTRUCTION_SIZE 4
#define N_TRAP_HANDLERS 4
#define TRAP_REGION_GAP (1LL << 22)

typedef struct {
    int64_t addr;
    int64_t ninstr;
    int64_t term;
    /* COND/UNCOND: target block index within the function. */
    int64_t target;
    double taken_prob;
    /* CALL: callee function indices; SWITCH: target block indices. */
    int64_t aux_start;
    int64_t aux_count;
} Block;

typedef struct {
    int64_t first_block;
    int64_t n_blocks;
} Function;

typedef struct {
    Profile profile;
    Function *functions;
    int64_t n_functions;
    Block *blocks;
    int64_t n_blocks, blocks_cap;
    int64_t *aux;
    int64_t n_aux, aux_cap;
    int64_t *entries;
    int64_t n_entries;
    int64_t trap_handlers[N_TRAP_HANDLERS];
    int64_t private_text_start;
} Program;

static int push_block(Program *program, int64_t addr, int64_t ninstr) {
    Block *block;
    if (reserve((void **)&program->blocks, &program->blocks_cap, program->n_blocks + 1,
                sizeof(Block))) {
        return -1;
    }
    block = &program->blocks[program->n_blocks++];
    memset(block, 0, sizeof(Block));
    block->addr = addr;
    block->ninstr = ninstr;
    block->term = FALLTHROUGH;
    return 0;
}

static int push_aux(Program *program, int64_t value) {
    if (reserve((void **)&program->aux, &program->aux_cap, program->n_aux + 1,
                sizeof(int64_t))) {
        return -1;
    }
    program->aux[program->n_aux++] = value;
    return 0;
}

static void assign_cond(Block *blocks, int64_t nblocks, int64_t i, const Profile *p,
                        Rng *rng) {
    Block *block = &blocks[i];
    int64_t span, skip, high;
    block->term = COND;
    if (i > 0 && rand_double(rng) < p->p_backward) {
        high = p->loop_span_max > 1 ? p->loop_span_max : 1;
        span = i < high ? i : high;
        block->target = i - randint(rng, 1, span);
        block->taken_prob =
            p->loop_taken_lo + rand_double(rng) * (p->loop_taken_hi - p->loop_taken_lo);
    } else {
        skip = geometric(rng, p->fwd_skip_mean);
        block->target = nblocks - 1 < i + 1 + skip ? nblocks - 1 : i + 1 + skip;
        block->taken_prob =
            p->fwd_taken_lo + rand_double(rng) * (p->fwd_taken_hi - p->fwd_taken_lo);
    }
}

static void assign_uncond(Block *blocks, int64_t nblocks, int64_t i, const Profile *p,
                          Rng *rng) {
    Block *block = &blocks[i];
    int64_t low, skip;
    block->term = UNCOND;
    if (rand_double(rng) < p->far_jump_fraction) {
        low = nblocks - 1 < i + 2 ? nblocks - 1 : i + 2;
        block->target = randint(rng, low, nblocks - 1);
    } else {
        skip = 1 + geometric(rng, p->fwd_skip_mean);
        block->target = nblocks - 1 < i + 1 + skip ? nblocks - 1 : i + 1 + skip;
    }
}

static int64_t pick_callee(int64_t fn_index, int64_t n_functions, const Profile *p,
                           Rng *rng) {
    int64_t callee = zipf_index(rng, n_functions, p->callee_zipf);
    if (callee == fn_index) {
        callee = (callee + 1) % n_functions;
    }
    return callee;
}

static int assign_call(Program *program, int64_t block_index, int64_t fn_index,
                       int64_t n_functions, Rng *rng) {
    const Profile *p = &program->profile;
    int64_t n_targets = 1, k, callee;
    program->blocks[block_index].term = CALL;
    program->blocks[block_index].aux_start = program->n_aux;
    if (rand_double(rng) < p->p_poly_call) {
        n_targets = p->poly_targets > 2 ? p->poly_targets : 2;
    }
    for (k = 0; k < n_targets; ++k) {
        callee = pick_callee(fn_index, n_functions, p, rng);
        if (push_aux(program, callee)) {
            return -1;
        }
    }
    program->blocks[block_index].aux_count = n_targets;
    return 0;
}

static int assign_switch(Program *program, int64_t first, int64_t nblocks, int64_t i,
                         Rng *rng) {
    const Profile *p = &program->profile;
    int64_t n_targets, start, count = 0, candidate, k, j, swap;
    int seen;
    if (nblocks - 1 <= i + 1) {
        return 0; /* no room for a switch; keep fall-through */
    }
    n_targets = p->switch_targets > 2 ? p->switch_targets : 2;
    if (nblocks - 1 - i < n_targets) {
        n_targets = nblocks - 1 - i;
    }
    program->blocks[first + i].term = SWITCH;
    start = program->n_aux;
    /* Python adds draws to a set until it holds n_targets distinct ones. */
    while (count < n_targets) {
        candidate = randint(rng, i + 1, nblocks - 1);
        seen = 0;
        for (k = 0; k < count; ++k) {
            if (program->aux[start + k] == candidate) {
                seen = 1;
                break;
            }
        }
        if (!seen) {
            if (push_aux(program, candidate)) {
                return -1;
            }
            count += 1;
        }
    }
    /* ...then sorts them. */
    for (k = 1; k < count; ++k) {
        for (j = k; j > 0 && program->aux[start + j - 1] > program->aux[start + j]; --j) {
            swap = program->aux[start + j];
            program->aux[start + j] = program->aux[start + j - 1];
            program->aux[start + j - 1] = swap;
        }
    }
    program->blocks[first + i].aux_start = start;
    program->blocks[first + i].aux_count = count;
    return 0;
}

static int build_blocks(Program *program, int64_t entry_addr, int64_t total_instr,
                        int64_t fn_index, int64_t n_functions, Rng *rng) {
    const Profile *p = &program->profile;
    int64_t first = program->n_blocks, remaining = total_instr, size, addr = entry_addr;
    int64_t nblocks, last, i;
    double point;
    /* Cumulative terminator thresholds, each summed left to right as the
     * Python elif chain writes them. */
    double c_cond = p->p_cond;
    double c_uncond = p->p_cond + p->p_uncond;
    double c_call = p->p_cond + p->p_uncond + p->p_call;
    double c_switch = p->p_cond + p->p_uncond + p->p_call + p->p_switch;
    double c_return = p->p_cond + p->p_uncond + p->p_call + p->p_switch + p->p_early_return;

    while (remaining > 0) {
        size = geometric(rng, p->block_mean_instr);
        if (remaining < size) {
            size = remaining;
        }
        if (push_block(program, addr, size)) {
            return -1;
        }
        addr += size * INSTRUCTION_SIZE;
        remaining -= size;
    }
    nblocks = program->n_blocks - first;
    last = nblocks - 1;
    program->blocks[first + last].term = RETURN;
    for (i = 0; i < last; ++i) {
        point = rand_double(rng);
        if (point < c_cond) {
            assign_cond(program->blocks + first, nblocks, i, p, rng);
        } else if (point < c_uncond) {
            assign_uncond(program->blocks + first, nblocks, i, p, rng);
        } else if (point < c_call) {
            if (assign_call(program, first + i, fn_index, n_functions, rng)) {
                return -1;
            }
        } else if (point < c_switch) {
            if (assign_switch(program, first, nblocks, i, rng)) {
                return -1;
            }
        } else if (point < c_return) {
            program->blocks[first + i].term = RETURN;
        }
    }
    return 0;
}

static int64_t align_up(int64_t cursor, int64_t align) {
    return (cursor + align - 1) / align * align;
}

void repro_synth_program_free(Program *program) {
    if (program == NULL) {
        return;
    }
    free(program->functions);
    free(program->blocks);
    free(program->aux);
    free(program->entries);
    free(program);
}

/* build_program(profile, seed); NULL when out of memory. */
Program *repro_synth_program(const Profile *profile, uint64_t seed) {
    Program *program = calloc(1, sizeof(Program));
    const Profile *p;
    Rng rng, shared_rng;
    int64_t n, i, position, index, n_shared = 0, cursor, trap_base = -1, n_entries;
    int64_t handler, ninstr, candidate;
    int64_t *sizes = NULL, *order = NULL, *entry_addr = NULL, *candidates = NULL;
    char *shared = NULL;
    int failed = 1;

    if (program == NULL) {
        return NULL;
    }
    program->profile = *profile;
    p = &program->profile;
    n = p->n_functions;
    rng.state = derive_seed(seed, "'program'");

    sizes = malloc((size_t)n * sizeof(int64_t));
    order = malloc((size_t)n * sizeof(int64_t));
    entry_addr = malloc((size_t)n * sizeof(int64_t));
    candidates = malloc((size_t)n * sizeof(int64_t));
    shared = malloc((size_t)n);
    program->functions = malloc((size_t)(n + N_TRAP_HANDLERS) * sizeof(Function));
    if (!sizes || !order || !entry_addr || !candidates || !shared || !program->functions) {
        goto done;
    }
    for (i = 0; i < n; ++i) {
        sizes[i] = lognormal_int(&rng, p->fn_median_instr, p->fn_sigma, p->fn_min_instr,
                                 p->fn_max_instr);
    }

    /* Sharing flags come from an independent child stream. */
    shared_rng.state = derive_seed(rng.state, "'shared-text'");
    for (i = 0; i < n; ++i) {
        shared[i] = rand_double(&shared_rng) < p->text_shared_fraction;
        n_shared += shared[i];
    }
    position = 0;
    for (i = 0; i < n; ++i) {
        if (shared[i]) {
            order[position++] = i;
        }
    }
    for (i = 0; i < n; ++i) {
        if (!shared[i]) {
            order[position++] = i;
        }
    }

    cursor = p->code_base;
    for (position = 0; position < n; ++position) {
        index = order[position];
        if (position == n_shared) {
            cursor += TRAP_REGION_GAP;
            trap_base = cursor;
            cursor += TRAP_REGION_GAP;
            program->private_text_start = cursor;
        }
        cursor = align_up(cursor, p->fn_align);
        entry_addr[index] = cursor;
        cursor += sizes[index] * INSTRUCTION_SIZE;
    }
    if (trap_base < 0) {
        cursor += TRAP_REGION_GAP;
        trap_base = cursor;
        cursor += TRAP_REGION_GAP;
        program->private_text_start = cursor;
    }

    for (index = 0; index < n; ++index) {
        program->functions[index].first_block = program->n_blocks;
        if (build_blocks(program, entry_addr[index], sizes[index], index, n, &rng)) {
            goto done;
        }
        program->functions[index].n_blocks =
            program->n_blocks - program->functions[index].first_block;
    }

    /* Trap handlers: tiny leaf functions in their reserved region. */
    cursor = trap_base;
    for (handler = 0; handler < N_TRAP_HANDLERS; ++handler) {
        cursor = align_up(cursor, p->fn_align);
        index = n + handler;
        ninstr = randint(&rng, 8, 24);
        program->functions[index].first_block = program->n_blocks;
        program->functions[index].n_blocks = 1;
        if (push_block(program, cursor, ninstr)) {
            goto done;
        }
        program->blocks[program->n_blocks - 1].term = RETURN;
        program->trap_handlers[handler] = index;
        cursor += ninstr * INSTRUCTION_SIZE;
    }
    program->n_functions = n + N_TRAP_HANDLERS;

    /* Entry points: a shuffled prefix of the regular functions, sorted. */
    n_entries = (int64_t)((double)n * p->entry_fraction);
    if (n_entries < 1) {
        n_entries = 1;
    }
    for (i = 0; i < n; ++i) {
        candidates[i] = i;
    }
    shuffle(&rng, candidates, n);
    program->entries = malloc((size_t)n_entries * sizeof(int64_t));
    if (program->entries == NULL) {
        goto done;
    }
    for (i = 0; i < n_entries; ++i) {
        program->entries[i] = candidates[i];
    }
    for (i = 1; i < n_entries; ++i) {
        candidate = program->entries[i];
        for (index = i; index > 0 && program->entries[index - 1] > candidate; --index) {
            program->entries[index] = program->entries[index - 1];
        }
        program->entries[index] = candidate;
    }
    program->n_entries = n_entries;
    failed = 0;

done:
    free(sizes);
    free(order);
    free(entry_addr);
    free(candidates);
    free(shared);
    if (failed) {
        repro_synth_program_free(program);
        return NULL;
    }
    return program;
}

/* ------------------------------------------------------------------ */
/* Data stream (trace/synth/datagen.py)                                */
/* ------------------------------------------------------------------ */

#define DATA_BASE (1LL << 30)
#define DATA_LINE 64

typedef struct {
    Rng rng;
    const Profile *profile;
    int64_t hot_base, hot_lines;
    int64_t cold_base, cold_lines;
    int64_t cold_private_base, cold_private_lines;
    int64_t *window;
    int64_t window_size, window_len, window_cursor;
} DataStream;

static int64_t at_least_one(int64_t value) { return value > 1 ? value : 1; }

static int data_init(DataStream *data, const Profile *p, uint64_t seed, int64_t core) {
    data->rng.state = derive_seed(seed, "'data'");
    data->profile = p;
    data->hot_base = DATA_BASE + (1LL << 28) + core * (1LL << 26);
    data->hot_lines = at_least_one(p->hot_bytes / DATA_LINE);
    data->cold_base = DATA_BASE + (1LL << 29);
    data->cold_lines = at_least_one(p->cold_bytes / DATA_LINE);
    data->cold_private_base = DATA_BASE + (1LL << 35) + core * (1LL << 34);
    data->cold_private_lines = at_least_one(p->cold_bytes / (4 * DATA_LINE));
    data->window_size = p->reuse_window_lines;
    data->window_len = 0;
    data->window_cursor = 0;
    data->window = malloc((size_t)data->window_size * sizeof(int64_t));
    return data->window == NULL ? -1 : 0;
}

static int64_t fresh_line(DataStream *data) {
    Rng *rng = &data->rng;
    const Profile *p = data->profile;
    int64_t line;
    if (rand_double(rng) < p->p_cold) {
        if (rand_double(rng) < p->cold_private_fraction) {
            line = zipf_index(rng, data->cold_private_lines, p->cold_zipf);
            return data->cold_private_base + line * DATA_LINE;
        }
        line = zipf_index(rng, data->cold_lines, p->cold_zipf);
        return data->cold_base + line * DATA_LINE;
    }
    line = zipf_index(rng, data->hot_lines, p->hot_zipf);
    return data->hot_base + line * DATA_LINE;
}

static int64_t one_address(DataStream *data) {
    Rng *rng = &data->rng;
    int64_t line_addr;
    if (data->window_len > 0 && rand_double(rng) < data->profile->p_reuse) {
        line_addr = data->window[randrange(rng, data->window_len)];
    } else {
        line_addr = fresh_line(data);
        if (data->window_len < data->window_size) {
            data->window[data->window_len++] = line_addr;
        } else {
            data->window[data->window_cursor] = line_addr;
            data->window_cursor = (data->window_cursor + 1) % data->window_size;
        }
    }
    return line_addr + randrange(rng, DATA_LINE);
}

/* ------------------------------------------------------------------ */
/* Block-event columns and the walk (trace/synth/walker.py)            */
/* ------------------------------------------------------------------ */

/* One core's block events: event i covers data[data_offsets[i] ..
 * data_offsets[i + 1]). */
typedef struct {
    int64_t *addr;
    int32_t *ninstr;
    int8_t *kind;
    int64_t *data_offsets;
    int64_t *data;
    int64_t n_events, events_cap;
    int64_t n_data, data_cap;
} Blocks;

void repro_synth_blocks_free(Blocks *blocks) {
    free(blocks->addr);
    free(blocks->ninstr);
    free(blocks->kind);
    free(blocks->data_offsets);
    free(blocks->data);
    memset(blocks, 0, sizeof(Blocks));
}

enum {
    K_SEQ = 0,
    K_TF = 1,
    K_TB = 2,
    K_NT = 3,
    K_UNCOND = 4,
    K_CALL = 5,
    K_JUMP = 6,
    K_RETURN = 7,
    K_TRAP = 8
};

/* Make room for one more event (and its closing data offset). */
static int reserve_event(Blocks *out) {
    int64_t need = out->n_events + 1, cap;
    if (need <= out->events_cap) {
        return 0;
    }
    cap = out->events_cap;
    if (reserve((void **)&out->addr, &cap, need, sizeof(int64_t))) {
        return -1;
    }
    cap = out->events_cap;
    if (reserve((void **)&out->ninstr, &cap, need, sizeof(int32_t))) {
        return -1;
    }
    cap = out->events_cap;
    if (reserve((void **)&out->kind, &cap, need, sizeof(int8_t))) {
        return -1;
    }
    cap = out->events_cap;
    if (reserve((void **)&out->data_offsets, &cap, need + 1, sizeof(int64_t))) {
        return -1;
    }
    out->events_cap = cap;
    return 0;
}

/* Append one block visit and its data accesses. */
static int emit(Blocks *out, DataStream *data, int64_t addr, int64_t ninstr, int kind) {
    int64_t whole, count, k;
    double expected;
    if (reserve_event(out)) {
        return -1;
    }
    out->addr[out->n_events] = addr;
    out->ninstr[out->n_events] = (int32_t)ninstr;
    out->kind[out->n_events] = (int8_t)kind;

    /* DataStream.accesses_for_block: stochastic rounding of the rate. */
    expected = (double)ninstr * data->profile->data_rate;
    whole = (int64_t)expected;
    count = whole;
    if (rand_double(&data->rng) < expected - (double)whole) {
        count += 1;
    }
    if (reserve((void **)&out->data, &out->data_cap, out->n_data + count,
                sizeof(int64_t))) {
        return -1;
    }
    for (k = 0; k < count; ++k) {
        out->data[out->n_data++] = one_address(data);
    }
    out->n_events += 1;
    out->data_offsets[out->n_events] = out->n_data;
    return 0;
}

typedef struct {
    int64_t fn;
    int64_t block;
} Frame;

/*
 * TraceWalker(program, run_seed, core).walk(n_instructions) into *out,
 * then the rebases: private text (addresses at or above
 * private_text_start) moves by core * core_stride, and every code and
 * data address moves by `offset` (the mix's region).  Returns 0, or -1
 * when out of memory (the caller frees *out either way).
 */
int repro_synth_walk(const Program *program, uint64_t run_seed, int64_t core,
                     int64_t core_stride, int64_t offset, int64_t n_instructions,
                     Blocks *out) {
    const Profile *p = &program->profile;
    const Function *functions = program->functions;
    const Block *blocks, *block, *handler;
    Rng rng;
    DataStream data;
    Frame *stack;
    int64_t depth, emitted = 0, txn_budget, fn_index, block_index, n_blocks, callee, i;
    int64_t max_depth = p->max_call_depth, shift;
    int pending, status = -1;

    rng.state = derive_seed(run_seed, "'walker'");
    if (data_init(&data, p, derive_seed(run_seed, "'datastream'"), core)) {
        return -1;
    }
    stack = malloc((size_t)(max_depth + 1) * sizeof(Frame));
    if (stack == NULL) {
        free(data.window);
        return -1;
    }
    if (reserve_event(out)) {
        goto done;
    }
    out->data_offsets[0] = 0;

    while (emitted < n_instructions) {
        /* --- one transaction --- */
        fn_index = program->entries[zipf_index(&rng, program->n_entries, p->entry_zipf)];
        depth = 0;
        blocks = program->blocks + functions[fn_index].first_block;
        n_blocks = functions[fn_index].n_blocks;
        block_index = 0;
        pending = K_CALL; /* transaction dispatch is itself a call */
        txn_budget = emitted + p->max_transaction_instr;

        for (;;) {
            if (emitted >= txn_budget) {
                break;
            }
            block = &blocks[block_index];
            if (emit(out, &data, block->addr, block->ninstr, pending)) {
                goto done;
            }
            emitted += block->ninstr;

            /* Rare trap: a distant handler, then back to this block's
             * terminator decision. */
            if (p->p_trap != 0.0 && rand_double(&rng) < p->p_trap && depth < max_depth) {
                i = program->trap_handlers[randrange(&rng, N_TRAP_HANDLERS)];
                handler = &program->blocks[functions[i].first_block];
                if (emit(out, &data, handler->addr, handler->ninstr, K_TRAP)) {
                    goto done;
                }
                emitted += handler->ninstr;
                pending = K_RETURN;
            } else {
                pending = K_SEQ;
            }

            switch (block->term) {
            case FALLTHROUGH:
                block_index += 1;
                break;
            case COND:
                if (rand_double(&rng) < block->taken_prob) {
                    if (pending == K_SEQ) {
                        pending = block->target <= block_index ? K_TB : K_TF;
                    }
                    block_index = block->target;
                } else {
                    if (pending == K_SEQ) {
                        pending = K_NT;
                    }
                    block_index += 1;
                }
                break;
            case UNCOND:
                if (pending == K_SEQ) {
                    pending = K_UNCOND;
                }
                block_index = block->target;
                break;
            case CALL:
                if (depth >= max_depth) {
                    block_index += 1; /* depth cap: elide the call */
                    break;
                }
                if (block->aux_count == 1) {
                    callee = program->aux[block->aux_start];
                    if (pending == K_SEQ) {
                        pending = K_CALL;
                    }
                } else {
                    callee =
                        program->aux[block->aux_start + randrange(&rng, block->aux_count)];
                    if (pending == K_SEQ) {
                        pending = K_JUMP;
                    }
                }
                stack[depth].fn = fn_index;
                stack[depth].block = block_index + 1;
                depth += 1;
                fn_index = callee;
                blocks = program->blocks + functions[fn_index].first_block;
                n_blocks = functions[fn_index].n_blocks;
                block_index = 0;
                continue;
            case SWITCH:
                if (pending == K_SEQ) {
                    pending = K_JUMP;
                }
                block_index =
                    program->aux[block->aux_start + randrange(&rng, block->aux_count)];
                break;
            default: /* RETURN */
                if (depth == 0) {
                    goto transaction_done;
                }
                depth -= 1;
                fn_index = stack[depth].fn;
                block_index = stack[depth].block;
                blocks = program->blocks + functions[fn_index].first_block;
                n_blocks = functions[fn_index].n_blocks;
                if (pending == K_SEQ) {
                    pending = K_RETURN;
                }
                continue;
            }

            if (block_index >= n_blocks) {
                /* A fall-through past the last block behaves as a return. */
                if (depth == 0) {
                    break;
                }
                depth -= 1;
                fn_index = stack[depth].fn;
                block_index = stack[depth].block;
                blocks = program->blocks + functions[fn_index].first_block;
                n_blocks = functions[fn_index].n_blocks;
                if (pending == K_SEQ) {
                    pending = K_RETURN;
                }
            }
        }
    transaction_done:;
    }

    shift = core * core_stride;
    for (i = 0; i < out->n_events; ++i) {
        if (core && out->addr[i] >= program->private_text_start) {
            out->addr[i] += shift;
        }
        out->addr[i] += offset;
    }
    if (offset) {
        for (i = 0; i < out->n_data; ++i) {
            out->data[i] += offset;
        }
    }
    status = 0;

done:
    free(stack);
    free(data.window);
    return status;
}

/* ------------------------------------------------------------------ */
/* Lowering (iter_line_visits + the discontinuity flag)                */
/* ------------------------------------------------------------------ */

/*
 * Lower n_events block events to line visits of line_size bytes.  The
 * visit data column is the block data column itself (every event's data
 * lands, in order, in the visit its block starts in), so only the visit
 * offsets are written.  With lines == NULL nothing is written and the
 * visit count is returned, so the caller can size its columns first.
 */
int64_t repro_synth_lower(const int64_t *addr, const int32_t *ninstr, const int8_t *kind,
                          const int64_t *data_offsets, int64_t n_events, int64_t line_size,
                          int64_t *lines, int8_t *kinds, int32_t *visit_ninstr,
                          int64_t *offsets, int8_t *disc) {
    int64_t shift = 0, instr_per_line = line_size / INSTRUCTION_SIZE;
    int64_t current_line = -1, current_ninstr = 0, previous = -1, n_visits = 0;
    int64_t e, line, offset_instr, take, remaining;
    int current_kind = K_SEQ;

    while ((1LL << shift) < line_size) {
        shift += 1;
    }
    if (lines != NULL) {
        offsets[0] = 0;
    }

#define CLOSE_VISIT(data_end)                                                        \
    do {                                                                             \
        if (lines != NULL) {                                                         \
            lines[n_visits] = current_line;                                          \
            kinds[n_visits] = (int8_t)current_kind;                                  \
            visit_ninstr[n_visits] = (int32_t)current_ninstr;                        \
            offsets[n_visits + 1] = (data_end);                                      \
            disc[n_visits] = previous >= 0 && current_line != previous &&            \
                             current_line != previous + 1 && current_kind != K_SEQ && \
                             current_kind != K_NT;                                   \
        }                                                                            \
        previous = current_line;                                                     \
        n_visits += 1;                                                               \
    } while (0)

    for (e = 0; e < n_events; ++e) {
        line = addr[e] >> shift;
        offset_instr = (addr[e] / INSTRUCTION_SIZE) % instr_per_line;
        take = instr_per_line - offset_instr;
        if (ninstr[e] < take) {
            take = ninstr[e];
        }
        if (line == current_line) {
            current_ninstr += take;
        } else {
            if (current_line >= 0) {
                CLOSE_VISIT(data_offsets[e]);
            }
            current_line = line;
            current_kind = kind[e];
            current_ninstr = take;
        }
        /* Spill continuation lines for blocks crossing line boundaries. */
        remaining = ninstr[e] - take;
        while (remaining > 0) {
            CLOSE_VISIT(data_offsets[e + 1]);
            current_line += 1;
            current_kind = K_SEQ;
            current_ninstr = remaining < instr_per_line ? remaining : instr_per_line;
            remaining -= current_ninstr;
        }
    }
    if (current_line >= 0) {
        CLOSE_VISIT(data_offsets[n_events]);
    }
#undef CLOSE_VISIT
    return n_visits;
}
