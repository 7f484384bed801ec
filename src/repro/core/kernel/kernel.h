/* repro jit kernel — scalar-exact replica of repro.core.engine.CoreEngine.
 *
 * The kernel is built as several shared objects (repro.core.jitted
 * KERNEL_OBJECTS): the core (cache, queue, link, engine and sequential
 * units, concatenated in that order into ONE translation unit, where a
 * unit may use every type and function of the units before it) and one
 * object per stateful prefetcher family.  Every object starts with this
 * header: the candidate type and the PfOps hook table the engine calls a
 * family through, and the struct layout table each unit exports.
 *
 * Float discipline: compiled with -ffp-contract=off and no fast-math, so
 * every double op rounds exactly like the CPython interpreter's.  All
 * expressions copy the reference source's operation order verbatim.
 *
 * Provenance kinds (CLine, CQEntry, CCand): 0 none, 1 ("seq",),
 * 2 ("disc", index, line), 3 ("fdp",), 4 ("shadow", line),
 * 5 ("tgt", line), 6 ("markov", line), 7 ("mana", line).
 */
#include <stddef.h>
#include <string.h>

/* repro.prefetch.base.PrefetchCandidate (provenance encoded as in CLine) */
typedef struct {
    long long line;
    long long prov_kind, prov_index, prov_line;
} CCand;

/* A prefetcher family's hooks (repro.prefetch.base.Prefetcher).  Every
 * family unit exports one `const PfOps repro_pf_<family>`; the Python
 * marshaller of the family points CCore.pf_ops at it and CCore.pf at the
 * family's state.  A NULL hook is the base class's no-op. */
typedef struct {
    /* on_demand_fetch: write the candidates to *out, return their count */
    long long (*demand)(void *pf, long long line, int was_miss, int first_use,
                        long long kind, CCand *out);
    /* on_discontinuity(source_line, target_line, caused_miss) */
    void (*discontinuity)(void *pf, long long source, long long target,
                          int caused_miss);
    /* credit(provenance) of a demand-used prefetched line (kind != 0) */
    void (*credit)(void *pf, long long prov_kind, long long prov_index,
                   long long prov_line);
} PfOps;

/* One row of a unit's layout table `repro_layout_<unit>`: a struct's
 * size (field NULL) or one field's offset and size.  The loader compares
 * every row with the struct's ctypes mirror and refuses the object on
 * any difference; a NULL name ends the table. */
typedef struct {
    const char *name;
    const char *field;
    long long offset, size;
} CLayout;

#define LAYOUT_SIZE(T) {#T, 0, 0, (long long)sizeof(T)}
#define LAYOUT_FIELD(T, f) \
    {#T, #f, (long long)offsetof(T, f), (long long)sizeof(((T *)0)->f)}
#define LAYOUT_END {0, 0, 0, 0}

const CLayout repro_layout_kernel[] = {
    LAYOUT_SIZE(CCand),
    LAYOUT_FIELD(CCand, line), LAYOUT_FIELD(CCand, prov_kind),
    LAYOUT_FIELD(CCand, prov_index), LAYOUT_FIELD(CCand, prov_line),
    LAYOUT_SIZE(PfOps),
    LAYOUT_FIELD(PfOps, demand), LAYOUT_FIELD(PfOps, discontinuity),
    LAYOUT_FIELD(PfOps, credit),
    LAYOUT_END,
};
