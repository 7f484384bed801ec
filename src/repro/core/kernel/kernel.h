/* repro jit kernel — scalar-exact replica of repro.core.engine.CoreEngine.
 *
 * The kernel is built as several shared objects (repro.core.jitted
 * KERNEL_OBJECTS): the core (cache, queue, link, engine and sequential
 * units, concatenated in that order into ONE translation unit, where a
 * unit may use every type and function of the units before it) and one
 * object per stateful prefetcher family.  Every object starts with this
 * header: the candidate type and the PfOps hook table the engine calls a
 * family through.  Python reads every `typedef struct` of the units as
 * its ctypes type (repro.util.ccompile.struct_types), so a typedef is the
 * only declaration of its struct.
 *
 * The core object also exports repro_l1d_filter (engine.c): a trace's L1D
 * misses for one L1D geometry, computed once per trace, so process_visit
 * steps only those misses and the L1D binds as counters alone.
 *
 * Float discipline: compiled with -ffp-contract=off and no fast-math, so
 * every double op rounds exactly like the CPython interpreter's.  All
 * expressions copy the reference source's operation order verbatim.
 *
 * Provenance kinds (CLine, CQEntry, CCand): 0 none, 1 ("seq",),
 * 2 ("disc", index, line), 3 ("fdp",), 4 ("shadow", line),
 * 5 ("tgt", line), 6 ("markov", line), 7 ("mana", line).
 */
#include <float.h>
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
