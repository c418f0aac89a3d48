/*
 * Native SALSA walks over vector-row arrays (see core/_native.py).
 *
 * Each function runs, in C, a Python reference walk of core/row.py on
 * a SalsaRow's arrays: values[j] is the decoded value of the
 * counter containing slot j (uint64 for unsigned rows, int64 for
 * sign-magnitude rows, duplicated across a merged block) and levels[j]
 * its merge level, so its block starts at start_of(levels, j).  The
 * walks' merge and saturation steps compute in __int128, so uint64
 * saturation, sign-magnitude clamps and clamping at zero are exact;
 * the batch door and the CUS walk sum in uint64 and hand whatever
 * could overflow to those steps instead.  Merges and saturations are
 * counted per row in counts[2 * r] and counts[2 * r + 1].  The CUS
 * walk and the min-query hash their keys themselves, with the mix64
 * of hashing/family.py.
 *
 *   salsa_cu_walk      == hash, then SalsaConservativeUpdate.update
 *                         per item
 *   salsa_min_query    == hash, then RowSketch.query per item
 *   salsa_absorb       == ops._absorb_walk over b's counters in slot order
 *   salsa_add_partial  == the merge-free part of a batch of SalsaRow.add
 *   salsa_replay       == SalsaRow.add over a batch's dirty-superblock
 *                         updates, up to the first one that would merge
 *   salsa_hash         == mix64(items[t] ^ seed) & mask (hashing/family.py)
 */

#include <stdint.h>
#include <stdlib.h>

typedef __int128 i128;

typedef struct {
    void *values;
    int64_t *levels;
    int64_t s;
    int64_t max_level;
    int sgn;
    int max_merge;
    int64_t *counts;
} row_t;

static inline i128 get(const void *values, int64_t j, int sgn)
{
    return sgn ? (i128)((const int64_t *)values)[j]
               : (i128)((const uint64_t *)values)[j];
}

static inline int64_t start_of(const int64_t *levels, int64_t j)
{
    return j & -((int64_t)1 << levels[j]);
}

/* SalsaRow._fits: does x fit a width-bit field? */
static inline int fits(i128 x, int64_t width, int sgn)
{
    if (sgn) {
        i128 bound = ((i128)1 << (width - 1)) - 1;
        return x <= bound && x >= -bound;
    }
    return x >= 0 && x < ((i128)1 << width);
}

/* SalsaRow._clamp: saturate x into a width-bit field. */
static inline i128 clamp(i128 x, int64_t width, int sgn)
{
    i128 hi = sgn ? ((i128)1 << (width - 1)) - 1 : ((i128)1 << width) - 1;
    i128 lo = sgn ? -hi : 0;
    return x > hi ? hi : (x < lo ? lo : x);
}

/* SalsaRow.write_block: x is the value's 64-bit word (two's
 * complement on a signed row). */
static void write_block(void *values, int64_t start, int64_t level,
                        uint64_t x)
{
    uint64_t *v = values;
    int64_t end = start + ((int64_t)1 << level);
    for (int64_t k = start; k < end; k++)
        v[k] = x;
}

/* SalsaRow._grow: merge (start, level) upward once, folding the
 * sibling half's live counters into the pending value. */
static void grow(row_t *r, int64_t *start, int64_t *level, i128 *value)
{
    int64_t lv = *level, nl = lv + 1;
    int64_t ns = (*start >> nl) << nl;
    int64_t sib = *start != ns ? ns : ns + ((int64_t)1 << lv);
    int64_t sib_end = sib + ((int64_t)1 << lv);
    i128 acc = *value;
    for (int64_t j = sib; j < sib_end; j += (int64_t)1 << r->levels[j]) {
        i128 c = get(r->values, j, r->sgn);
        if (r->max_merge)
            acc = c > acc ? c : acc;
        else
            acc += c;
    }
    int64_t end = ns + ((int64_t)1 << nl);
    for (int64_t j = ns; j < end; j++)
        r->levels[j] = nl;
    r->counts[0]++;
    *start = ns;
    *level = nl;
    *value = acc;
}

/* Shared tail of SalsaRow.add and set_at_least: merge until value
 * fits (saturating at max_level), then store it. */
static void settle(row_t *r, int64_t start, int64_t level, i128 value)
{
    while (!fits(value, r->s << level, r->sgn)) {
        if (level >= r->max_level) {
            value = clamp(value, r->s << level, r->sgn);
            r->counts[1]++;
            break;
        }
        grow(r, &start, &level, &value);
    }
    write_block(r->values, start, level, (uint64_t)value);
}

/* The value SalsaRow.add stores before any merge: the counter at
 * start plus v, clamped at zero on an unsigned row. */
static inline i128 plus(const row_t *r, int64_t start, i128 v)
{
    i128 value = get(r->values, start, r->sgn) + v;
    return !r->sgn && value < 0 ? 0 : value;
}

/* SalsaRow.add */
static void add(row_t *r, int64_t j, i128 v)
{
    int64_t start = start_of(r->levels, j);
    settle(r, start, r->levels[j], plus(r, start, v));
}

/* SalsaRow.set_at_least */
static void set_at_least(row_t *r, int64_t j, i128 target)
{
    if (get(r->values, j, r->sgn) < target)
        settle(r, start_of(r->levels, j), r->levels[j], target);
}

/* SalsaRow.ensure_level */
static void ensure_level(row_t *r, int64_t j, int64_t target_level)
{
    int64_t start = start_of(r->levels, j), level = r->levels[j];
    while (level < target_level) {
        i128 value = get(r->values, start, r->sgn);
        grow(r, &start, &level, &value);
        write_block(r->values, start, level,
                    (uint64_t)clamp(value, r->s << level, r->sgn));
    }
}

/* The splitmix64 finalizer of hashing.family.mix64. */
static inline uint64_t mix64(uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/*
 * Stream-order conservative update over d unsigned max-merge rows:
 * item t hashes to slot mix64(items[t] ^ seeds[r]) & (w - 1) of row r
 * and raises each of its d counters to at least min_r(counter) +
 * vals[t].  The target is summed in uint64, and each counter's new
 * value max(counter, target) is stored in place, over its whole block,
 * when it fits the counter's width; every other case -- a target past
 * 2^64 - 1 or a negative vals[t] (both computed in __int128), a
 * counter that must merge or saturate -- goes through set_at_least, as
 * the reference does.  Returns -1, writing nothing, when
 * d < 1 or w is not a power of two.
 */
int salsa_cu_walk(int64_t d, int64_t n, int64_t w, int64_t s,
                  int64_t max_level, void **values, int64_t **levels,
                  const uint64_t *seeds, const int64_t *items,
                  const int64_t *vals, int64_t *counts)
{
    if (d < 1 || w < 1 || (w & (w - 1)))
        return -1;
    row_t rows[d];
    int64_t slot[d];
    uint64_t cur[d];
    for (int64_t r = 0; r < d; r++) {
        row_t row = {values[r], levels[r], s, max_level, 0, 1, counts + 2 * r};
        rows[r] = row;
    }
    uint64_t mask = (uint64_t)w - 1;
    for (int64_t t = 0; t < n; t++) {
        uint64_t est = UINT64_MAX, target;
        for (int64_t r = 0; r < d; r++) {
            slot[r] = (int64_t)(mix64((uint64_t)items[t] ^ seeds[r]) & mask);
            cur[r] = ((const uint64_t *)values[r])[slot[r]];
            est = cur[r] < est ? cur[r] : est;
        }
        if (vals[t] < 0
            || __builtin_add_overflow(est, (uint64_t)vals[t], &target)) {
            for (int64_t r = 0; r < d; r++)
                set_at_least(&rows[r], slot[r], (i128)est + vals[t]);
            continue;
        }
        /* Each counter becomes max(cur, target), stored without a
         * branch on which is larger when it fits. */
        for (int64_t r = 0; r < d; r++) {
            int64_t j = slot[r], level = levels[r][j];
            uint64_t top = cur[r] > target ? cur[r] : target;
            if (top >> ((s << level) - 1) >> 1)  /* !fits(top) */
                set_at_least(&rows[r], j, target);
            else if (level)
                write_block(values[r], start_of(levels[r], j), level, top);
            else
                ((uint64_t *)values[r])[j] = top;
        }
    }
    return 0;
}

/*
 * The min-over-rows batch query of d unsigned rows: out[t] is the
 * smallest of values[r][mix64(items[t] ^ seeds[r]) & (w - 1)] over the
 * rows (a row's values duplicate each counter across its block, so
 * one gather reads it).  Returns -1, writing nothing, when d < 1 or w
 * is not a power of two.
 */
int salsa_min_query(int64_t d, int64_t n, int64_t w,
                    const uint64_t *const *values, const uint64_t *seeds,
                    const int64_t *items, uint64_t *out)
{
    if (d < 1 || w < 1 || (w & (w - 1)))
        return -1;
    uint64_t mask = (uint64_t)w - 1;
    for (int64_t t = 0; t < n; t++) {
        uint64_t est = UINT64_MAX;
        for (int64_t r = 0; r < d; r++) {
            uint64_t j = mix64((uint64_t)items[t] ^ seeds[r]) & mask;
            est = values[r][j] < est ? values[r][j] : est;
        }
        out[t] = est;
    }
    return 0;
}

/*
 * Fold row b into row a with sign +1 or -1: for each counter of b in
 * slot order, coarsen a's layout to cover it, then add its value.
 * Returns -1, touching nothing more, on a b counter that is not an
 * aligned block of at most max_level.
 */
int salsa_absorb(int64_t w, int64_t s, int64_t max_level, int64_t sgn,
                 int64_t max_merge, void *a_values, int64_t *a_levels,
                 const void *b_values, const int64_t *b_levels,
                 int64_t sign, int64_t *counts)
{
    row_t a = {a_values, a_levels, s, max_level, (int)sgn, (int)max_merge,
               counts};
    for (int64_t j = 0; j < w; j += (int64_t)1 << b_levels[j]) {
        int64_t level = b_levels[j];
        if (level < 0 || level > max_level
            || (j & (((int64_t)1 << level) - 1)))
            return -1;
        ensure_level(&a, j, level);
        i128 v = get(b_values, j, a.sgn);
        if (v)
            add(&a, j, sign * v);
    }
    return 0;
}

/*
 * Merge-free batch apply on one row.  Counters merge only inside their
 * 2^max_level-aligned superblock, so superblocks are independent.  The
 * batch (idx[t], val[t]) is summed per live counter into a table
 * indexed by counter start: net, the sum of its deltas mod 2^64, and
 * mag, the sum of their magnitudes.  A superblock is dirty when one of
 * its touched counters could leave its width under the batch, i.e.
 * |value| + mag does not fit: flagged as soon as mag passes 2^64 - 1
 * (no width holds it) or, on unsigned rows, a delta is negative (the
 * per-item walk clamps at zero), and otherwise checked once per
 * touched counter.  A clean counter's net is exact (|net| <= mag fits
 * 64 bits), so its new value is one word add.  Dirty superblocks are
 * flagged in dirty[] and never written; with apply set, every other
 * touched counter gets value + net.  Returns the number of dirty
 * superblocks, -1 (nothing written) on an index outside [0, w), or -2
 * when scratch memory cannot be allocated.
 */
int64_t salsa_add_partial(int64_t w, int64_t s, int64_t max_level,
                          int64_t sgn, void *values, const int64_t *levels,
                          int64_t n, const int64_t *idx, const int64_t *val,
                          int64_t apply, uint8_t *dirty)
{
    uint64_t outside = 0;
    for (int64_t t = 0; t < n; t++)
        outside |= (uint64_t)idx[t] >= (uint64_t)w;
    if (outside)
        return -1;
    /* acc[start] and seen[start] per counter start; starts[] lists the
     * touched starts in first-touch order. */
    struct flow { uint64_t net, mag; } *acc = calloc((size_t)w, sizeof *acc);
    uint8_t *seen = calloc((size_t)w, 1);
    int64_t *starts = malloc((size_t)(n ? n : 1) * sizeof *starts);
    uint64_t *words = values;
    int64_t m = 0, ndirty = -2;
    if (!acc || !seen || !starts)
        goto out;
    ndirty = 0;
    for (int64_t t = 0; t < n; t++) {
        int64_t st = start_of(levels, idx[t]);
        uint64_t v = (uint64_t)val[t], neg = v >> 63;
        starts[m] = st;
        m += !seen[st];
        seen[st] = 1;
        acc[st].net += v;
        int flag = __builtin_add_overflow(acc[st].mag,
                                          (v ^ -neg) + neg /* |val[t]| */,
                                          &acc[st].mag);
        if ((flag | (neg & !sgn)) && !dirty[st >> max_level]) {
            dirty[st >> max_level] = 1;
            ndirty++;
        }
    }
    for (int64_t k = 0; k < m; k++) {
        int64_t st = starts[k];
        if (dirty[st >> max_level])
            continue;
        uint64_t cur = words[st], peak;
        if (sgn && (int64_t)cur < 0)
            cur = -cur;
        /* fits(peak), peak being the largest magnitude any order of the
         * adds can reach: < 2^width unsigned, <= 2^(width-1) - 1 signed */
        int64_t width = s << levels[st];
        if (__builtin_add_overflow(cur, acc[st].mag, &peak)
            || peak >> (width - 1) >> !sgn) {
            dirty[st >> max_level] = 1;
            ndirty++;
        }
    }
    if (apply)
        for (int64_t k = 0; k < m; k++) {
            int64_t st = starts[k];
            if (acc[st].net && !dirty[st >> max_level])
                write_block(values, st, levels[st], words[st] + acc[st].net);
        }
out:
    free(acc);
    free(seen);
    free(starts);
    return ndirty;
}

/*
 * Dirty-superblock replay on one row, in stream order from update
 * `from`: updates whose superblock is clean in dirty[] (salsa_add_partial
 * applied them) are skipped, and every other update that needs no
 * merge -- it fits its counter, clamps at zero on an unsigned row, or
 * saturates at max_level -- is added in place as SalsaRow.add would.
 * Returns the position of the first update that would merge, for the
 * caller to run through SalsaRow.add and resume after, or n when the
 * batch is done.  The first call (from == 0) returns -1, writing
 * nothing, when a slot lies outside [0, w).
 */
int64_t salsa_replay(int64_t w, int64_t s, int64_t max_level, int64_t sgn,
                     void *values, int64_t *levels, int64_t n,
                     const int64_t *idx, const int64_t *val,
                     const uint8_t *dirty, int64_t from, int64_t *counts)
{
    row_t r = {values, levels, s, max_level, (int)sgn, 0, counts};
    if (from == 0)
        for (int64_t t = 0; t < n; t++)
            if (idx[t] < 0 || idx[t] >= w)
                return -1;
    for (int64_t t = from; t < n; t++) {
        int64_t j = idx[t];
        if (!dirty[j >> max_level])
            continue;
        int64_t start = start_of(levels, j), level = levels[j];
        i128 value = plus(&r, start, val[t]);
        if (level < max_level && !fits(value, s << level, r.sgn))
            return t;
        settle(&r, start, level, value);
    }
    return n;
}

/*
 * The splitmix64 finalizer of hashing.family.mix64 over a batch of
 * 64-bit keys: out[t] = mix64(items[t] ^ seed) & mask (a row index
 * when mask is w - 1, the raw hash when it is all ones).
 */
void salsa_hash(int64_t n, const uint64_t *items, uint64_t seed,
                uint64_t mask, uint64_t *out)
{
    for (int64_t t = 0; t < n; t++)
        out[t] = mix64(items[t] ^ seed) & mask;
}
