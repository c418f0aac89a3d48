/*
 * Native SALSA walks over vector-row arrays (see core/_native.py).
 *
 * Each function runs, in C, a Python reference walk of core/row.py on
 * a VectorRowEngine's arrays: values[j] is the decoded value of the
 * counter containing slot j (uint64 for unsigned rows, int64 for
 * sign-magnitude rows, duplicated across a merged block) and levels[j]
 * its merge level, so its block starts at start_of(levels, j).  All
 * arithmetic is in __int128, so uint64 saturation, sign-magnitude
 * clamps and clamping at zero are exact.  Merges and saturations are
 * counted per row in counts[2 * r] and counts[2 * r + 1].
 *
 *   salsa_cu_walk      == SalsaConservativeUpdate.update per item
 *   salsa_absorb       == ops._absorb_walk over b's counters in slot order
 *   salsa_add_partial  == the merge-free part of a batch of SalsaRow.add
 *   salsa_replay       == SalsaRow.add over a batch's dirty-superblock
 *                         updates, up to the first one that would merge
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

/* VectorRowEngine.write_block */
static void write_block(row_t *r, int64_t start, int64_t level, i128 x)
{
    int64_t end = start + ((int64_t)1 << level);
    if (r->sgn) {
        int64_t *v = (int64_t *)r->values;
        for (int64_t k = start; k < end; k++)
            v[k] = (int64_t)x;
    } else {
        uint64_t *v = (uint64_t *)r->values;
        for (int64_t k = start; k < end; k++)
            v[k] = (uint64_t)x;
    }
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
    write_block(r, start, level, value);
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
        write_block(r, start, level, clamp(value, r->s << level, r->sgn));
    }
}

/*
 * Stream-order conservative update over d unsigned max-merge rows:
 * item t raises each of its counters idx[r][t] to at least
 * min_r(counter) + vals[t].
 */
int salsa_cu_walk(int64_t d, int64_t n, int64_t s, int64_t max_level,
                  void **values, int64_t **levels, const int64_t **idx,
                  const int64_t *vals, int64_t *counts)
{
    if (d < 1)
        return -1;
    row_t rows[d];
    for (int64_t r = 0; r < d; r++) {
        row_t row = {values[r], levels[r], s, max_level, 0, 1, counts + 2 * r};
        rows[r] = row;
    }
    for (int64_t t = 0; t < n; t++) {
        i128 est = get(rows[0].values, idx[0][t], 0);
        for (int64_t r = 1; r < d; r++) {
            i128 c = get(rows[r].values, idx[r][t], 0);
            est = c < est ? c : est;
        }
        i128 target = est + vals[t];
        for (int64_t r = 0; r < d; r++)
            set_at_least(&rows[r], idx[r][t], target);
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
 * batch (idx[t], val[t]) is summed per live counter; a superblock is
 * dirty when one of its touched counters could leave its width under
 * the batch, i.e. |value| + inflow does not fit (or, on unsigned rows,
 * any delta is negative, since the per-item walk clamps at zero).
 * Dirty superblocks are flagged in dirty[] and never written; with
 * apply set, every other touched counter gets value + net.  Returns
 * the number of dirty superblocks, -1 (nothing written) on an index
 * outside [0, w), or -2 when scratch memory cannot be allocated.
 */
int64_t salsa_add_partial(int64_t w, int64_t s, int64_t max_level,
                          int64_t sgn, void *values, const int64_t *levels,
                          int64_t n, const int64_t *idx, const int64_t *val,
                          int64_t apply, uint8_t *dirty)
{
    /* One entry per touched counter, in first-touch order; pos[start]
     * is 1 + its entry, or 0 while untouched. */
    struct flow { i128 net, mag; int64_t start; } *acc =
        malloc((size_t)(n ? n : 1) * sizeof *acc);
    int64_t *pos = calloc((size_t)w, sizeof *pos);
    int64_t m = 0, ndirty = -1;
    if (!acc || !pos) {
        ndirty = -2;
        goto out;
    }
    for (int64_t t = 0; t < n; t++) {
        if (idx[t] < 0 || idx[t] >= w)
            goto out;
        int64_t st = start_of(levels, idx[t]);
        if (!pos[st]) {
            struct flow fresh = {0, 0, st};
            acc[m] = fresh;
            pos[st] = ++m;
        }
        struct flow *f = &acc[pos[st] - 1];
        f->net += val[t];
        f->mag += val[t] < 0 ? -(i128)val[t] : (i128)val[t];
    }
    ndirty = 0;
    for (int64_t k = 0; k < m; k++) {
        struct flow *f = &acc[k];
        i128 cur = get(values, f->start, (int)sgn);
        /* the largest magnitude any order of the adds can reach */
        i128 peak = (cur < 0 ? -cur : cur) + f->mag;
        int ok = fits(peak, s << levels[f->start], (int)sgn)
                 && (sgn || f->net == f->mag);
        if (!ok && !dirty[f->start >> max_level]) {
            dirty[f->start >> max_level] = 1;
            ndirty++;
        }
    }
    if (apply) {
        row_t r = {values, (int64_t *)levels, s, max_level, (int)sgn, 0,
                   NULL};
        for (int64_t k = 0; k < m; k++) {
            struct flow *f = &acc[k];
            if (f->net && !dirty[f->start >> max_level])
                write_block(&r, f->start, levels[f->start],
                            get(values, f->start, (int)sgn) + f->net);
        }
    }
out:
    free(acc);
    free(pos);
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
 * batch is done.  Slots must lie in [0, w) (the caller checks).
 */
int64_t salsa_replay(int64_t s, int64_t max_level, int64_t sgn,
                     void *values, int64_t *levels, int64_t n,
                     const int64_t *idx, const int64_t *val,
                     const uint8_t *dirty, int64_t from, int64_t *counts)
{
    row_t r = {values, levels, s, max_level, (int)sgn, 0, counts};
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
