/* Compiled kernels, one kk_* function for each entry point named in
 * kcmkit._pure.ENTRY_POINTS: work-queue closure of a row or a block of
 * rows, spanning thresholds by incremental closure, event-driven KCM loop,
 * crossings, counter-based uniforms, a CSR matrix-vector product, and the
 * class of the all-empty state with its generator in canonical CSR form,
 * searched and assembled in one pass. The KCM loop computes the trajectory
 * and its event log, one buffer of packed records in the layout of
 * kcmkit._pure.EVENT, with no window integrals; its vertex keys are those
 * of the tables' geometry. kk_free releases the buffers the class
 * generator and the KCM loop hand out.
 *
 * Plain C99 over raw arrays, no Python API; kcmkit/_compiled.py binds it
 * with ctypes. The contract and the results are those of kcmkit/_pure.py
 * (bit-identical trajectories for the event loop). Its *_args functions,
 * and kcmkit.families.FamilyTables for the tables, check every argument:
 * this file assumes valid, contiguous arrays of the stated types and
 * lengths, and indexes with nbr and rev unchecked. tests/test_kernels.py
 * asserts the parity, errors included.
 *
 * Table layout (see kcmkit.families.FamilyTables): nbr[v*S + s] is the flat
 * index of v + offset_s and rev[v*S + s] that of v - offset_s, with the pad
 * index n for offsets leaving a free box; pad_empty says whether the pad
 * reads empty. Both tables are int32, so n <= 2^31 - 1, which
 * kcmkit.lattice.Geometry.neighbor_table enforces; index arithmetic runs
 * in int64. The rules enter only through sat, 2^S bytes: a site whose
 * empty slots form the bitmask `mask` (bit s for slot s) is satisfied iff
 * sat[mask]. Every kernel reads that mask one way, empty_slots() over a
 * byte state of n + 1 entries (1 where a site is empty, the last entry the
 * pad's). Masks are uint16, so S <= 16; kcmkit._compiled hands families
 * with more slots to kcmkit._pure.
 *
 * Every function returns 0, or -1 when a work buffer cannot be allocated;
 * kk_threshold also returns -2 for an order that is not a permutation.
 *
 * kk_source_id() returns the stamp the build defines as KK_SOURCE_ID:
 * setup.py sets it to the first 8 bytes of this file's SHA-256, and
 * kcmkit._compiled loads no library whose stamp differs from the one it
 * holds, so a library built from another version of this file, whose
 * entry points may take other arguments, is never called. A build without
 * the macro reads 0 and is refused as well.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#ifndef KK_SOURCE_ID
#define KK_SOURCE_ID 0
#endif

uint64_t kk_source_id(void)
{
    return KK_SOURCE_ID;
}

/* ------------------------------------------------------------------ rng */

/* splitmix64 finalizer chained over the key words; must match kcmkit.rng */
static inline uint64_t mix64(uint64_t z)
{
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* uniform in (0, 1) keyed on (seed, stream, replica) via `prefix` */
static inline double u01(uint64_t prefix, uint64_t vkey, uint64_t counter)
{
    uint64_t h = mix64(mix64(prefix ^ vkey) ^ counter);
    return ((double)(h >> 11) + 0.5) * 0x1p-53;
}

/* out[r*N + i] = u01(mix64(head ^ replicas[r]), vkeys[i], 0) for R
 * replicas over N vertex keys, with head = mix64(mix64(seed) ^ stream): the
 * (R, N) counter-0 uniforms of kcmkit.rng in one pass. */
int kk_uniforms(uint64_t head, int64_t R, const uint64_t *replicas,
                int64_t N, const uint64_t *vkeys, double *out)
{
    for (int64_t r = 0; r < R; r++) {
        uint64_t hr = mix64(head ^ replicas[r]);
        double *row = out + r * N;
        for (int64_t i = 0; i < N; i++)
            row[i] = u01(hr, vkeys[i], 0);
    }
    return 0;
}

/* -------------------------------------------------------------- closure */

/* The slots of nbr row `row` (S of them) that read empty under eff, as a
 * bitmask: bit s for slot s. eff has n + 1 entries, eff[n] for the pad. */
static inline uint16_t empty_slots(int64_t S, const int32_t *row,
                                   const uint8_t *eff)
{
    unsigned mask = 0;
    for (int64_t s = 0; s < S; s++)
        mask |= (unsigned)(eff[row[s]] != 0) << s;
    return (uint16_t)mask;
}

/* One synchronous round: every site queue[head .. tail), just emptied, sets
 * its slot in the masks of the sites that read it (bit s in
 * mask[rev[x, s]]), and a site still open[] whose mask turns satisfied is
 * closed and appended to the queue. Returns the new tail; the sites
 * appended form the next round. */
static int64_t spread(int64_t n, int64_t S, const int32_t *rev,
                      const uint8_t *sat, uint16_t *mask, uint8_t *open,
                      int64_t *queue, int64_t head, int64_t tail)
{
    int64_t end = tail;
    for (int64_t j = head; j < end; j++) {
        const int32_t *back = rev + queue[j] * S;
        for (int64_t s = 0; s < S; s++) {
            int64_t u = back[s];
            if (u >= n)
                continue;
            mask[u] |= (uint16_t)(1u << s);
            if (open[u] && sat[mask[u]]) {
                open[u] = 0;
                queue[tail++] = u;
            }
        }
    }
    return tail;
}

/* Bootstrap closure of one row with synchronous-round labels, on work
 * buffers of n + 1 entries each.
 *
 * mask[v] holds the slots of v that read empty, and a site may empty while
 * open: it is occupied, flippable and not yet emptied. The sites whose
 * mask is satisfied at the start form round 1, and spread() finds each
 * next round. Writes out[v] (bits after the closure) and rounds[v]: 0 if
 * initially empty, r if emptied in round r, else -1.
 */
static void close_row(int64_t n, int64_t S, const int32_t *nbr,
                      const int32_t *rev, const uint8_t *sat, int pad_empty,
                      const uint8_t *bits, const uint8_t *flippable,
                      uint8_t *out, int32_t *rounds, uint8_t *eff,
                      uint8_t *open, uint16_t *mask, int64_t *queue)
{
    for (int64_t v = 0; v < n; v++) {
        eff[v] = bits[v] == 0;
        open[v] = bits[v] == 1 && (!flippable || flippable[v]);
        rounds[v] = bits[v] == 0 ? 0 : -1;
    }
    eff[n] = pad_empty ? 1 : 0;

    int64_t head = 0, tail = 0;
    for (int64_t v = 0; v < n; v++) {
        mask[v] = empty_slots(S, nbr + v * S, eff);
        if (open[v] && sat[mask[v]]) {
            open[v] = 0;
            queue[tail++] = v;
        }
    }
    for (int32_t label = 1; head < tail; label++) {
        for (int64_t j = head; j < tail; j++)
            rounds[queue[j]] = label;
        int64_t next = spread(n, S, rev, sat, mask, open, queue, head, tail);
        head = tail;
        tail = next;
    }

    for (int64_t v = 0; v < n; v++)
        out[v] = rounds[v] >= 1 ? 0 : bits[v];
}

/* Bootstrap closure of R rows of n sites (bits, out and rounds hold R * n
 * entries, row after row), each closed by close_row() with one flippable
 * mask of n entries for every row. flippable may be NULL (all ones); to
 * restrict the closure to a region, occupy the rest. The work buffers are
 * allocated once per call.
 */
int kk_closure(int64_t n, int64_t S, const int32_t *nbr, const int32_t *rev,
               const uint8_t *sat, int pad_empty, int64_t R,
               const uint8_t *bits, const uint8_t *flippable, uint8_t *out,
               int32_t *rounds)
{
    uint8_t *eff = malloc((size_t)n + 1);
    uint8_t *open = malloc((size_t)n + 1);
    uint16_t *mask = malloc(((size_t)n + 1) * sizeof *mask);
    int64_t *queue = malloc(((size_t)n + 1) * sizeof *queue);
    if (!eff || !open || !mask || !queue) {
        free(eff); free(open); free(mask); free(queue);
        return -1;
    }
    for (int64_t r = 0; r < R; r++)
        close_row(n, S, nbr, rev, sat, pad_empty, bits + r * n, flippable,
                  out + r * n, rounds + r * n, eff, open, mask, queue);
    free(eff); free(open); free(mask); free(queue);
    return 0;
}

/* Spreads queue[head .. tail) round after round until no site is left to
 * empty; returns the final tail. */
static int64_t spread_all(int64_t n, int64_t S, const int32_t *rev,
                          const uint8_t *sat, uint16_t *mask, uint8_t *open,
                          int64_t *queue, int64_t head, int64_t tail)
{
    while (head < tail) {
        int64_t next = spread(n, S, rev, sat, mask, open, queue, head, tail);
        head = tail;
        tail = next;
    }
    return tail;
}

/* Spanning thresholds by incremental closure (Newman & Ziff, PRL 85:4104).
 *
 * Row r of order (R rows of n sites, a permutation each) empties its sites
 * one by one, starting from the fully occupied grid, and keeps the closure
 * up to date with spread(): every site is open until it empties. out[r] is
 * the length of the shortest prefix whose closure empties every site (0
 * when the fully occupied grid already empties). Returns -2 when a row
 * runs out before every site is empty, which a permutation never does.
 */
int kk_threshold(int64_t n, int64_t S, const int32_t *nbr, const int32_t *rev,
                 const uint8_t *sat, int pad_empty, int64_t R,
                 const int64_t *order, int64_t *out)
{
    size_t masks = ((size_t)n + 1) * sizeof(uint16_t);
    uint8_t *eff = calloc((size_t)n + 1, 1);
    uint8_t *base_open = malloc((size_t)n + 1);
    uint8_t *open = malloc((size_t)n + 1);
    uint16_t *base_mask = malloc(masks);
    uint16_t *mask = malloc(masks);
    int64_t *queue = malloc(((size_t)n + 1) * sizeof *queue);
    if (!eff || !base_open || !open || !base_mask || !mask || !queue) {
        free(eff); free(base_open); free(open); free(base_mask); free(mask);
        free(queue);
        return -1;
    }
    /* the closure of the fully occupied grid, once: every row starts here */
    eff[n] = pad_empty ? 1 : 0;
    int64_t tail = 0;
    for (int64_t v = 0; v < n; v++) {
        base_mask[v] = empty_slots(S, nbr + v * S, eff);
        base_open[v] = !sat[base_mask[v]];
        if (!base_open[v])
            queue[tail++] = v;
    }
    int64_t base_empty = spread_all(n, S, rev, sat, base_mask, base_open,
                                    queue, 0, tail);

    int rc = 0;
    for (int64_t r = 0; r < R && rc == 0; r++) {
        const int64_t *row = order + r * n;
        memcpy(mask, base_mask, masks);
        memcpy(open, base_open, (size_t)n);
        int64_t emptied = base_empty, k = 0;
        while (emptied < n && k < n) {
            int64_t v = row[k++];
            if (!open[v])
                continue;
            open[v] = 0;
            queue[0] = v;
            emptied += spread_all(n, S, rev, sat, mask, open, queue, 0, 1);
        }
        out[r] = k;
        if (emptied < n)
            rc = -2;
    }
    free(eff); free(base_open); free(open); free(base_mask); free(mask);
    free(queue);
    return rc;
}

/* -------------------------------------------------------------- buffers */

/* free(p), for buffers this library allocated and handed out. */
int kk_free(void *p)
{
    free(p);
    return 0;
}

/* Grows *buf, holding *cap items of `item` bytes, to at least `need`
 * items by doubling; returns -1 when realloc fails (the old buffer stays
 * valid and owned by the caller). */
static int grow(void **buf, int64_t *cap, int64_t need, size_t item)
{
    if (need <= *cap)
        return 0;
    int64_t c = *cap;
    while (c < need)
        c *= 2;
    void *p = realloc(*buf, (size_t)c * item);
    if (!p)
        return -1;
    *buf = p;
    *cap = c;
    return 0;
}

/* Shrinks *buf to `bytes` > 0; a failed realloc keeps the larger one. */
static void shrink(void **buf, size_t bytes)
{
    void *p = bytes ? realloc(*buf, bytes) : NULL;
    if (p)
        *buf = p;
}

/* ------------------------------------------------------- KCM event loop */

/* Min-heap of pending rings ordered by (time, vertex); the vertex breaks
 * ties exactly as the (time, vertex) tuples of the heapq loop in _pure. */
typedef struct {
    double t;
    int64_t v;
} ring_t;

static inline int ring_less(ring_t a, ring_t b)
{
    return a.t < b.t || (a.t == b.t && a.v < b.v);
}

static void heap_push(ring_t *h, int64_t *size, ring_t r)
{
    int64_t i = (*size)++;
    h[i] = r;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (ring_less(h[p], h[i]))
            break;
        ring_t tmp = h[p]; h[p] = h[i]; h[i] = tmp;
        i = p;
    }
}

static void heap_pop(ring_t *h, int64_t *size)
{
    int64_t last = --*size, i = 0;
    h[0] = h[last];
    for (;;) {
        int64_t l = 2 * i + 1, r = l + 1, sm = i;
        if (l < last && ring_less(h[l], h[sm]))
            sm = l;
        if (r < last && ring_less(h[r], h[sm]))
            sm = r;
        if (sm == i)
            break;
        ring_t tmp = h[sm]; h[sm] = h[i]; h[i] = tmp;
        i = sm;
    }
}

enum { KK_T_MAX = 0, KK_TARGET = 1 };

/* One event-log record: f8 time, u4 vertex, u1 new state, packed in this
 * order in KK_EVENT bytes of native byte order; kcmkit._pure.EVENT. The
 * fields sit at unaligned addresses, so they are stored with memcpy. */
enum { KK_EVENT = 13 };

/* Counters, first-passage times and event log of one trajectory; mirrored
 * by kcmkit._compiled.RunStats. The log is n_events executed resamples,
 * KK_EVENT bytes each, in one malloc'd buffer of exactly that length,
 * which the caller releases with kk_free; NULL when not logged. */
typedef struct {
    double t_end;
    double t_target_empty;
    double t_target_first_legal;
    int64_t rings;
    int64_t legal_updates;
    int64_t flips;
    int64_t n_events;
    int64_t status;
    uint8_t *events;
} kk_run_stats;

/* Continuous-time constrained Glauber dynamics, next-reaction style.
 *
 * bits holds the n initial states and receives the final ones; vkeys
 * holds the n vertex keys of the counter-based clocks. The run ends at
 * t_max (status KK_T_MAX) or, with stop_when_target_empty, when target
 * first empties (KK_TARGET). With log_events, the event log grows by
 * doubling and ends at its exact length in *st.
 * Returns -1, with *st zeroed and nothing left allocated, when a buffer
 * cannot be allocated.
 */
int kk_kcm_run(int64_t n, int64_t S, const int32_t *nbr, const uint8_t *sat,
               int pad_empty, uint8_t *bits, const uint64_t *vkeys,
               uint64_t seed, uint64_t replica, double q, double t_max,
               int64_t target, int stop_when_target_empty, int log_events,
               kk_run_stats *st)
{
    const uint64_t STREAM_CLOCK = 1;
    memset(st, 0, sizeof *st);
    uint8_t *em = malloc((size_t)n + 1);     /* 1 where a site is empty */
    uint64_t *ctr = malloc(((size_t)n + 1) * sizeof *ctr);
    ring_t *heap = malloc(((size_t)n + 1) * sizeof *heap);
    /* the log and its capacity in records */
    int64_t cap = 1024;
    uint8_t *ev = log_events ? malloc((size_t)cap * KK_EVENT) : NULL;
    int rc = -1;
    if (!em || !ctr || !heap || (log_events && !ev))
        goto done;
    uint64_t prefix = mix64(mix64(mix64(seed) ^ STREAM_CLOCK) ^ replica);

    em[n] = pad_empty ? 1 : 0;
    int64_t hsize = 0;
    for (int64_t v = 0; v < n; v++) {
        ring_t r = {-log(u01(prefix, vkeys[v], 0)), v};
        ctr[v] = 1;
        heap_push(heap, &hsize, r);
        em[v] = bits[v] == 0;
    }

    double t_now = 0.0;
    int64_t rings = 0, legal = 0, flips = 0, n_events = 0;
    double t_target_empty = -1.0, t_target_legal = -1.0;
    int64_t status = KK_T_MAX;

    while (hsize > 0) {
        double tt = heap[0].t;
        int64_t x = heap[0].v;
        heap_pop(heap, &hsize);
        if (tt > t_max) {
            t_now = t_max;
            break;
        }
        t_now = tt;
        rings++;
        if (sat[empty_slots(S, nbr + x * S, em)]) {
            legal++;
            if (x == target && t_target_legal < 0.0)
                t_target_legal = t_now;
            uint8_t nv = u01(prefix, vkeys[x], ctr[x]++) < q ? 0 : 1;
            if (log_events) {
                if (grow((void **)&ev, &cap, n_events + 1, KK_EVENT))
                    goto done;
                uint8_t *rec = ev + n_events++ * KK_EVENT;
                uint32_t v = (uint32_t)x;
                memcpy(rec, &t_now, sizeof t_now);
                memcpy(rec + sizeof t_now, &v, sizeof v);
                rec[KK_EVENT - 1] = nv;
            }
            if ((nv == 0) != em[x]) {
                flips++;
                em[x] = nv == 0;
            }
            if (nv == 0 && x == target && t_target_empty < 0.0) {
                t_target_empty = t_now;
                if (stop_when_target_empty) {
                    status = KK_TARGET;
                    break;
                }
            }
        }
        ring_t r = {t_now - log(u01(prefix, vkeys[x], ctr[x]++)), x};
        heap_push(heap, &hsize, r);
    }

    for (int64_t v = 0; v < n; v++)
        bits[v] = em[v] ? 0 : 1;
    /* down to the exact length; an empty log keeps its first buffer */
    shrink((void **)&ev, (size_t)n_events * KK_EVENT);
    *st = (kk_run_stats){t_now, t_target_empty, t_target_legal, rings, legal,
                         flips, n_events, status, ev};
    rc = 0;
done:
    free(em); free(ctr); free(heap);
    if (rc)
        free(ev);
    return rc;
}

/* ----------------------------------------------------------- csr matvec */

/* out = A x for the (n, n) CSR matrix (indptr, indices, data), x and out
 * disjoint: each row is summed in stored order from 0.0, the arithmetic of
 * scipy's csr_matvec. */
int kk_csr_matvec(int64_t n, const int32_t *indptr, const int32_t *indices,
                  const double *data, const double *x, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        double sum = 0.0;
        for (int32_t k = indptr[i]; k < indptr[i + 1]; k++)
            sum += data[k] * x[indices[k]];
        out[i] = sum;
    }
    return 0;
}

/* ------------------------------------------------------ class generator */

/* The irreducible class of the all-empty state and its generator, as
 * kk_class_generator hands them back: size states (int64 bitmasks, bit v
 * set where v is occupied) and a size x size canonical CSR matrix of nnz
 * entries, each in its own malloc'd buffer of exactly that length, which
 * the caller releases with kk_free. Mirrored by kcmkit._compiled.ClassCSR. */
typedef struct {
    int64_t size;
    int64_t nnz;
    int64_t *states;
    int32_t *indptr;
    int32_t *indices;
    double *data;
} kk_class;

/* The class of the all-empty bitmask under legal flips (a flip of v is
 * legal where v's constraint holds; it ignores v's own state, so the moves
 * are reversible and the class is a connected component), found by a
 * first-in-first-out search with vertices ascending within a state, and
 * its generator in one pass over the rows in class order.
 *
 * When row i is taken from the queue, every state one legal flip away has
 * a row: the earlier levels are done, and the next level is appended while
 * the row is read. Row i then stores the rate of each legal flip, q where
 * it empties its vertex and 1 - q where it fills it, and its diagonal, 0.0
 * minus the legal rates in vertex order; the at most n + 1 entries are
 * sorted by column, distinct as they are, so every row is canonical.
 *
 * row_of, the row of every bitmask, holds 2^n int32 (64 MiB at 24 sites);
 * the outputs grow by doubling and end at their exact lengths. n <= 24 and
 * 0 < q < 1 are the caller's to check. Returns -1, with *out zeroed and
 * nothing left allocated, when a buffer cannot be allocated.
 */
int kk_class_generator(int64_t n, int64_t S, const int32_t *nbr,
                       const uint8_t *sat, int pad_empty, double q,
                       kk_class *out)
{
    memset(out, 0, sizeof *out);
    /* capacities of states, indptr, indices and data */
    int64_t scap = 1024, pcap = 1024, icap = 1024 * (n + 1), dcap = icap;
    int32_t *row_of = malloc(((size_t)1 << n) * sizeof *row_of);
    uint8_t *em = malloc((size_t)n + 1);   /* 1 where a site is empty */
    /* a row's entries: key, fresh and sorted hold n + 1 each */
    uint32_t *key = malloc(3 * ((size_t)n + 1) * sizeof *key);
    int64_t *states = malloc((size_t)scap * sizeof *states);
    int32_t *indptr = malloc((size_t)pcap * sizeof *indptr);
    int32_t *indices = malloc((size_t)icap * sizeof *indices);
    double *data = malloc((size_t)dcap * sizeof *data);
    int rc = -1;
    if (!row_of || !em || !key || !states || !indptr || !indices || !data)
        goto done;
    memset(row_of, 0xff, ((size_t)1 << n) * sizeof *row_of);   /* all -1 */
    em[n] = pad_empty ? 1 : 0;

    uint32_t *fresh = key + n + 1, *sorted = fresh + n + 1;
    const double rate[2] = {1.0 - q, q};   /* fill, empty */
    int64_t size = 1, nnz = 0;
    row_of[0] = 0;
    states[0] = 0;
    indptr[0] = 0;
    for (int64_t i = 0; i < size; i++) {
        /* room for n new states, row i's end pointer and n + 1 entries */
        if (grow((void **)&states, &scap, size + n, sizeof *states) ||
            grow((void **)&indptr, &pcap, i + 2, sizeof *indptr) ||
            grow((void **)&indices, &icap, nnz + n + 1, sizeof *indices) ||
            grow((void **)&data, &dcap, nnz + n + 1, sizeof *data))
            goto done;
        uint64_t s = (uint64_t)states[i];
        for (int64_t v = 0; v < n; v++)
            em[v] = (uint8_t)((~s >> v) & 1u);
        double diag = 0.0;
        /* the rows of earlier states and the diagonal go to key[0 .. k),
         * to be sorted; the states this row adds get rows past them all,
         * ascending, and go to fresh[0 .. m) as they come */
        int64_t k = 0, m = 0;
        for (int64_t v = 0; v < n; v++) {
            if (!sat[empty_slots(S, nbr + v * S, em)])
                continue;
            uint64_t w = s ^ (1ULL << v);
            unsigned empties = (unsigned)(s >> v) & 1u;
            diag -= rate[empties];
            /* column, then 0 (fill) or 1 (empty); 2 marks the diagonal */
            if (row_of[w] < 0) {
                row_of[w] = (int32_t)size;
                states[size] = (int64_t)w;
                fresh[m++] = ((uint32_t)size++ << 2) | empties;
            } else {
                key[k++] = ((uint32_t)row_of[w] << 2) | empties;
            }
        }
        key[k++] = ((uint32_t)i << 2) | 2u;
        /* the keys are distinct: each one's rank is the count of smaller
         * ones, found without a branch */
        for (int64_t a = 0; a < k; a++) {
            int64_t r = 0;
            for (int64_t b = 0; b < k; b++)
                r += key[b] < key[a];
            sorted[r] = key[a];
        }
        memcpy(sorted + k, fresh, (size_t)m * sizeof *sorted);
        for (int64_t a = 0; a < k + m; a++) {
            unsigned tag = sorted[a] & 3u;
            indices[nnz] = (int32_t)(sorted[a] >> 2);
            data[nnz++] = tag == 2u ? diag : rate[tag];
        }
        indptr[i + 1] = (int32_t)nnz;
    }
    /* down to the exact lengths */
    shrink((void **)&states, (size_t)size * sizeof *states);
    shrink((void **)&indptr, ((size_t)size + 1) * sizeof *indptr);
    shrink((void **)&indices, (size_t)nnz * sizeof *indices);
    shrink((void **)&data, (size_t)nnz * sizeof *data);
    *out = (kk_class){size, nnz, states, indptr, indices, data};
    rc = 0;
done:
    free(row_of);
    free(em);
    free(key);
    if (rc) {
        free(states); free(indptr); free(indices); free(data);
    }
    return rc;
}

/* ------------------------------------------------------------ crossings */

/* out[r] = 1 when grid r of the (R, n0, n1) stack has a nearest-neighbour
 * path of nonzero cells joining the two faces orthogonal to `axis` (depth-
 * first search from the first face), else 0. */
int kk_crossing_batch(int64_t R, int64_t n0, int64_t n1, const uint8_t *grids,
                      int axis, uint8_t *out)
{
    int64_t cells = n0 * n1;
    uint8_t *seen = malloc((size_t)cells + 1);
    int64_t *stack = malloc(((size_t)cells + 1) * sizeof *stack);
    if (!seen || !stack) {
        free(seen); free(stack);
        return -1;
    }
    for (int64_t r = 0; r < R; r++) {
        const uint8_t *g = grids + r * cells;
        int64_t top = 0;
        uint8_t hit = 0;
        memset(seen, 0, (size_t)cells);
        int64_t starts = axis == 0 ? n1 : n0;
        for (int64_t i = 0; i < starts && cells > 0; i++) {
            int64_t cell = axis == 0 ? i : i * n1;
            if (g[cell]) {
                seen[cell] = 1;
                stack[top++] = cell;
            }
        }
        while (top > 0) {
            int64_t cell = stack[--top];
            int64_t ci = cell / n1, cj = cell - ci * n1;
            if ((axis == 0 && ci == n0 - 1) || (axis == 1 && cj == n1 - 1)) {
                hit = 1;
                break;
            }
            int64_t nxt[4];
            int k = 0;
            if (ci > 0)
                nxt[k++] = cell - n1;
            if (ci < n0 - 1)
                nxt[k++] = cell + n1;
            if (cj > 0)
                nxt[k++] = cell - 1;
            if (cj < n1 - 1)
                nxt[k++] = cell + 1;
            for (int i = 0; i < k; i++) {
                if (g[nxt[i]] && !seen[nxt[i]]) {
                    seen[nxt[i]] = 1;
                    stack[top++] = nxt[i];
                }
            }
        }
        out[r] = hit;
    }
    free(seen); free(stack);
    return 0;
}
