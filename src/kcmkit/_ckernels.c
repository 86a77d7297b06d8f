/* Compiled kernels, six entry points: work-queue closure of a row or a
 * block of rows, spanning thresholds by incremental closure, event-driven
 * KCM loop, crossings, counter-based uniforms and a CSR matrix-vector
 * product.
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
 * reads empty. The rules enter only through sat, 2^S bytes: a site whose
 * empty slots form the bitmask `mask` (bit s for slot s) is satisfied iff
 * sat[mask]. Masks are uint16, so S <= 16; kcmkit._compiled hands families
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

/* out[r*N + i] = u01(mix64(head ^ replicas[r]), vkeys[i], counter) for R
 * replicas over N vertex keys, with head = mix64(mix64(seed) ^ stream): the
 * (R, N) uniforms of kcmkit.rng in one pass. */
int kk_uniforms(uint64_t head, int64_t R, const uint64_t *replicas,
                int64_t N, const uint64_t *vkeys, uint64_t counter,
                double *out)
{
    for (int64_t r = 0; r < R; r++) {
        uint64_t hr = mix64(head ^ replicas[r]);
        double *row = out + r * N;
        for (int64_t i = 0; i < N; i++)
            row[i] = u01(hr, vkeys[i], counter);
    }
    return 0;
}

/* -------------------------------------------------------------- closure */

/* The slots of nbr row `row` (S of them) that read empty under eff, as a
 * bitmask: bit s for slot s. eff has n + 1 entries, eff[n] for the pad. */
static inline uint16_t empty_slots(int64_t S, const int64_t *row,
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
static int64_t spread(int64_t n, int64_t S, const int64_t *rev,
                      const uint8_t *sat, uint16_t *mask, uint8_t *open,
                      int64_t *queue, int64_t head, int64_t tail)
{
    int64_t end = tail;
    for (int64_t j = head; j < end; j++) {
        const int64_t *back = rev + queue[j] * S;
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
static void close_row(int64_t n, int64_t S, const int64_t *nbr,
                      const int64_t *rev, const uint8_t *sat, int pad_empty,
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
int kk_closure(int64_t n, int64_t S, const int64_t *nbr, const int64_t *rev,
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
static int64_t spread_all(int64_t n, int64_t S, const int64_t *rev,
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
int kk_threshold(int64_t n, int64_t S, const int64_t *nbr, const int64_t *rev,
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

enum { KK_T_MAX = 0, KK_TARGET = 1, KK_MAX_EVENTS = 2 };

/* Counters and first-passage times of one trajectory; mirrored by
 * kcmkit._compiled.RunStats. n_events counts every executed resample, also
 * those past the event buffer's capacity. */
typedef struct {
    double t_end;
    double t_target_empty;
    double t_target_first_legal;
    int64_t rings;
    int64_t legal_updates;
    int64_t flips;
    int64_t n_events;
    int64_t status;
} kk_run_stats;

/* Add c * |[t0, t1) ∩ window j| to integrals[j] for every batch window. */
static void accumulate(const double *edges, int64_t nb, int64_t *bi,
                       double *integrals, double t0, double t1, int64_t c)
{
    if (!edges || t1 <= edges[0])
        return;
    while (*bi < nb && edges[*bi + 1] <= t0)
        ++*bi;
    for (int64_t j = *bi; j < nb && edges[j] < t1; j++) {
        double lo = t0 > edges[j] ? t0 : edges[j];
        double hi = t1 < edges[j + 1] ? t1 : edges[j + 1];
        if (hi > lo)
            integrals[j] += (double)c * (hi - lo);
    }
}

/* Continuous-time constrained Glauber dynamics, next-reaction style.
 *
 * bits holds the n initial states and receives the final ones. edges
 * (n_edges >= 2 values, or NULL) requests per-window integrals of the
 * empty-site count. The event log is written to ev_t/ev_v/ev_s (or not at
 * all when ev_t is NULL) up to ev_cap entries; st->n_events says how many
 * there were, so a caller whose buffer was short can rerun with more.
 */
int kk_kcm_run(int64_t n, int64_t S, const int64_t *nbr, const uint8_t *sat,
               int pad_empty, uint8_t *bits, const uint64_t *vkeys,
               uint64_t seed, uint64_t replica, double q, double t_max,
               int64_t target, int stop_when_target_empty,
               const double *edges, int64_t n_edges, double *integrals,
               int64_t max_events, double *ev_t, int32_t *ev_v,
               uint8_t *ev_s, int64_t ev_cap, kk_run_stats *st)
{
    const uint64_t STREAM_CLOCK = 1;
    uint8_t *em = malloc((size_t)n + 1);     /* 1 where a site is empty */
    uint64_t *ctr = malloc(((size_t)n + 1) * sizeof *ctr);
    ring_t *heap = malloc(((size_t)n + 1) * sizeof *heap);
    if (!em || !ctr || !heap) {
        free(em); free(ctr); free(heap);
        return -1;
    }
    uint64_t prefix = mix64(mix64(mix64(seed) ^ STREAM_CLOCK) ^ replica);

    em[n] = pad_empty ? 1 : 0;
    int64_t hsize = 0, empties = 0;
    for (int64_t v = 0; v < n; v++) {
        ring_t r = {-log(u01(prefix, vkeys[v], 0)), v};
        ctr[v] = 1;
        heap_push(heap, &hsize, r);
        em[v] = bits[v] == 0;
        empties += em[v];
    }

    int64_t nb = edges ? n_edges - 1 : 0, bi = 0;
    double t_now = 0.0;
    int64_t rings = 0, legal = 0, flips = 0, n_events = 0;
    double t_target_empty = -1.0, t_target_legal = -1.0;
    int64_t status = KK_T_MAX;

    while (hsize > 0) {
        double tt = heap[0].t;
        int64_t x = heap[0].v;
        heap_pop(heap, &hsize);
        if (tt > t_max) {
            accumulate(edges, nb, &bi, integrals, t_now, t_max, empties);
            t_now = t_max;
            break;
        }
        accumulate(edges, nb, &bi, integrals, t_now, tt, empties);
        t_now = tt;
        rings++;
        if (sat[empty_slots(S, nbr + x * S, em)]) {
            legal++;
            if (x == target && t_target_legal < 0.0)
                t_target_legal = t_now;
            uint8_t nv = u01(prefix, vkeys[x], ctr[x]++) < q ? 0 : 1;
            if (ev_t) {
                if (n_events < ev_cap) {
                    ev_t[n_events] = t_now;
                    ev_v[n_events] = (int32_t)x;
                    ev_s[n_events] = nv;
                }
                n_events++;
            }
            if ((nv == 0) != em[x]) {
                flips++;
                empties += nv == 0 ? 1 : -1;
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
        if (rings >= max_events) {
            status = KK_MAX_EVENTS;
            break;
        }
    }

    for (int64_t v = 0; v < n; v++)
        bits[v] = em[v] ? 0 : 1;
    st->t_end = t_now;
    st->t_target_empty = t_target_empty;
    st->t_target_first_legal = t_target_legal;
    st->rings = rings;
    st->legal_updates = legal;
    st->flips = flips;
    st->n_events = n_events;
    st->status = status;
    free(em); free(ctr); free(heap);
    return 0;
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
