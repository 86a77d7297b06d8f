"""Fallback kernels, the executable spec of the six entry points:
numpy-vectorized closure (a block of rows is closed row by row), spanning
thresholds by bisection on closures, heapq event loop, crossings, uniforms
and a CSR matrix-vector product.

Functionally identical to the compiled kernels in kcmkit._compiled;
kernels.py picks one at import time. Keep the two in lockstep: the test
suite asserts equal outputs (bit-identical trajectories for the event loop,
byte-identical uniforms). The argument checks and conversions of every
entry point live here, in the *_args functions; the compiled kernels call
the same functions before each C call, so both raise the same error for
the same input.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from . import rng
from .families import FamilyTables
from .lattice import as_bits, as_int, as_site, as_sites

IMPL_NAME = "pure"


# ------------------------------------------------------------ argument checks

def _vector(a, dtype, n: int, name: str) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=dtype)
    if out.shape != (n,):
        raise ValueError(f"{name} has shape {out.shape}, expected ({n},)")
    return out


def _bits(bits, n: int) -> np.ndarray:
    """uint8 states over n sites, each 0 (empty) or 1 (occupied)."""
    return _vector(as_bits(bits), np.uint8, n, "bits")


def closure_args(bits, n: int, flippable):
    """0/1 uint8 bits over n sites, one row (n,) or a block of rows (R, n),
    and one bool mask over n sites (or None) for every row."""
    b = as_bits(bits)
    if b.ndim not in (1, 2) or b.shape[-1] != n:
        raise ValueError(f"bits has shape {b.shape}, expected ({n},) or "
                         f"(R, {n})")
    return b, None if flippable is None else _vector(flippable, bool, n,
                                                     "flippable")


def threshold_args(order, n: int) -> np.ndarray:
    """(replicas, n) int64 rows of sites."""
    o = np.ascontiguousarray(as_sites(order, n, "order"))
    if o.ndim != 2 or o.shape[1] != n:
        raise ValueError(f"order has shape {o.shape}, expected (replicas, {n})")
    return o


def kcm_run_args(bits, n: int, vkeys, seed, replica, q, t_max, target,
                 stop_when_target_empty, batch_edges, max_events):
    """kcm_run's arguments, C-typed; target -1 is none, max_events None 2^62."""
    b, vk = _bits(bits, n), _vector(vkeys, np.uint64, n, "vkeys")
    tgt = -1 if as_int(target, "target") == -1 else as_site(target, n, "target")
    edges = None
    if batch_edges is not None:
        edges = np.ascontiguousarray(batch_edges, dtype=np.float64)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("batch_edges needs at least two edges")
    t_max = float(t_max)
    if math.isnan(t_max):
        raise ValueError("t_max must not be NaN")
    cap = 1 << 62
    if max_events is not None:
        # a cap above 2^62 rings is no cap, and fits the C int64
        cap = min(as_int(max_events, "max_events"), cap)
        if cap < 0:
            raise ValueError(f"max_events must be >= 0, got {cap}")
    return (b, vk, as_int(seed, "seed") & rng.MASK64,
            as_int(replica, "replica") & rng.MASK64, float(q), t_max,
            tgt, bool(stop_when_target_empty), edges, cap)


def crossing_args(empty_grids, axis):
    """An (R, n0, n1) bool stack and axis 0 or 1."""
    g = np.ascontiguousarray(empty_grids, dtype=bool)
    if g.ndim != 3:
        raise ValueError("expected a (replicas, n0, n1) stack")
    axis = as_int(axis, "axis")
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    return g, axis


def uniforms_args(head, replicas, vkeys, counter):
    """head, replica ids, vkeys and counter, C-typed."""
    reps = np.ascontiguousarray(rng.replica_ids(replicas))
    vk = np.ascontiguousarray(np.asarray(vkeys).astype(np.uint64, copy=False))
    if reps.ndim != 1 or vk.ndim != 1:
        raise ValueError("replicas and vkeys must be 1-D")
    return (as_int(head, "head") & rng.MASK64, reps, vk,
            as_int(counter, "counter") & rng.MASK64)


def csr_args(indptr, indices, data):
    """The arrays of an (n, n) CSR matrix as read-only copies: int32 indptr
    rising from 0 to nnz over n + 1 entries, int32 column indices in
    [0, n), nnz float64 data."""
    ptr = np.asarray(indptr)
    if ptr.ndim != 1 or ptr.size == 0:
        raise ValueError("indptr must be 1-D with n + 1 entries")
    n = ptr.size - 1
    cols, vals = np.asarray(indices), np.asarray(data)
    if cols.ndim != 1 or vals.shape != cols.shape:
        raise ValueError("indices and data must be 1-D of one length")
    if vals.dtype.kind not in "iuf":
        raise ValueError(f"data has dtype {vals.dtype}, expected reals")
    nnz = cols.size
    if max(n, nnz) >= 1 << 31:
        raise ValueError("a CSR matrix needs n and nnz below 2^31")
    ptr = as_sites(ptr, nnz + 1, "indptr")
    if ptr[0] != 0 or ptr[-1] != nnz or (np.diff(ptr) < 0).any():
        raise ValueError(f"indptr must rise from 0 to nnz = {nnz}")
    out = (ptr.astype(np.int32), as_sites(cols, n, "indices").astype(np.int32),
           vals.astype(np.float64))
    for a in out:
        a.flags.writeable = False
    return out


def matvec_args(x, out, n: int) -> None:
    """x and out must be disjoint C-contiguous float64 (n,) arrays, out
    writable."""
    for name, a in (("x", x), ("out", out)):
        if not (isinstance(a, np.ndarray) and a.dtype == np.float64
                and a.shape == (n,) and a.flags.c_contiguous):
            raise ValueError(f"{name} must be a C-contiguous ({n},) float64 "
                             f"array")
    if not out.flags.writeable or np.may_share_memory(x, out):
        raise ValueError("out must be writable and disjoint from x")


# ------------------------------------------------------------------ uniforms

def uniforms(head: int, replicas, vkeys: np.ndarray,
             counter: int) -> np.ndarray:
    """(R, N) counter-based uniforms: row r, column i is
    rng.uniform(seed, stream, replica_r, vkeys[i], counter), given
    head = mix64(mix64(seed) ^ stream). `replicas` is either an int R
    (ids 0..R-1) or a 1-D sequence of replica ids, read by rng.replica_ids."""
    head, reps, vk, counter = uniforms_args(head, replicas, vkeys, counter)
    hr = rng._mix64_np(np.uint64(head) ^ reps)                    # (R,)
    hm = rng._mix64_np(hr[:, None] ^ vk[None, :])                 # (R, N)
    hm = rng._mix64_np(hm ^ np.uint64(counter))
    return ((hm >> np.uint64(11)).astype(np.float64) + 0.5) * rng.TO_UNIT


# ------------------------------------------------------------------- closure

def closure(bits: np.ndarray, t: FamilyTables,
            flippable: np.ndarray | None = None):
    """Bootstrap closure with synchronous-round labels.

    Returns (out_bits, rounds): rounds[v] = 0 for initially empty sites,
    r >= 1 for sites emptied in sweep r, -1 for sites never emptied. Only
    `flippable` sites may empty; to restrict the closure to a region, occupy
    every site outside it. Offsets leaving a free box read as the geometry
    dictates. bits is one row, shape (n,), or a block of rows, shape (R, n),
    each closed alone under the one `flippable` mask; out_bits and rounds
    have the shape of bits.
    """
    bits, flippable = closure_args(bits, t.n_sites, flippable)
    if bits.ndim == 1:
        return _close_row(bits, t, flippable)
    out = np.empty(bits.shape, dtype=np.uint8)
    rounds = np.empty(bits.shape, dtype=np.int32)
    for r, row in enumerate(bits):
        out[r], rounds[r] = _close_row(row, t, flippable)
    return out, rounds


def _close_row(bits: np.ndarray, t: FamilyTables, flippable):
    """closure() of one checked row."""
    n = t.n_sites
    eff = np.append(bits == 0, bool(t.pad_empty))   # eff[n]: the pad
    rounds = np.where(eff[:n], np.int32(0), np.int32(-1))
    can = bits == 1
    if flippable is not None:
        can &= flippable

    idx = np.flatnonzero(can)
    r = 0
    while idx.size:
        r += 1
        rows = t.nbr[idx]
        sat = np.zeros(idx.size, dtype=bool)
        for slots in t.rules:
            if slots.size == 0:
                sat[:] = True
                break
            sat |= eff[rows[:, slots]].all(axis=1)
        if not sat.any():
            break
        newly = idx[sat]
        rounds[newly] = r
        eff[newly] = True
        idx = idx[~sat]
    out = bits.copy()
    out[rounds >= 1] = 0
    return out, rounds


def threshold(order: np.ndarray, t: FamilyTables) -> np.ndarray:
    """Spanning thresholds: for each row of `order`, a permutation of the
    sites, the length k of the shortest prefix whose closure (from the fully
    occupied grid) empties every site; 0 when the fully occupied grid
    already empties. Emptying more sites never undoes spanning, so k is
    found by bisection on the prefix length."""
    n = t.n_sites
    order = threshold_args(order, n)

    def spans(row: np.ndarray, k: int) -> bool:
        bits = np.ones(n, dtype=np.uint8)
        bits[row[:k]] = 0
        return not closure(bits, t)[0].any()

    out = np.empty(order.shape[0], dtype=np.int64)
    for r, row in enumerate(order):
        if not spans(row, n):
            raise ValueError("an order row does not empty every site")
        lo, hi = -1, n          # the hi-prefix spans, the lo-prefix does not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if spans(row, mid):
                hi = mid
            else:
                lo = mid
        out[r] = hi
    return out


# ------------------------------------------------------------ KCM event loop

def kcm_run(bits: np.ndarray, t: FamilyTables, vkeys: np.ndarray,
            seed: int, replica: int, q: float, t_max: float,
            target: int = -1, stop_when_target_empty: bool = False,
            batch_edges: np.ndarray | None = None,
            log_events: bool = False, max_events: int | None = None):
    """Continuous-time constrained Glauber dynamics, next-reaction style.

    Every site carries a rate-1 Poisson clock; at a ring the constraint is
    evaluated on the current configuration and, if satisfied, the site is
    resampled to empty with probability q (coin drawn only when legal). All
    randomness is counter-based per site, so trajectories are reproducible
    and implementation-independent. The run stops after `max_events` rings;
    None means no cap.

    Returns a dict with the final bits, counters, first-passage times for
    `target` (-1.0 when not hit), per-window integrals of the empty-site
    count when `batch_edges` is given, and the event log when requested.
    """
    n = t.n_sites
    bits, vk, seed, replica, q, t_max, target, stop, edges, cap = \
        kcm_run_args(bits, n, vkeys, seed, replica, q, t_max, target,
                     stop_when_target_empty, batch_edges, max_events)
    bl = bits.tolist() + [0 if t.pad_empty else 1]
    nbr_rows = t.nbr.tolist()
    slot_lists = [slots.tolist() for slots in t.rules]
    vk = vk.tolist()

    ctr = [0] * n
    heap = []
    for v in range(n):
        u = rng.uniform(seed, rng.STREAM_CLOCK, replica, vk[v], 0)
        ctr[v] = 1
        heap.append((-math.log(u), v))
    heapq.heapify(heap)

    edges = None if edges is None else edges.tolist()
    nb = 0 if edges is None else len(edges) - 1
    integrals = [0.0] * nb
    bi = 0
    empties = sum(1 for v in range(n) if bl[v] == 0)

    def accumulate(t0: float, t1: float, c: int):
        nonlocal bi
        if edges is None or t1 <= edges[0]:
            return
        while bi < nb and edges[bi + 1] <= t0:
            bi += 1
        j = bi
        while j < nb and edges[j] < t1:
            lo = max(t0, edges[j])
            hi = min(t1, edges[j + 1])
            if hi > lo:
                integrals[j] += c * (hi - lo)
            j += 1

    ev_t, ev_v, ev_s = [], [], []
    t_now = 0.0
    rings = legal = flips = 0
    t_target_empty = -1.0
    t_target_legal = -1.0
    status = "t_max"

    while heap:
        tt, x = heapq.heappop(heap)
        if tt > t_max:
            accumulate(t_now, t_max, empties)
            t_now = t_max
            break
        accumulate(t_now, tt, empties)
        t_now = tt
        rings += 1
        row = nbr_rows[x]
        ok = False
        for slots in slot_lists:
            ok = True
            for s in slots:
                if bl[row[s]] != 0:
                    ok = False
                    break
            if ok:
                break
        if ok:
            legal += 1
            if x == target and t_target_legal < 0.0:
                t_target_legal = t_now
            u2 = rng.uniform(seed, rng.STREAM_CLOCK, replica, vk[x], ctr[x])
            ctr[x] += 1
            new = 0 if u2 < q else 1
            if log_events:
                ev_t.append(t_now)
                ev_v.append(x)
                ev_s.append(new)
            if new != bl[x]:
                flips += 1
                empties += 1 if new == 0 else -1
                bl[x] = new
            if new == 0 and x == target and t_target_empty < 0.0:
                t_target_empty = t_now
                if stop:
                    status = "target"
                    break
        u3 = rng.uniform(seed, rng.STREAM_CLOCK, replica, vk[x], ctr[x])
        ctr[x] += 1
        heapq.heappush(heap, (t_now - math.log(u3), x))
        if rings >= cap:
            status = "max_events"
            break

    out = np.asarray(bl[:n], dtype=np.uint8)
    return {
        "bits": out,
        "t_end": t_now,
        "rings": rings,
        "legal_updates": legal,
        "flips": flips,
        "t_target_empty": t_target_empty,
        "t_target_first_legal": t_target_legal,
        "batch_integrals": np.asarray(integrals, dtype=np.float64),
        "events": (np.asarray(ev_t, dtype=np.float64),
                   np.asarray(ev_v, dtype=np.int32),
                   np.asarray(ev_s, dtype=np.uint8)) if log_events else None,
        "status": status,
    }


# ---------------------------------------------------------------- csr matvec

def csr_operator(indptr, indices, data):
    """mv(x, out) writing A x into out, and returning out, for the (n, n) CSR
    matrix (indptr, indices, data), which is checked and copied once. Each
    row is summed in stored order from 0.0, as scipy's csr_matvec does: one
    pass per entry column k adds every row's k-th product, over the rows
    sorted by descending length, so each pass is a prefix of them."""
    ptr, cols, vals = csr_args(indptr, indices, data)
    n = ptr.size - 1
    length = np.diff(ptr)
    order = np.argsort(-length, kind="stable")
    starts = ptr[order]
    passes = []
    for k in range(int(length.max(initial=0))):
        pos = starts[:np.count_nonzero(length > k)] + k
        passes.append((vals[pos], cols[pos]))

    def mv(x, out):
        matvec_args(x, out, n)
        acc = np.zeros(n)
        for a, c in passes:
            acc[:a.size] += a * x[c]
        out[order] = acc
        return out

    return mv


# ----------------------------------------------------------------- crossings

def crossing_batch(empty_grids: np.ndarray, axis: int) -> np.ndarray:
    """Which grids contain a nearest-neighbor path of True cells joining the
    two faces orthogonal to `axis`. empty_grids has shape (R, n0, n1)."""
    g, axis = crossing_args(empty_grids, axis)
    if 0 in g.shape[1:]:
        return np.zeros(g.shape[0], dtype=bool)  # an empty grid has no path
    reach = np.zeros_like(g)
    if axis == 0:
        reach[:, 0, :] = g[:, 0, :]
    else:
        reach[:, :, 0] = g[:, :, 0]
    while True:
        grown = reach.copy()
        grown[:, 1:, :] |= reach[:, :-1, :]
        grown[:, :-1, :] |= reach[:, 1:, :]
        grown[:, :, 1:] |= reach[:, :, :-1]
        grown[:, :, :-1] |= reach[:, :, 1:]
        grown &= g
        if (grown == reach).all():
            break
        reach = grown
    if axis == 0:
        return reach[:, -1, :].any(axis=1)
    return reach[:, :, -1].any(axis=1)
