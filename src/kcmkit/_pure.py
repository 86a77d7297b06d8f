"""Fallback kernels, the executable spec of the five entry points:
numpy-vectorized closure, spanning thresholds by bisection on closures,
heapq event loop, crossings and uniforms.

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

IMPL_NAME = "pure"


# ------------------------------------------------------------ argument checks

def _vector(a, dtype, n: int, name: str) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=dtype)
    if out.shape != (n,):
        raise ValueError(f"{name} has shape {out.shape}, expected ({n},)")
    return out


def _bits(bits, n: int) -> np.ndarray:
    """uint8 states over n sites, each 0 (empty) or 1 (occupied)."""
    b = _vector(bits, np.uint8, n, "bits")
    if b.size and (b.max() > 1 or (b is not bits
                                   and not np.array_equal(b, bits))):
        raise ValueError("bits holds a value other than 0 and 1")
    return b


def closure_args(bits, n: int, flippable, visible):
    """0/1 uint8 bits and bool masks (or None) over n sites."""
    return (_bits(bits, n),
            None if flippable is None else _vector(flippable, bool, n,
                                                   "flippable"),
            None if visible is None else _vector(visible, bool, n, "visible"))


def threshold_args(order, n: int) -> np.ndarray:
    """(replicas, n) int64 rows of sites."""
    o = np.asarray(order)
    if o.dtype.kind not in "iu":
        raise ValueError(f"order has dtype {o.dtype}, expected integers")
    o = np.ascontiguousarray(o, dtype=np.int64)
    if o.ndim != 2 or o.shape[1] != n:
        raise ValueError(f"order has shape {o.shape}, expected "
                         f"(replicas, {n})")
    if o.size and (o.min() < 0 or o.max() >= n):
        raise ValueError("order holds a site outside the geometry")
    return o


def kcm_run_args(bits, n: int, vkeys, seed, replica, q, t_max, target,
                 stop_when_target_empty, batch_edges, max_events):
    """kcm_run's arguments in order, C-typed; max_events None is 2^62."""
    b, vk = _bits(bits, n), _vector(vkeys, np.uint64, n, "vkeys")
    edges = None
    if batch_edges is not None:
        edges = np.ascontiguousarray(batch_edges, dtype=np.float64)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("batch_edges needs at least two edges")
    return (b, vk, int(seed) & rng.MASK64, int(replica) & rng.MASK64, float(q),
            float(t_max), int(target), bool(stop_when_target_empty), edges,
            (1 << 62) if max_events is None else int(max_events))


def crossing_args(empty_grids, axis):
    """An (R, n0, n1) bool stack and axis 0 or 1."""
    g = np.ascontiguousarray(empty_grids, dtype=bool)
    if g.ndim != 3:
        raise ValueError("expected a (replicas, n0, n1) stack")
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    return g, int(axis)


def uniforms_args(head, replicas, vkeys, counter):
    """head, replica ids, vkeys and counter, C-typed."""
    reps = np.ascontiguousarray(rng.replica_ids(replicas))
    vk = np.ascontiguousarray(np.asarray(vkeys).astype(np.uint64, copy=False))
    if reps.ndim != 1 or vk.ndim != 1:
        raise ValueError("replicas and vkeys must be 1-D")
    return int(head) & rng.MASK64, reps, vk, int(counter) & rng.MASK64


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
            flippable: np.ndarray | None = None,
            visible: np.ndarray | None = None):
    """Bootstrap closure with synchronous-round labels.

    Returns (out_bits, rounds): rounds[v] = 0 for initially empty sites,
    r >= 1 for sites emptied in sweep r, -1 for sites never emptied. Only
    `flippable` sites may be emptied; only `visible` sites contribute their
    initial emptiness to constraints (sites added by the closure always
    contribute). Offsets leaving a free box read as the geometry dictates.
    """
    n = t.n_sites
    bits, flippable, visible = closure_args(bits, n, flippable, visible)
    empty0 = bits == 0
    eff = np.empty(n + 1, dtype=bool)
    eff[:n] = empty0 if visible is None else (empty0 & visible)
    eff[n] = bool(t.pad_empty)
    rounds = np.where(empty0, np.int32(0), np.int32(-1))
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
