"""Fallback kernels, the executable spec of the entry points named in
ENTRY_POINTS: numpy-vectorized closure (a block of rows is closed row by
row), spanning thresholds by bisection on closures, heapq event loop,
crossings, counter-0 uniforms, a CSR matrix-vector product, the class of
the all-empty configuration with its generator in canonical CSR form, and
the symmetrization of a reversible CSR generator with its detailed-balance
error.

Functionally identical to the compiled kernels in kcmkit._compiled;
kernels.py picks one at import time. Keep the two in lockstep: the test
suite asserts equal outputs (bit-identical trajectories for the event loop,
byte-identical uniforms and generators). The argument checks and
conversions of every entry point live here, in the *_args functions; the
compiled kernels call the same functions before each C call, so both raise
the same error for the same input. The event loop computes the trajectory
only, with no window integrals, keys its clocks on t.geom.vertex_keys(),
and logs its executed resamples as one array of EVENT records. The
kernels index with the int32 tables FamilyTables.nbr and .rev as they are,
as the C code does.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from . import rng
from .families import FamilyTables
from .lattice import as_bits, as_int, as_site, as_sites

IMPL_NAME = "pure"
# the kernel contract: every implementation exposes these, with the
# semantics and results of the functions of the same names below
ENTRY_POINTS = ("closure", "threshold", "kcm_run", "crossing_batch",
                "uniforms", "csr_operator", "class_generator", "symmetrized")
# one record of kcm_run's event log, an executed resample: time, vertex and
# new state, packed in 13 bytes of native byte order (KK_EVENT in C)
EVENT = np.dtype([("t", "f8"), ("v", "u4"), ("s", "u1")])
# class_generator's bitmask states index a 2^n table of rows
CLASS_CAP_VERTICES = 24


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


def kcm_run_args(bits, n: int, seed, replica, q, t_max, target,
                 stop_when_target_empty):
    """kcm_run's arguments, C-typed; target -1 is none."""
    b = _bits(bits, n)
    tgt = -1 if as_int(target, "target") == -1 else as_site(target, n, "target")
    t_max = float(t_max)
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    return (b, as_int(seed, "seed") & rng.MASK64,
            as_int(replica, "replica") & rng.MASK64, float(q), t_max,
            tgt, bool(stop_when_target_empty))


def crossing_args(empty_grids, axis):
    """An (R, n0, n1) bool stack and axis 0 or 1."""
    g = np.ascontiguousarray(empty_grids, dtype=bool)
    if g.ndim != 3:
        raise ValueError("expected a (replicas, n0, n1) stack")
    axis = as_int(axis, "axis")
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    return g, axis


def uniforms_args(head, replicas, vkeys):
    """head, replica ids and vkeys, C-typed."""
    reps = np.ascontiguousarray(rng.replica_ids(replicas))
    vk = np.ascontiguousarray(np.asarray(vkeys).astype(np.uint64, copy=False))
    if reps.ndim != 1 or vk.ndim != 1:
        raise ValueError("replicas and vkeys must be 1-D")
    return as_int(head, "head") & rng.MASK64, reps, vk


def _csr(indptr, indices, data):
    """The arrays of an (n, n) CSR matrix, C-contiguous: int32 indptr
    rising from 0 to nnz over n + 1 entries, int32 column indices in
    [0, n), nnz float64 data. An array that already has its dtype and is
    C-contiguous is borrowed, not copied; any other is copied."""
    arrays = ptr, cols, vals = [np.asarray(a) for a in (indptr, indices, data)]
    if ptr.ndim != 1 or ptr.size == 0:
        raise ValueError("indptr must be 1-D with n + 1 entries")
    n = ptr.size - 1
    if cols.ndim != 1 or vals.shape != cols.shape:
        raise ValueError("indices and data must be 1-D of one length")
    if vals.dtype.kind not in "iuf":
        raise ValueError(f"data has dtype {vals.dtype}, expected reals")
    nnz = cols.size
    if max(n, nnz) >= 1 << 31:
        raise ValueError("a CSR matrix needs n and nnz below 2^31")
    checked = as_sites(ptr, nnz + 1, "indptr")
    if checked[0] != 0 or checked[-1] != nnz or (np.diff(checked) < 0).any():
        raise ValueError(f"indptr must rise from 0 to nnz = {nnz}")
    # checked in their own dtype, so the int32 conversion is the only copy
    if cols.size and cols.dtype.kind not in "iu":
        raise ValueError(f"indices has dtype {cols.dtype}, expected integers")
    if cols.size and (cols.min() < 0 or cols.max() >= n):
        raise ValueError(f"indices holds a site outside the {n} sites")
    return tuple(np.ascontiguousarray(a, dtype)
                 for a, dtype in zip(arrays, (np.int32, np.int32, np.float64)))


def csr_args(indptr, indices, data):
    """_csr's arrays, made read-only: the operator borrows them."""
    out = _csr(indptr, indices, data)
    for a in out:
        a.flags.writeable = False
    return out


def symmetrized_args(indptr, indices, data, mu):
    """_csr's arrays, and mu as (n,) float64 read from floats."""
    ptr, cols, vals = _csr(indptr, indices, data)
    if np.asarray(mu).dtype.kind != "f":
        raise ValueError(f"mu has dtype {np.asarray(mu).dtype}, expected "
                         f"floats")
    return ptr, cols, vals, _vector(mu, np.float64, ptr.size - 1, "mu")


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


def class_generator_args(t: FamilyTables, q) -> float:
    """q as a float in (0, 1), on tables over at most CLASS_CAP_VERTICES
    sites."""
    if t.n_sites > CLASS_CAP_VERTICES:
        raise ValueError(f"state space cap exceeded: {t.n_sites} > "
                         f"{CLASS_CAP_VERTICES} vertices")
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0,1), got {q}")
    return q


# ------------------------------------------------------------------ uniforms

def uniforms(head: int, replicas, vkeys: np.ndarray) -> np.ndarray:
    """(R, N) counter-based uniforms at counter 0: row r, column i is
    rng.uniform(seed, stream, replicas[r], vkeys[i], 0), given
    head = mix64(mix64(seed) ^ stream). `replicas` is a 1-D sequence of
    replica ids, read by rng.replica_ids."""
    head, reps, vk = uniforms_args(head, replicas, vkeys)
    # each mix runs in place on the fresh array of its xor
    hr = rng._mix64_np(np.uint64(head) ^ reps)                    # (R,)
    hm = rng._mix64_np(hr[:, None] ^ vk[None, :])                 # (R, N)
    hm = rng._mix64_np(hm)                                        # ^ counter 0
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

def kcm_run(bits: np.ndarray, t: FamilyTables, seed: int, replica: int,
            q: float, t_max: float, target: int = -1,
            stop_when_target_empty: bool = False, log_events: bool = False):
    """Continuous-time constrained Glauber dynamics, next-reaction style.

    Every site carries a rate-1 Poisson clock; at a ring the constraint is
    evaluated on the current configuration and, if satisfied, the site is
    resampled to empty with probability q (coin drawn only when legal). All
    randomness is counter-based per site, keyed on t.geom's vertex keys, so
    trajectories are reproducible and implementation-independent. The run
    ends at t_max (status "t_max") or, with stop_when_target_empty, when
    `target` first empties (status "target").

    Returns a dict with the final bits, counters, first-passage times for
    `target` (-1.0 when not hit), the event log (EVENT records) when
    requested and the status.
    """
    n = t.n_sites
    bits, seed, replica, q, t_max, target, stop = kcm_run_args(
        bits, n, seed, replica, q, t_max, target, stop_when_target_empty)
    bl = bits.tolist() + [0 if t.pad_empty else 1]
    nbr_rows = t.nbr.tolist()
    slot_lists = [slots.tolist() for slots in t.rules]
    vk = t.geom.vertex_keys().tolist()

    ctr = [0] * n
    heap = []
    for v in range(n):
        u = rng.uniform(seed, rng.STREAM_CLOCK, replica, vk[v], 0)
        ctr[v] = 1
        heap.append((-math.log(u), v))
    heapq.heapify(heap)

    log = []
    t_now = 0.0
    rings = legal = flips = 0
    t_target_empty = -1.0
    t_target_legal = -1.0
    status = "t_max"

    while heap:
        tt, x = heapq.heappop(heap)
        if tt > t_max:
            t_now = t_max
            break
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
                log.append((t_now, x, new))
            if new != bl[x]:
                flips += 1
                bl[x] = new
            if new == 0 and x == target and t_target_empty < 0.0:
                t_target_empty = t_now
                if stop:
                    status = "target"
                    break
        u3 = rng.uniform(seed, rng.STREAM_CLOCK, replica, vk[x], ctr[x])
        ctr[x] += 1
        heapq.heappush(heap, (t_now - math.log(u3), x))

    out = np.asarray(bl[:n], dtype=np.uint8)
    return {
        "bits": out,
        "t_end": t_now,
        "rings": rings,
        "legal_updates": legal,
        "flips": flips,
        "t_target_empty": t_target_empty,
        "t_target_first_legal": t_target_legal,
        "events": np.array(log, dtype=EVENT) if log_events else None,
        "status": status,
    }


# ---------------------------------------------------------------- csr matvec

def csr_operator(indptr, indices, data):
    """mv(x, out) writing A x into out, and returning out, for the (n, n) CSR
    matrix (indptr, indices, data), which csr_args checks once and borrows
    where it can. Each row is summed in stored order from 0.0, as scipy's
    csr_matvec does: one pass per entry column k adds every row's k-th
    product, over the rows sorted by descending length, so each pass is a
    prefix of them."""
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


# ------------------------------------------------------------- symmetrized

def symmetrized(indptr, indices, data, mu):
    """(s, flux_error) for the (n, n) CSR matrix L = (indptr, indices,
    data) and weights mu: s is CSR data on L's own pattern of
    S = D^{1/2} L D^{-1/2}, D = diag(mu), symmetrized as (S + S^T) / 2,
    each entry ((root_i * L_ij) * (1 / root_j) + its reverse's) * 0.5 with
    root = sqrt(mu); flux_error is max |mu_j L_ji - mu_i L_ij| over the
    stored entries, NaN when one of them is NaN. Raises ValueError when an
    entry has no reverse, i.e. unless the pattern is symmetric with the
    columns of every row in nondecreasing order."""
    ptr, cols, vals, mu = symmetrized_args(indptr, indices, data, mu)
    n = ptr.size - 1
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(ptr))
    # a stable sort of the entries by column lists them in the row-major
    # order of the transpose, so with a symmetric pattern the reverse L_ji
    # of entry k sits at rev[k]. NumPy's stable argsort is a radix sort on
    # 16-bit keys, several times faster than its int32 sort
    rev = np.argsort(cols.astype(np.uint16) if n <= 1 << 16 else cols,
                     kind="stable")
    # rows[rev] == cols also makes the columns a permutation of the rows
    if (rows[rev] != cols).any():
        raise ValueError("a stored entry has no reverse")
    flux = mu[rows]
    flux *= vals
    diff = flux[rev]
    diff -= flux
    err = float(np.abs(diff, out=diff).max()) if diff.size else 0.0
    root = np.sqrt(mu)
    inv = 1.0 / root
    d = root[rows]
    d *= vals
    d *= inv[cols]
    # in place: s = d[rev] + d adds as d + d[rev] does, addition commuting
    s = d[rev]
    s += d
    s *= 0.5
    return s, err


# ----------------------------------------------------------- class generator

def _constraint_masks(t: FamilyTables):
    """Per-vertex list of neighbor bitmasks, one per feasible rule.

    c_x(state) = 1 iff (state & mask) == 0 for some mask in masks[x]. Rules
    with a translate leaving a free box are dropped (occupied outside) or
    keep only their in-box members (empty outside).
    """
    n = t.n_sites
    rules = [slots.tolist() for slots in t.rules]
    masks: list[list[int]] = []
    for row in t.nbr.tolist():
        sites = [{row[s] for s in slots} for slots in rules]
        masks.append([sum(1 << w for w in ws - {n}) for ws in sites
                      if t.pad_empty or n not in ws])
    return masks


def _legal(states: np.ndarray, masks) -> np.ndarray:
    """Bool table legal[i, v] = c_v(states[i]), one pass per vertex."""
    legal = np.zeros((states.size, len(masks)), dtype=bool)
    for v, vmasks in enumerate(masks):
        for mask in vmasks:
            legal[:, v] |= (states & mask) == 0
    return legal


def _flip_table(states: np.ndarray, masks) -> np.ndarray:
    """(size, n + 1) int32 table: column v < n holds the row of
    states[i] ^ (1 << v) where flipping v is legal at states[i] and
    states.size where it is not; column n holds i. Raises if a flipped
    state is missing from `states`."""
    n, size = len(masks), states.size
    row_of = np.full(1 << n, -1, dtype=np.int32)  # <= 64 MiB at the cap
    row_of[states] = np.arange(size, dtype=np.int32)
    table = np.empty((size, n + 1), dtype=np.int32)
    for v in range(n):
        table[:, v] = row_of[states ^ (1 << v)]
    table[:, :n][~_legal(states, masks)] = size
    table[:, n] = np.arange(size)
    if (table < 0).any():
        raise AssertionError("a legal flip leaves the enumerated class")
    return table


def _canonical_csr(states: np.ndarray, masks, q: float):
    """(indptr, indices, data) of the generator, columns ascending within
    each row. A row holds at most n + 1 entries, so the flip table is
    sorted row by row, with no global sort."""
    size, n = states.size, len(masks)
    table = _flip_table(states, masks)
    # the diagonal subtracts each row's rates in vertex order, as a
    # per-state loop would; subtracting the 0.0 of an illegal flip is exact
    diag = np.zeros(size)
    for v in range(n):
        diag -= np.where(table[:, v] < size,
                         np.where((states >> v) & 1, q, 1.0 - q), 0.0)
    table.sort(axis=1)
    keep = table < size
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    indices = table[keep]
    rows = np.repeat(np.arange(size, dtype=np.int32), np.diff(indptr))
    # a flip that empties its vertex lowers the bitmask, at rate q
    data = np.where(states[indices] < states[rows], q, 1.0 - q)
    data[indices == rows] = diag
    return indptr, indices, data


def class_generator(t: FamilyTables, q: float):
    """(states, indptr, indices, data): the class of the all-empty
    configuration under legal flips, in first-in-first-out search order,
    and the generator on it in canonical CSR form.

    states are int64 occupancy bitmasks (bit v set: v occupied). Row i of
    the int32/float64 CSR arrays holds, columns ascending, rate q for each
    legal flip of states[i] that empties its vertex, 1 - q for each that
    fills it, and the diagonal: 0.0 minus those rates in vertex order.
    """
    q = class_generator_args(t, q)
    n = t.n_sites
    masks = _constraint_masks(t)
    # legal flips are reversible moves (c_x ignores the state of x), so the
    # class is the undirected component of the all-empty bitmask. Search it
    # level by level, parents in order, vertices ascending within a parent,
    # first occurrences kept: the order a first-in-first-out queue visits.
    levels = [np.zeros(1, dtype=np.int64)]
    seen = np.zeros(1 << n, dtype=bool)
    while levels[-1].size:
        front = levels[-1]
        seen[front] = True
        rows, verts = np.nonzero(_legal(front, masks))
        new = front[rows] ^ (1 << verts)
        new = new[~seen[new]]
        _, first = np.unique(new, return_index=True)
        levels.append(new[np.sort(first)])
    states = np.concatenate(levels)
    return (states, *_canonical_csr(states, masks, q))


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
