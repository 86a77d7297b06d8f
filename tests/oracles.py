"""Test-only oracles: independent reference computations that the test
modules check the library against, and the reference maps they read the
library's results through (constraint_satisfied, phi_map,
relaxation_time, relaxation_time_from_gap), with the site helpers they are
written in (shift_flat, neighbor_table_loop, neighbors, vertex_key,
fully_occupied, from_empty_sites). Nothing in src/ calls them."""

import math
import warnings
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from kcmkit import kernels
from kcmkit.blocks import (CLASS_NEITHER, CLASS_SUPERGOOD, EXACT_LAMBDA_CAP,
                           BlockSpec, _enumerate_classes, _seed_mask,
                           classify_block)
from kcmkit.families import UpdateFamily
from kcmkit.lattice import Configuration, Geometry
from kcmkit.paths import LegalPath
from kcmkit.rng import _COORD_SALT, MASK64, mix64
from kcmkit.spectral import DEGENERATE_GAP, GeneratorMatrix, spectral_gap

DENSE_ORACLE_CAP = 1 << 14


def shift_flat(geom: Geometry, flat: int, offset: Sequence[int]) -> int:
    """Flat index of site + offset, or -1 if it leaves a free box."""
    c = list(geom.coords(flat))
    for a, u in enumerate(offset):
        c[a] += int(u)
        if geom.torus:
            c[a] %= geom.dims[a]
        elif not 0 <= c[a] < geom.dims[a]:
            return -1
    return geom.flat(c)


def neighbor_table_loop(geom: Geometry, offsets) -> np.ndarray:
    """(N, S) int32 flat indices of site + offset_s, one site and offset at
    a time through shift_flat, with the pad index N where the target leaves
    a free box: the reference of Geometry.neighbor_table."""
    n = geom.n_sites
    rows = [[w if (w := shift_flat(geom, v, off)) >= 0 else n
             for off in offsets] for v in range(n)]
    return np.array(rows, dtype=np.int32).reshape(n, len(offsets))


def neighbors(geom: Geometry, x) -> list[tuple[int, ...]]:
    """The <= 2d distinct l1-neighbors of x (wrapped on a torus, clipped on a
    free box)."""
    flat = geom.site(x)
    out = []
    for a in range(geom.d):
        for s in (+1, -1):
            off = [0] * geom.d
            off[a] = s
            w = shift_flat(geom, flat, off)
            if w >= 0:
                c = geom.coords(w)
                if c not in out:
                    out.append(c)
    return out


def fully_occupied(geom: Geometry) -> Configuration:
    return Configuration(geom, np.ones(geom.n_sites, dtype=np.uint8))


def from_empty_sites(geom: Geometry, sites) -> Configuration:
    """The configuration whose empty sites are exactly `sites`."""
    cfg = fully_occupied(geom)
    for v in sites:
        cfg.bits[geom.site(v)] = 0
    return cfg


def vertex_key(coords) -> int:
    """Size-independent key for a site, hashed from its coordinate tuple
    one word at a time: the scalar reference of rng.vertex_keys_np."""
    h = mix64(_COORD_SALT)
    for c in coords:
        h = mix64(h ^ (int(c) & MASK64))
    return h


def generator_csr(gen: GeneratorMatrix) -> sp.csr_matrix:
    """The generator as a scipy.sparse.csr_matrix over gen's own arrays."""
    return sp.csr_matrix((gen.data, gen.indices, gen.indptr),
                         shape=(gen.size, gen.size))


def symmetrized_scipy(gen: GeneratorMatrix) -> sp.csr_matrix:
    """S = D^{1/2} L D^{-1/2} with D = diag(mu), symmetrized as
    (S + S^T) / 2, built from scipy sparse products and sums."""
    root = np.sqrt(gen.mu)
    S = sp.diags(root) @ generator_csr(gen) @ sp.diags(1.0 / root)
    return ((S + S.T) * 0.5).tocsr()


def relaxation_time_dense(gen: GeneratorMatrix) -> float:
    """Independent dense oracle: full eigh of the symmetrized generator,
    built from the scipy matrix rather than the library's dense path."""
    if gen.size > DENSE_ORACLE_CAP:
        raise ValueError(f"dense oracle capped at {DENSE_ORACLE_CAP} states")
    root = np.sqrt(gen.mu)
    dense = generator_csr(gen).toarray() * root[:, None] / root[None, :]
    dense = 0.5 * (dense + dense.T)
    lam = np.sort(-np.linalg.eigvalsh(dense))
    if abs(lam[0]) > 1e-8:
        raise AssertionError("zero eigenvalue not found on the class")
    gap = float(lam[1])
    return relaxation_time_from_gap(gap, gap < DEGENERATE_GAP)


def relaxation_time_from_gap(gap: float, degenerate: bool) -> float:
    """T_rel = 1/gap; inf with a warning if the gap is numerically
    degenerate. Takes spectral_gap's result, so one solve gives both."""
    if degenerate:
        warnings.warn(f"numerically degenerate gap {gap:.3e}", RuntimeWarning)
        return np.inf
    return 1.0 / gap


def relaxation_time(gen: GeneratorMatrix) -> float:
    """T_rel = 1/gap from the library's own solve, as `kcm gap` reads it;
    inf with a warning if the gap is numerically degenerate."""
    return relaxation_time_from_gap(*spectral_gap(gen))


def replica_threshold_bisection(u: np.ndarray, t, lo: float, hi: float,
                                tol: float) -> float:
    """Smallest q (to tol) at which the coupled grid spans, by bisection.

    The empty set {u < q} grows with q, so spanning is monotone in q for a
    fixed replica and the threshold is well defined.
    """
    def spans_at(q: float) -> bool:
        out, _ = kernels.closure((u >= q).astype(np.uint8), t)
        return not out.any()

    if spans_at(lo):
        return lo
    if not spans_at(hi):
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            # lo and hi are neighbouring floats, closer than tol can ask for
            break
        if spans_at(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def constraint_satisfied(cfg: Configuration, fam: UpdateFamily, v) -> bool:
    """True iff some rule translated to v lands entirely on empty sites.

    Does not look at the state of v itself. Offsets leaving a free box count
    as occupied unless the geometry says outside_empty.
    """
    geom = cfg.geom
    if fam.d != geom.d:
        raise ValueError("family dimension does not match geometry")
    flat = geom.site(v)
    for rule in fam.rules:
        ok = True
        for off in rule:
            w = shift_flat(geom, flat, off)
            if w < 0:
                if not geom.outside_empty:
                    ok = False
                    break
            elif cfg.bits[w] != 0:
                ok = False
                break
        if ok:
            return True
    return False


def closure_naive(cfg: Configuration, fam: UpdateFamily):
    """Full-rescan fixed-point oracle, written independently of the kernels.

    Same contract as closure_with_rounds; every round rescans every site
    against every rule, kept plain as the reference the optimized kernels
    are tested against. Neighbours come from shift_flat, once per distinct
    offset.
    """
    geom = cfg.geom
    n = geom.n_sites
    bits = cfg.bits.copy()
    rounds = np.where(bits == 0, np.int32(0), np.int32(-1))
    offsets = {off for rule in fam.rules for off in rule}
    shifted = {off: np.array([shift_flat(geom, v, off) for v in range(n)],
                             dtype=np.int64) for off in offsets}
    # (|rule|, n) targets per rule; -1 (outside a free box) reads the extra
    # last entry of the emptiness array below
    targets = [np.array([shifted[off] for off in rule],
                        dtype=np.int64).reshape(len(rule), n)
               for rule in fam.rules]
    r = 0
    while True:
        r += 1
        empty = np.append(bits == 0, geom.outside_empty)
        sat = np.zeros(n, dtype=bool)
        for tgt in targets:
            sat |= empty[tgt].all(axis=0)
        newly = sat & (bits == 1)
        if not newly.any():
            break
        bits[newly] = 0
        rounds[newly] = r
    return Configuration(geom, bits), rounds


def phi_map(cfg: Configuration, spec: BlockSpec) -> Configuration:
    """Promotion: empty the seed set, leave everything else untouched.

    Requires a good input; the output is always super-good, and the map is
    idempotent (it only writes zeros on the fixed seed set).
    """
    if classify_block(cfg, spec) == CLASS_NEITHER:
        raise ValueError("promotion needs a good block")
    out = cfg.bits.copy().reshape(spec.dims)
    out[_seed_mask(spec)] = 0
    return Configuration(cfg.geom, out.reshape(-1))


def lambda_phi_oracle(spec: BlockSpec) -> float:
    """Brute-force pair enumeration through the public classify/promote API."""
    n = spec.n_sites
    if n > EXACT_LAMBDA_CAP:
        raise ValueError("oracle capped at 16 sites")
    geom = spec.geometry()
    q, p = spec.q, 1.0 - spec.q

    def weight(bits):
        occ = int(bits.sum())
        return p ** occ * q ** (n - occ)

    configs = []
    for state in range(1 << n):
        bits = np.array([(state >> v) & 1 for v in range(n)], dtype=np.uint8)
        cfg = Configuration(geom, bits)
        cls = classify_block(cfg, spec)
        image = phi_map(cfg, spec) if cls != CLASS_NEITHER else None
        configs.append((cfg, weight(bits), cls, image))
    best = 0.0
    for sigma, w_sigma, cls, _ in configs:
        if cls != CLASS_SUPERGOOD:
            continue
        total = 0.0
        for _, w_p, cls_p, image in configs:
            if cls_p != CLASS_NEITHER and image == sigma:
                total += w_p / w_sigma
        best = max(best, total)
    return best


def lambda_phi_loop(spec: BlockSpec) -> float:
    """The exact promotion constant one good state at a time, adding the
    weights in the library's order, so the two agree bit for bit."""
    good, sg = _enumerate_classes(spec)
    zmask = 0
    for v in np.flatnonzero(_seed_mask(spec).reshape(-1)):
        zmask |= 1 << int(v)
    ratio = (1.0 - spec.q) / spec.q
    sums: dict[int, float] = {}
    for state in np.flatnonzero(good):
        state = int(state)
        image = state & ~zmask
        extra = bin(state & zmask).count("1")
        sums[image] = sums.get(image, 0.0) + ratio ** extra
    assert set(sums) <= set(int(s) for s in np.flatnonzero(sg))
    return max(sums.values())


def window_empty_means_replay(initial: Configuration, events, burn_in: float,
                              t_end: float, windows: int) -> np.ndarray:
    """Per-window mean empty fraction over `windows` equal windows on
    (burn_in, t_end), replaying the event log one event at a time: the
    empty count holds between events, and each piece adds its count times
    its overlap with every window."""
    state = [int(b) for b in initial.bits]
    empties = state.count(0)
    width = (t_end - burn_in) / windows
    totals = [0.0] * windows

    def add(t0: float, t1: float) -> None:
        for j in range(windows):
            lo = max(t0, burn_in + j * width)
            hi = min(t1, burn_in + (j + 1) * width)
            if hi > lo:
                totals[j] += empties * (hi - lo)

    t_prev = 0.0
    for t, v, s in events.tolist():
        add(t_prev, t)
        empties += (s == 0) - (state[v] == 0)
        state[v] = s
        t_prev = t
    add(t_prev, t_end)
    return np.array(totals) / (width * len(state))


def loop_erased_oracle(path: LegalPath) -> LegalPath:
    """Chronological loop erasure by splicing: replay the path and, on
    reaching a configuration already on the erased trail, cut the trail
    back to it."""
    bits = path.start.bits.copy()
    trail = [bits.tobytes()]
    seen = {trail[0]: 0}
    kept: list[tuple[int, int]] = []
    for v, val in zip(path.vertices.tolist(), path.values.tolist()):
        bits[v] = val
        key = bits.tobytes()
        if key in seen:
            cut = seen[key]
            for old in trail[cut + 1:]:
                del seen[old]
            del trail[cut + 1:]
            kept = kept[:cut]
        else:
            kept.append((v, val))
            trail.append(key)
            seen[key] = len(kept)
    return LegalPath(path.start,
                     np.array([v for v, _ in kept], dtype=np.int64),
                     np.array([x for _, x in kept], dtype=np.uint8))


def congestion_constant_oracle(paths: Sequence[LegalPath], q: float) -> float:
    """Independent congestion recomputation for cross-checking.

    Rescans the family per visited configuration and recounts occupancies
    from the raw configuration bytes instead of tracking deltas.
    """
    base = (1.0 - q) / q
    per: list[dict[bytes, float]] = []
    for p in paths:
        bits = p.start.bits.copy()
        s0 = int(bits.sum())
        d: dict[bytes, float] = {}
        key = bits.tobytes()
        d[key] = base ** (s0 - sum(key))
        for v, val in zip(p.vertices.tolist(), p.values.tolist()):
            bits[v] = val
            key = bits.tobytes()
            d[key] = base ** (s0 - sum(key))
        per.append(d)
    keys: set[bytes] = set()
    for d in per:
        keys.update(d)
    return max((sum(d.get(k, 0.0) for d in per) for k in keys), default=0.0)


def percolation_series_value(p: float, m_hat: float,
                             tail_tol: float = 1e-12):
    """Crossing-failure weighted series 3 sum_n 8^n exp(-m 2^n / 2) + 4 sqrt(p).

    Truncates when the remaining tail is certified below tail_tol via the
    geometric ratio 8 exp(-m 2^{n-1}) < 1. Returns (value, tail_bound,
    terms_used).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0,1)")
    if m_hat <= 0.0:
        raise ValueError("decay rate must be positive")
    total = 4.0 * math.sqrt(p)
    n = 0
    while True:
        n += 1
        term = 3.0 * 8.0 ** n * math.exp(-0.5 * m_hat * 2.0 ** n)
        total += term
        ratio = 8.0 * math.exp(-0.5 * m_hat * 2.0 ** n)
        if ratio < 0.5:
            tail = term * ratio / (1.0 - ratio)
            if tail < tail_tol:
                return total, tail, n
        if n > 10_000:
            raise RuntimeError("series failed to converge")
