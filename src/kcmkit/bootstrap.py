"""Bootstrap closures and critical-scan estimators.

The closure of a configuration under an update family empties, repeatedly
and monotonically, every occupied site whose constraint is satisfied, until
nothing changes. The synchronous round at which a site empties is its
infection time. A configuration is internally spanned when its closure
empties the whole geometry.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .families import UpdateFamily, tables_for
from .lattice import Configuration, Geometry, random_bits, random_uniforms
from .stats import Z95, ScanEstimate, median, wilson_ci


# ------------------------------------------------------------------ closures

def closure(cfg: Configuration, fam: UpdateFamily) -> Configuration:
    """Fixed point of the bootstrap map (production kernel)."""
    t = tables_for(cfg.geom, fam)
    out, _ = kernels.closure(cfg.bits, t)
    return Configuration(cfg.geom, out)


def closure_with_rounds(cfg: Configuration, fam: UpdateFamily):
    """Closure plus per-site synchronous rounds (0 initial, -1 never)."""
    t = tables_for(cfg.geom, fam)
    out, rounds = kernels.closure(cfg.bits, t)
    return Configuration(cfg.geom, out), rounds


def is_internally_spanned(cfg: Configuration, fam: UpdateFamily) -> bool:
    """Does the closure empty the whole geometry?"""
    return not closure(cfg, fam).bits.any()


# ------------------------------------------------------------------ scanning

def estimate_span_probability(n: int, fam: UpdateFamily, q: float,
                              replicas: int, seed: int,
                              torus: bool = True) -> ScanEstimate:
    """Monte Carlo P(internally spanned) on an n^d box with a Wilson CI."""
    if replicas <= 0:
        raise ValueError("replicas must be positive")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0,1], got {q}")
    geom = Geometry((n,) * fam.d, torus=torus)
    t = tables_for(geom, fam)
    # one closure call per block of replicas; a replica spans when its row
    # of the closure is all empty
    hits = sum(int(np.count_nonzero(~kernels.closure(block, t)[0].any(axis=1)))
               for _, block in random_bits(geom, q, seed, replicas))
    return ScanEstimate(hits / replicas, wilson_ci(hits, replicas))


def _replayed_bisection(threshold: float, lo: float, hi: float,
                        tol: float) -> float:
    """Bisection on q over [lo, hi], to tol, for the smallest q at which a
    replica spans, given that it spans iff q > threshold: the steps and the
    arithmetic of a bisection that runs a closure at every q, without the
    closures."""
    if lo > threshold:
        return lo
    if not hi > threshold:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:   # adjacent floats: tol below their spacing
            break
        if mid > threshold:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def replica_thresholds(n: int, fam: UpdateFamily, tol: float,
                       replicas: int, seed: int) -> list[float]:
    """Per-replica spanning thresholds on an n^d torus, in replica order:
    the smallest q (to tol) at which the coupled grid {u < q} spans.

    Each replica's threshold is first found exactly: its sites are emptied
    in increasing order of their uniforms by the `threshold` kernel, and T
    is the uniform of the site whose emptying makes the closure span (-inf
    when the fully occupied grid spans already). The empty set {u < q}
    grows with q, so the replica spans iff q > T, and the bisection on q
    over [0, 1] to tol is replayed on T without a closure.
    """
    if replicas <= 0:
        raise ValueError("replicas must be positive")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    geom = Geometry((n,) * fam.d, torus=True)
    t = tables_for(geom, fam)
    out = []
    for _, u in random_uniforms(geom, seed, replicas):
        order = np.argsort(u, axis=1, kind="stable")
        k = kernels.threshold(order, t)
        rows = np.arange(k.size)
        exact = np.where(k > 0, u[rows, order[rows, k - 1]], -np.inf)
        out += [_replayed_bisection(x, 0.0, 1.0, tol) for x in exact.tolist()]
    return out


def estimate_qc(n: int, fam: UpdateFamily, tol: float, replicas: int,
                seed: int) -> ScanEstimate:
    """Finite-size critical density: the q at which half the replicas span.

    The sample median of the replica_thresholds, which are exact up to the
    bisection's tol, over a fixed coupled replica set on an n^d torus. The
    interval combines the bisection bracket with the median's sampling
    noise (order statistics at 95%).
    """
    thresholds = sorted(replica_thresholds(n, fam, tol, replicas, seed))
    # median sampling noise via order statistics at 95%
    half = 0.5 * Z95 * math.sqrt(replicas)
    jlo = max(0, int(math.floor(0.5 * replicas - half)))
    jhi = min(replicas - 1, int(math.ceil(0.5 * replicas + half)))
    ci = (thresholds[jlo] - 0.5 * tol, thresholds[jhi] + 0.5 * tol)
    return ScanEstimate(median(thresholds), ci)


def estimate_lc(q: float, fam: UpdateFamily, n_max: int, replicas: int,
                seed: int, torus: bool = True) -> ScanEstimate:
    """Critical length: smallest n whose spanning-probability estimate is
    >= 1/2 (ties resolved to the first such n).

    Doubling search until the estimate crosses 1/2, then integer bisection.
    Replicas are coupled across sizes (coordinate-keyed uniforms), so the
    empirical curve is evaluated consistently. The CI reports the integer
    bracket endpoints from the search.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0,1], got {q}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")

    def phat(n: int) -> float:
        return estimate_span_probability(n, fam, q, replicas, seed,
                                         torus=torus).value

    n = 1
    p = phat(1)
    if p >= 0.5:
        return ScanEstimate(1.0, (1.0, 1.0))
    lo = 1  # largest size seen below 1/2
    hi = None
    while True:
        n = min(2 * n, n_max)
        p = phat(n)
        if p >= 0.5:
            hi = n
            break
        lo = n
        if n >= n_max:
            # search censored at the cap: report the cap, flagged
            return ScanEstimate(float(n_max), (float(n_max), float(n_max)),
                                censored=True)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if phat(mid) >= 0.5:
            hi = mid
        else:
            lo = mid
    return ScanEstimate(float(hi), (float(lo + 1), float(hi)))


# ---------------------------------------------------- closed forms (fa_1f)

def fa1f_span_probability(n: int, d: int, q: float) -> float:
    """P(spanned) for the 1-neighbor family: one empty site suffices."""
    return 1.0 - (1.0 - q) ** (n ** d)


def fa1f_qc(n: int, d: int) -> float:
    """q at which the fa_1f spanning probability hits 1/2 on n^d sites."""
    return 1.0 - 0.5 ** (1.0 / (n ** d))


def fa1f_lc(q: float, d: int) -> int:
    """Smallest n with fa1f_span_probability(n, d, q) >= 1/2."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0,1)")
    sites = math.log(2.0) / -math.log1p(-q)
    n = math.ceil(sites ** (1.0 / d))
    while fa1f_span_probability(n, d, q) < 0.5:
        n += 1
    while n > 1 and fa1f_span_probability(n - 1, d, q) >= 0.5:
        n -= 1
    return n
