"""Rectangle-ladder crossings, empty-cluster labeling, and decay-rate fits.

The dyadic ladder doubles one side at a time: level n is a rectangle with
sides 2^n and 2^(n-1), tall when n is odd and wide when n is even, and
all levels share a corner, so each holds the ones below it.  A
level is crossed when an all-empty nearest-neighbor path joins its two
short sides.  Crossing failures decay exponentially in the long side deep
in the supercritical phase; the fitted rate feeds the weighted series
checked by `supercritical_condition_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .lattice import (Box, Configuration, Geometry, as_ints, box_region,
                      random_bits)
from .stats import ScanEstimate, wilson_ci

__all__ = [
    "level_dims", "crossing_axis", "find_clusters", "has_hard_crossing",
    "c_infty_surrogate", "CrossingRow", "CrossingScan",
    "estimate_crossing_failure", "fit_decay_rate",
    "supercritical_condition_check",
]


# -------------------------------------------------------------- the ladder

def level_dims(n: int) -> tuple[int, int]:
    """(width, height) of level n; the long side is vertical when n is odd."""
    long, short = 1 << n, 1 << (n - 1)
    return (short, long) if n % 2 else (long, short)


def crossing_axis(n: int) -> int:
    """Axis along which level n's hard crossing runs (the long side)."""
    return 1 if n % 2 else 0


# ----------------------------------------------------------------- clusters

def find_clusters(cfg: Configuration) -> np.ndarray:
    """Label the empty vertices by connected component.

    Returns an int64 array over all sites: occupied sites get -1, each
    empty site gets the smallest flat index in its component.  Adjacency
    is nearest-neighbor, wrapping on torus geometries.
    """
    geom = cfg.geom
    n = geom.n_sites
    empty = cfg.bits == 0
    parent = np.arange(n, dtype=np.int64)

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    # every edge (v, v + e_axis) once; the geometry wraps it or, off a free
    # box, gives the pad index n, which reads occupied here
    nbr = geom.neighbor_table(np.eye(geom.d, dtype=np.int64))
    v, axis = np.nonzero(empty[:, None] & np.append(empty, False)[nbr])
    for a, b in zip(v.tolist(), nbr[v, axis].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    labels = np.full(n, -1, dtype=np.int64)
    for v in np.flatnonzero(empty).tolist():
        labels[v] = find(v)
    return labels


def has_hard_crossing(cfg: Configuration, rect: Box) -> bool:
    """True when an all-empty nearest-neighbor path inside `rect` runs
    along its long axis, joining its two short sides."""
    geom = cfg.geom
    if len(geom.dims) != 2 or len(rect.dims) != 2:
        raise ValueError("hard crossings are two-dimensional")
    axis = 0 if rect.dims[0] >= rect.dims[1] else 1
    sub = (cfg.bits[box_region(geom, rect).indices] == 0).reshape(rect.dims)
    return bool(kernels.crossing_batch(sub[None, :, :], axis)[0])


def c_infty_surrogate(cfg: Configuration, x, radius: int) -> bool:
    """Finite stand-in for "two neighbors in an unbounded empty cluster".

    True when at least two nearest neighbors of `x` are empty and connect,
    inside the radius-`radius` window, to the window's hull.  The center
    is masked before labeling, so the value never reads the state of `x`
    itself.  Nonincreasing in `radius`: a farther hull is harder to reach.
    """
    geom = cfg.geom
    d = len(geom.dims)
    if radius < 1:
        raise ValueError("radius must be at least 1")
    corner = tuple(c - radius for c in as_ints(x, "x"))
    dims = (2 * radius + 1,) * d
    bits = cfg.bits[box_region(geom, Box(corner, dims)).indices].copy()
    win = Geometry(dims)
    center = win.flat((radius,) * d)
    bits[center] = 1
    labels = find_clusters(Configuration(win, bits))

    grid = labels.reshape(dims)
    hull = set()
    for a in range(d):
        face = np.moveaxis(grid, a, 0)
        hull.update(face[0].ravel().tolist())
        hull.update(face[-1].ravel().tolist())
    hull.discard(-1)

    unit = np.eye(d, dtype=np.int64)
    nbs = win.neighbor_table(np.concatenate((unit, -unit)))[center]
    return sum(label in hull for label in labels[nbs].tolist()) >= 2


# ---------------------------------------------------------------- scanning

@dataclass(frozen=True)
class CrossingRow:
    n: int
    side: int
    estimate: ScanEstimate


@dataclass(frozen=True)
class CrossingScan:
    rows: tuple[CrossingRow, ...]
    m_hat: float | None

    def row(self, n: int) -> CrossingRow:
        return self.rows[n - 1]


def fit_decay_rate(sides, failure_rates, replicas: int) -> float | None:
    """Through-origin weighted fit of -log(failure) against the long side.

    Weights are inverse delta-method variances of the log estimate; levels
    with zero or total failure carry no information and are skipped.
    Returns None when nothing is fittable.
    """
    sx2 = sxy = 0.0
    for ell, f in zip(sides, failure_rates):
        if not 0.0 < f < 1.0:
            continue
        w = replicas * f / (1.0 - f)
        sx2 += w * ell * ell
        sxy += w * ell * (-math.log(f))
    if sx2 == 0.0:
        return None
    return sxy / sx2


def estimate_crossing_failure(n_index: int, p: float, replicas: int,
                              seed: int) -> CrossingScan:
    """Monte Carlo crossing-failure rates for ladder levels 1..n_index.

    Sites are occupied with probability `p` independently; all levels of
    one replica share a single uniform field on the bounding rectangle,
    so estimates are coupled across levels.  Levels with zero observed
    failures keep their confidence interval but drop out of the rate fit.
    """
    if n_index < 1:
        raise ValueError("ladder needs at least one level")
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0,1)")
    if replicas < 1:
        raise ValueError("replicas must be positive")
    bound = Geometry(level_dims(n_index))   # the levels nest
    crossed = [0] * n_index
    for _, bits in random_bits(bound, 1.0 - p, seed, replicas):
        empty = (bits == 0).reshape(-1, *bound.dims)
        for n in range(1, n_index + 1):
            w, h = level_dims(n)
            crossed[n - 1] += int(kernels.crossing_batch(
                empty[:, :w, :h], crossing_axis(n)).sum())

    rows = []
    for n in range(1, n_index + 1):
        failures = replicas - crossed[n - 1]
        est = ScanEstimate(failures / replicas,
                           wilson_ci(failures, replicas),
                           censored=(failures == 0))
        rows.append(CrossingRow(n, 1 << n, est))

    m_hat = fit_decay_rate([r.side for r in rows],
                           [r.estimate.value for r in rows], replicas)
    return CrossingScan(tuple(rows), m_hat)


# ------------------------------------------------------------ the condition

N_TRUNCATE = 40   # terms summed before the geometric tail bound


def supercritical_condition_check(p: float, m_hat: float) -> float:
    """Value of 3*sum_n 8^n exp(-m*2^(n-1)) + 4*sqrt(p), tail included.

    The series is summed to N_TRUNCATE and closed with a geometric tail
    bound, valid once the term ratio 8*exp(-m*2^(n-1)) has fallen below
    1/2; ergodicity of the crossing-constrained dynamics needs the
    returned value to be at most 1/4.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0,1)")
    if m_hat <= 0.0:
        raise ValueError("decay rate must be positive")
    total = 4.0 * math.sqrt(p)
    for n in range(1, N_TRUNCATE + 1):
        term = 3.0 * 8.0 ** n * math.exp(-m_hat * 2.0 ** (n - 1))
        total += term
    ratio = 8.0 * math.exp(-m_hat * 2.0 ** (N_TRUNCATE - 1))
    if ratio >= 0.5:
        raise ValueError("series not yet dominated at this truncation")
    return total + term * ratio / (1.0 - ratio)
