"""Block geometry, good/super-good events, the promotion map, and the
key-condition arithmetic.

A block is a finite box [n_1] x ... x [n_d] carrying a product-Bernoulli(q)
law on emptiness. Each model defines a good event (enough scattered empties
to move help around), a super-good event (good plus a fully empty seed set),
and a promotion map that empties that seed set. The promotion-cost constant
lambda is the worst-case mass a super-good configuration absorbs from its
preimages, and the two block probabilities feed the key condition
(1 - p1) * ln(1/p2)^2 used by the coarse-grained Poincare machinery.

Conventions documented here once: all logarithms are natural; p2 lower
bounds multiply the good probability by q^{|seed set|} (valid for decreasing
events by the FKG inequality); the "fa2" model is fa_kf with k=2 in any
dimension d >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import kernels
from .families import UpdateFamily, make_family, tables_for
from .lattice import Configuration, Geometry, as_ints, random_bits
from .stats import ScanEstimate, wilson_ci

EXACT_LAMBDA_CAP = 16
EXACT_PROBS_CAP = 20
# a block holds at most this many sites: one replica's uniforms, drawn
# whole, then take at most 128 MiB
MAX_BLOCK_SITES = 1 << 24

CLASS_NEITHER = "neither"
CLASS_GOOD = "good"
CLASS_SUPERGOOD = "supergood"


@dataclass(frozen=True)
class BlockSpec:
    """One block's model, sides, density, and tuning constant."""

    model: str                 # "fa2" | "fakf" | "gg"
    dims: tuple
    q: float
    A: float
    k: int = 2                 # fakf only: constraint arity

    def __post_init__(self):
        if self.model not in ("fa2", "fakf", "gg"):
            raise ValueError(f"unknown block model {self.model!r}")
        # q = 1 (all empty a.s.) is allowed as a degenerate reference point
        if not 0.0 < self.q <= 1.0:
            raise ValueError("q must be in (0,1]")
        if not 0.0 < self.A < math.inf:
            raise ValueError(f"A must be positive and finite, got {self.A}")
        object.__setattr__(self, "dims", as_ints(self.dims, "dims"))
        if any(n < 1 for n in self.dims):
            raise ValueError("dims must be positive")
        if math.prod(self.dims) > MAX_BLOCK_SITES:
            raise ValueError(f"a block holds at most 2^24 sites, got "
                             f"{'x'.join(map(str, self.dims))}")
        if self.model == "gg" and len(self.dims) != 2:
            raise ValueError("gg blocks are two-dimensional")
        if self.model == "gg" and self.dims[0] < 2:   # no adjacent pair
            raise ValueError(f"gg blocks need at least 2 columns, got width "
                             f"{self.dims[0]}")
        if self.model == "fa2" and len(self.dims) < 2:
            raise ValueError("fa2 blocks need d >= 2")
        # fakf slices run fa_kf(d-1, k-1), which needs 1 <= k-1 <= 2(d-1);
        # k = 2 is the fa2 model
        if self.model == "fakf" and not 3 <= self.k <= 2 * self.d - 1:
            raise ValueError(f"fakf blocks need 3 <= k <= 2d - 1, got "
                             f"k={self.k}, d={self.d}")

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def n_sites(self) -> int:
        return int(np.prod(self.dims))

    def geometry(self) -> Geometry:
        return Geometry(self.dims)


class BlockDims(NamedTuple):
    dims: tuple
    degenerate: bool      # some side < 2: q too large for the scaling regime


def block_dims(model: str, q: float, A: float, d: int = 2,
               ell: int | None = None) -> BlockDims:
    """Block sides for each model's scaling form.

    fa2: all sides (A/q * ln(1/q))^{1/(d-1)}, A > 3/(d-1).
    gg:  n1 = A ln(1/q)/q^2, n2 = A ln(1/q)/q, A > 6.
    fakf (k >= 3): all sides A * ell * ln(ell) where ell is the critical
    length of the (d-1)-dimensional (k-1)-neighbour model, supplied by the
    caller (measured or chosen), A > 2(d-1)+1.
    Floors are applied; sides below 2 flag the result degenerate.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0,1)")
    if not 0.0 < A < math.inf:
        raise ValueError(f"A must be positive and finite, got {A}")
    logq = math.log(1.0 / q)
    if model == "fa2":
        if d < 2:
            raise ValueError("fa2 needs d >= 2")
        n = math.floor((A / q * logq) ** (1.0 / (d - 1)))
        dims = (n,) * d
    elif model == "gg":
        dims = (math.floor(A * logq / q ** 2), math.floor(A * logq / q))
    elif model == "fakf":
        if ell is None:
            raise ValueError("fakf block sizing needs the measured critical "
                             "length ell of the reduced model")
        if ell < 2:
            raise ValueError("ell must be at least 2")
        n = math.floor(A * ell * math.log(ell))
        dims = (n,) * d
    else:
        raise ValueError(f"unknown block model {model!r}")
    return BlockDims(dims, any(n < 2 for n in dims))


# ------------------------------------------------------------ classification

def _empty_grid(cfg: Configuration, spec: BlockSpec) -> np.ndarray:
    if cfg.geom.dims != spec.dims:
        raise ValueError("configuration dims do not match the block spec")
    return (cfg.bits == 0).reshape(spec.dims)


def _good_batch(empty: np.ndarray, spec: BlockSpec) -> np.ndarray:
    """Vectorized good-event indicator over a (R, *dims) batch."""
    d = spec.d
    if spec.model == "fa2":
        ok = np.ones(empty.shape[0], dtype=bool)
        for axis in range(d):
            other = tuple(a + 1 for a in range(d) if a != axis)
            ok &= empty.any(axis=other).all(axis=1)
        return ok
    if spec.model == "gg":
        cols = empty.any(axis=2).all(axis=1)
        pairs = (empty[:, :-1, :] & empty[:, 1:, :]).any(axis=1).all(axis=1)
        return cols & pairs
    # fakf: every i-slice internally spanned for the reduced model, with one
    # closure call per slice position over all replicas
    fam = _slice_family(d, spec.k)
    ok = np.ones(empty.shape[0], dtype=bool)
    for axis in range(d):
        g = Geometry(tuple(n for a, n in enumerate(spec.dims) if a != axis))
        t = tables_for(g, fam)
        for j in range(spec.dims[axis]):
            sl = np.take(empty, j, axis=axis + 1).reshape(-1, g.n_sites)
            out, _ = kernels.closure((~sl).astype(np.uint8), t)
            ok &= ~out.any(axis=1)
    return ok


@lru_cache(maxsize=16)
def _slice_family(d: int, k: int) -> UpdateFamily:
    """The reduced (k-1)-of-2(d-1) family on a slice of a k-of-2d block."""
    return (make_family("fa_kf", d - 1, k - 1) if k >= 2
            else make_family("unconstrained", d - 1))


def _seed_mask(spec: BlockSpec) -> np.ndarray:
    """Boolean mask (shape dims) of the designated seed set.

    fa2: the d box edges through the minimal corner. fakf: the first slice
    in every direction. gg: the first two columns.
    """
    mask = np.zeros(spec.dims, dtype=bool)
    if spec.model == "fa2":
        for axis in range(spec.d):
            sel = [0] * spec.d
            sel[axis] = slice(None)
            mask[tuple(sel)] = True
    elif spec.model == "fakf":
        for axis in range(spec.d):
            sel = [slice(None)] * spec.d
            sel[axis] = 0
            mask[tuple(sel)] = True
    else:
        mask[0:2, :] = True
    return mask


def _classes(empty: np.ndarray,
             spec: BlockSpec) -> tuple[np.ndarray, np.ndarray]:
    """(good, supergood) indicators over a (R, *dims) batch of empty-site
    grids: super-good is good with the whole seed set empty."""
    good = _good_batch(empty, spec)
    return good, good & empty[:, _seed_mask(spec)].all(axis=1)


def classify_block(cfg: Configuration, spec: BlockSpec) -> str:
    """'neither', 'good', or 'supergood' per the block model's events."""
    good, supergood = _classes(_empty_grid(cfg, spec)[None], spec)
    if supergood[0]:
        return CLASS_SUPERGOOD
    return CLASS_GOOD if good[0] else CLASS_NEITHER


# ------------------------------------------------------- promotion constant

def _enumerate_classes(spec: BlockSpec):
    """(good_mask, supergood_mask) over all 2^N occupancy bitmasks.

    Bit v of a state is the occupancy of flat site v.
    """
    n = spec.n_sites
    states = np.arange(1 << n, dtype=np.uint64)
    bits = ((states[:, None] >> np.arange(n, dtype=np.uint64)[None, :])
            & np.uint64(1)).astype(np.uint8)
    return _classes((bits == 0).reshape(-1, *spec.dims), spec)


def lambda_phi(spec: BlockSpec, mode: str = "auto"):
    """Promotion-cost constant: worst case over super-good targets of the
    relative weight of all good preimages.

    Exact mode enumerates every good configuration (blocks up to 16 sites);
    bound mode returns the closed-form (2/q)^{|seed set|}-style bound for
    the model. Returns (value, mode_used).
    """
    if mode not in ("auto", "exact", "bound"):
        raise ValueError(f"unknown mode {mode!r}")
    n = spec.n_sites
    if mode == "auto":
        mode = "exact" if n <= EXACT_LAMBDA_CAP else "bound"
    if mode == "bound":
        return _lambda_phi_bound(spec), "bound"
    if n > EXACT_LAMBDA_CAP:
        raise ValueError(f"exact promotion constant capped at "
                         f"{EXACT_LAMBDA_CAP} sites, block has {n}")
    good, sg = _enumerate_classes(spec)
    seed = _seed_mask(spec).reshape(-1)
    zmask = np.uint64(sum(1 << int(v) for v in np.flatnonzero(seed)))
    ratio = (1.0 - spec.q) / spec.q
    weight = np.array([ratio ** k for k in range(int(seed.sum()) + 1)])
    states = np.flatnonzero(good).astype(np.uint64)
    images = (states & ~zmask).astype(np.intp)
    assert sg[images].all(), "promotion image left the super-good event"
    extra = np.bitwise_count(states & zmask)      # seed sites occupied
    sums = np.bincount(images, weights=weight[extra])
    return float(sums.max()), "exact"


def _lambda_phi_bound(spec: BlockSpec) -> float:
    """Seed-set counting bound: at most 2^{|seed|} preimages per target, each
    with weight ratio at most (1/q)^{|seed|}. Stated with the model's side
    form; max(dims) keeps it valid for unequal sides. math.inf when the
    bound overflows a float."""
    n, d = max(spec.dims), spec.d
    seed = {"fa2": n * d, "fakf": d * n ** (d - 1), "gg": 2 * spec.dims[-1]}
    try:
        return (2.0 / spec.q) ** seed[spec.model]
    except OverflowError:
        return math.inf


# ------------------------------------------------------- block probabilities

@dataclass
class BlockProbs:
    p1: ScanEstimate
    p2_value: float
    p2_mode: str                  # "exact" | "mc" | "bound"
    p2_ci: tuple | None
    condition_value: float


def block_probs_exact(spec: BlockSpec):
    """(p1, p2) by exhaustive enumeration; blocks up to 20 sites."""
    if spec.n_sites > EXACT_PROBS_CAP:
        raise ValueError(f"exact block probabilities capped at "
                         f"{EXACT_PROBS_CAP} sites")
    good, sg = _enumerate_classes(spec)
    n = spec.n_sites
    occ = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
    w = (1.0 - spec.q) ** occ * spec.q ** (n - occ)
    return float(w[good].sum()), float(w[sg].sum())


def estimate_block_probs(spec: BlockSpec, replicas: int, seed: int,
                         p2_mode: str = "auto") -> BlockProbs:
    """Monte Carlo good probability plus a labeled p2 (exact / mc / bound).

    p2 at realistic block sizes is far below Monte Carlo reach, so the
    default resolves to exact enumeration on tiny blocks and the analytic
    lower bound p1_lower * q^{|seed|} otherwise; every report carries the
    mode that produced p2. condition_value = (1 - p1) * ln(1/p2)^2 with
    natural logs.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if p2_mode not in ("auto", "exact", "mc", "bound"):
        raise ValueError(f"unknown p2 mode {p2_mode!r}")
    hits1 = hits2 = 0
    for _, bits in random_bits(spec.geometry(), spec.q, seed, replicas):
        good, supergood = _classes((bits == 0).reshape(-1, *spec.dims), spec)
        hits1 += int(good.sum())
        hits2 += int(supergood.sum())
    p1 = ScanEstimate(hits1 / replicas, wilson_ci(hits1, replicas))

    if p2_mode == "auto":
        p2_mode = "exact" if spec.n_sites <= EXACT_PROBS_CAP else "bound"
    p2_ci = None
    if p2_mode == "exact":
        _, p2 = block_probs_exact(spec)
    elif p2_mode == "mc":
        p2 = hits2 / replicas
        p2_ci = wilson_ci(hits2, replicas)
    else:
        # FKG: good and seed-empty are both decreasing in the occupancy,
        # so mu(G2) >= mu(G1) * q^{|seed|}; use the conservative CI end
        seed_size = int(_seed_mask(spec).sum())
        p1_lower = max(p1.ci[0], 1e-300)
        p2 = p1_lower * spec.q ** seed_size
    if p2 <= 0.0:
        cond = math.inf if p1.value < 1.0 else 0.0
    else:
        cond = (1.0 - p1.value) * math.log(1.0 / p2) ** 2
    return BlockProbs(p1=p1, p2_value=p2, p2_mode=p2_mode, p2_ci=p2_ci,
                      condition_value=cond)


def good_failure_bound(spec: BlockSpec) -> float:
    """Closed-form upper bound on 1 - p1 for the fa2 block: d*n*(1-q)^{n^{d-1}}."""
    if spec.model != "fa2":
        raise ValueError("closed-form failure bound implemented for fa2")
    n = spec.dims[0]
    return spec.d * n * (1.0 - spec.q) ** (n ** (spec.d - 1))


# ----------------------------------------------------------- key condition

def key_condition_value_single(epsilon: float, support_size: int) -> float:
    """Single-constraint route: sup_z sum over covering translates of eps,
    which is support_size * epsilon by translation invariance (no weights,
    no prefactor; the general formula is not tight at one constraint)."""
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    if support_size < 1:
        raise ValueError("support_size counts x itself, so it is >= 1")
    return support_size * epsilon
