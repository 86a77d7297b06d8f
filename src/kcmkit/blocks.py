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
from typing import NamedTuple

import numpy as np

from . import kernels
from .families import make_family, tables_for
from .lattice import (Configuration, Geometry, _cached_geometry, as_ints,
                      random_bits)
from .stats import ScanEstimate, wilson_ci

EXACT_LAMBDA_CAP = 16
EXACT_PROBS_CAP = 20

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
        object.__setattr__(self, "dims", as_ints(self.dims, "dims"))
        if any(n < 1 for n in self.dims):
            raise ValueError("dims must be positive")
        if self.model == "gg" and len(self.dims) != 2:
            raise ValueError("gg blocks are two-dimensional")
        if self.model == "fa2" and len(self.dims) < 2:
            raise ValueError("fa2 blocks need d >= 2")
        if self.model == "fakf" and self.k < 3:
            raise ValueError("fakf block spec is for k >= 3 (use fa2 for k=2)")

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def n_sites(self) -> int:
        return int(np.prod(self.dims))

    def geometry(self) -> Geometry:
        return _cached_geometry(self.dims)


class BlockDims(NamedTuple):
    dims: tuple
    degenerate: bool      # some side < 2: q too large for the scaling regime
    small_A: bool         # A at or below the model's stated threshold


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
    if A <= 0.0:
        raise ValueError("A must be positive")
    logq = math.log(1.0 / q)
    if model == "fa2":
        if d < 2:
            raise ValueError("fa2 needs d >= 2")
        n = math.floor((A / q * logq) ** (1.0 / (d - 1)))
        dims = (n,) * d
        small = A <= 3.0 / (d - 1)
    elif model == "gg":
        dims = (math.floor(A * logq / q ** 2), math.floor(A * logq / q))
        small = A <= 6.0
    elif model == "fakf":
        if ell is None:
            raise ValueError("fakf block sizing needs the measured critical "
                             "length ell of the reduced model")
        if ell < 2:
            raise ValueError("ell must be at least 2")
        n = math.floor(A * ell * math.log(ell))
        dims = (n,) * d
        small = A <= 2 * (d - 1) + 1
    else:
        raise ValueError(f"unknown block model {model!r}")
    return BlockDims(dims, any(n < 2 for n in dims), small)


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
    fam = make_family("fa_kf", d=d - 1, k=spec.k - 1)
    ok = np.ones(empty.shape[0], dtype=bool)
    for axis in range(d):
        g = Geometry(tuple(n for a, n in enumerate(spec.dims) if a != axis))
        t = tables_for(g, fam)
        for j in range(spec.dims[axis]):
            sl = np.take(empty, j, axis=axis + 1).reshape(-1, g.n_sites)
            out, _ = kernels.closure((~sl).astype(np.uint8), t)
            ok &= ~out.any(axis=1)
    return ok


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


def _supergood_batch(empty: np.ndarray, spec: BlockSpec,
                     good: np.ndarray | None = None) -> np.ndarray:
    if good is None:
        good = _good_batch(empty, spec)
    seed = _seed_mask(spec)
    seeded = empty[:, seed].all(axis=1)
    return good & seeded


def classify_block(cfg: Configuration, spec: BlockSpec) -> str:
    """'neither', 'good', or 'supergood' per the block model's events."""
    empty = _empty_grid(cfg, spec)[None]
    good = _good_batch(empty, spec)
    if not good[0]:
        return CLASS_NEITHER
    if _supergood_batch(empty, spec, good)[0]:
        return CLASS_SUPERGOOD
    return CLASS_GOOD


def phi_map(cfg: Configuration, spec: BlockSpec) -> Configuration:
    """Promotion: empty the seed set, leave everything else untouched.

    Requires a good input; the output is always super-good, and the map is
    idempotent (it only writes zeros on the fixed seed set).
    """
    cls = classify_block(cfg, spec)
    if cls == CLASS_NEITHER:
        raise ValueError("promotion needs a good block")
    out = cfg.bits.copy().reshape(spec.dims)
    out[_seed_mask(spec)] = 0
    return Configuration(cfg.geom, out.reshape(-1))


# ------------------------------------------------------- promotion constant

def _enumerate_classes(spec: BlockSpec):
    """(good_mask, supergood_mask) over all 2^N occupancy bitmasks.

    Bit v of a state is the occupancy of flat site v.
    """
    n = spec.n_sites
    states = np.arange(1 << n, dtype=np.uint64)
    bits = ((states[:, None] >> np.arange(n, dtype=np.uint64)[None, :])
            & np.uint64(1)).astype(np.uint8)
    empty = (bits == 0).reshape(-1, *spec.dims)
    good = _good_batch(empty, spec)
    sg = _supergood_batch(empty, spec, good)
    return good, sg


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
    seed_flat = np.flatnonzero(_seed_mask(spec).reshape(-1))
    zmask = 0
    for v in seed_flat:
        zmask |= 1 << int(v)
    ratio = (1.0 - spec.q) / spec.q
    sums: dict[int, float] = {}
    for state in np.flatnonzero(good):
        state = int(state)
        image = state & ~zmask
        extra = bin(state & zmask).count("1")
        sums[image] = sums.get(image, 0.0) + ratio ** extra
    sg_states = set(int(s) for s in np.flatnonzero(sg))
    assert set(sums) <= sg_states, "promotion image left the super-good event"
    return max(sums.values()), "exact"


def _lambda_phi_bound(spec: BlockSpec) -> float:
    """Seed-set counting bound: at most 2^{|seed|} preimages per target, each
    with weight ratio at most (1/q)^{|seed|}. Stated with the model's side
    form; max(dims) keeps it valid for unequal sides."""
    q = spec.q
    n = max(spec.dims)
    if spec.model == "fa2":
        return (2.0 / q) ** (n * spec.d)
    if spec.model == "fakf":
        return (2.0 / q) ** (spec.d * n ** (spec.d - 1))
    return (2.0 / q) ** (2 * spec.dims[1])


# ------------------------------------------------------- block probabilities

@dataclass
class BlockProbs:
    p1: ScanEstimate
    p2_value: float
    p2_mode: str                  # "exact" | "mc" | "bound"
    p2_ci: tuple | None
    condition_value: float
    p1_zero: bool


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
        empty = (bits == 0).reshape(-1, *spec.dims)
        good = _good_batch(empty, spec)
        hits1 += int(good.sum())
        hits2 += int(_supergood_batch(empty, spec, good).sum())
    p1 = ScanEstimate(hits1 / replicas, wilson_ci(hits1, replicas),
                      replicas, seed)

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
    p1_zero = hits1 == 0
    if p2 <= 0.0:
        cond = math.inf if p1.value < 1.0 else 0.0
    else:
        cond = (1.0 - p1.value) * math.log(1.0 / p2) ** 2
    return BlockProbs(p1=p1, p2_value=p2, p2_mode=p2_mode, p2_ci=p2_ci,
                      condition_value=cond, p1_zero=p1_zero)


def good_failure_bound(spec: BlockSpec) -> float:
    """Closed-form upper bound on 1 - p1 for the fa2 block: d*n*(1-q)^{n^{d-1}}."""
    if spec.model != "fa2":
        raise ValueError("closed-form failure bound implemented for fa2")
    n = spec.dims[0]
    return spec.d * n * (1.0 - spec.q) ** (n ** (spec.d - 1))


# ----------------------------------------------------------- key condition

def key_condition_value(weights: dict, failures: dict, overlaps: dict) -> float:
    """General multi-constraint value 2 (sum_I w_I) * sum_I e_I o_I / w_I.

    weights[I] > 0 is the weight of constraint subset I, failures[I] its
    failure probability, overlaps[I] the number of translates whose support
    (plus the center) covers a fixed site; translation invariance turns the
    sup over sites into this finite sum. The caller compares to 1/4.
    """
    keys = set(weights)
    if keys != set(failures) or keys != set(overlaps):
        raise ValueError("weights, failures, overlaps must share keys")
    if not keys:
        return 0.0
    total = 0.0
    wsum = 0.0
    for key in keys:
        w = float(weights[key])
        if w <= 0.0:
            raise ValueError("weights must be positive")
        eps = float(failures[key])
        if eps < 0.0:
            raise ValueError("failure probabilities must be nonnegative")
        ov = float(overlaps[key])
        if ov < 0.0:
            raise ValueError("overlap counts must be nonnegative")
        wsum += w
        total += eps * ov / w
    return 2.0 * wsum * total


def key_condition_value_single(epsilon: float, support_size: int) -> float:
    """Single-constraint route: sup_z sum over covering translates of eps,
    which is support_size * epsilon by translation invariance (no weights,
    no prefactor; the general formula is not tight at one constraint)."""
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    if support_size < 1:
        raise ValueError("support_size counts x itself, so it is >= 1")
    return support_size * epsilon
