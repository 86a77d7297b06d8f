"""Exact finite-volume generator, relaxation time, and Dirichlet forms.

Finite KCMs are reducible (the all-occupied configuration is isolated for
every nontrivial family), so the spectral objects here live on the
irreducible class containing the all-empty configuration, with the product
measure conditioned on that class. States are int64 occupancy bitmasks over
at most 24 vertices. The class and its generator come from one kernel call,
kernels.class_generator: a first-in-first-out search over legal flips that
writes each row's canonical CSR as it goes (in C, or in NumPy in
kcmkit._pure, its spec). Every later stage works on arrays, with no Python
loop over states, and checks the kernel's output independently: one pass
of kernels.symmetrized, which reads only the CSR arrays and mu, pairs every
stored entry with its reverse (failing on an asymmetric pattern) and checks
detailed balance entry by entry.

Convention: D(f) = sum_x mu(c_x Var_x(f)) with no extra prefactor, which is
exactly the quadratic form <f, -Lf>_mu for the generator built here; the
code cross-checks the two on every call. (A 1/2 appears only in the
directed double-sum form sum_{w,w'} mu(w) rate(w->w') (f(w')-f(w))^2 / 2,
which double counts each unordered pair.)

The generator is kept as those canonical CSR arrays, with nothing cached
beside them, and its symmetrization is built by that same pass, as CSR
data on the same pattern, each time an eigensolve needs it. The
dense eigensolvers read it scattered into an array, the Dirichlet forms read
the generator's arrays, and the sparse eigensolve runs ARPACK's implicitly
restarted Lanczos method (Lehoucq, Sorensen & Yang 1998, ARPACK Users'
Guide) on it through kernels.csr_operator. ARPACK comes from scipy's
compiled _arpacklib, loaded from its file: scipy itself is never imported,
and the loop below takes the steps of scipy's eigsh, so the bytes are its.
Those bytes hold at a fixed BLAS thread count: the reductions ARPACK calls
can round otherwise when OpenBLAS splits them over threads (fa1 on the free
3x5 box reads 0.10033149826936238 with two, 0.10033149826932686 with one),
and perfbench pins one thread.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from . import kernels
from ._pure import CLASS_CAP_VERTICES
from .families import UpdateFamily, tables_for
from .lattice import Geometry

STATE_CAP_VERTICES = CLASS_CAP_VERTICES
_DENSE_CUTOFF = 4096  # up to this many states the eigensolves are dense

REVERSIBILITY_TOL = 1e-12
CONSISTENCY_TOL = 1e-10
DEGENERATE_GAP = 1e-12


@dataclass
class GeneratorMatrix:
    """Generator restricted to the irreducible class of the all-empty state.

    states[i] is the occupancy bitmask of class member i (bit set = occupied),
    mu its conditioned stationary weight, and (indptr, indices, data) the
    (size x size) generator in canonical CSR form (columns ascending within
    each row) with rate(w -> w^x) = c_x(w) * (p if the flip occupies x else q).
    """

    q: float
    states: np.ndarray          # (size,) int64 bitmasks
    mu: np.ndarray              # (size,) float64, sums to 1
    indptr: np.ndarray          # (size + 1,) int32
    indices: np.ndarray         # (nnz,) int32
    data: np.ndarray            # (nnz,) float64

    @property
    def size(self) -> int:
        return self.states.size

    def row_ids(self) -> np.ndarray:
        """(nnz,) int32 row of every stored entry."""
        return np.repeat(np.arange(self.size, dtype=np.int32),
                         np.diff(self.indptr))


def build_generator(geom: Geometry, fam: UpdateFamily, q: float) -> GeneratorMatrix:
    """Assemble L on the class of the all-empty configuration (the search
    over legal flips and the CSR are kernels.class_generator), with mu
    conditioned on the class."""
    if geom.n_sites > STATE_CAP_VERTICES:
        raise ValueError(
            f"state space cap exceeded: {geom.n_sites} > {STATE_CAP_VERTICES} vertices")
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0,1)")
    if fam.d != geom.d:
        raise ValueError("family dimension does not match geometry")
    n = geom.n_sites
    p = 1.0 - q
    states, indptr, indices, data = kernels.class_generator(
        tables_for(geom, fam), q)

    occ = np.bitwise_count(states).astype(np.int64)
    logw = occ * np.log(p) + (n - occ) * np.log(q)
    w = np.exp(logw - logw.max())
    mu = w / w.sum()
    if not mu.all():   # the symmetrization divides by sqrt(mu)
        raise ValueError(f"q={q} underflows the stationary weights of the "
                         f"class to 0; q is too close to 0 or 1")

    gen = GeneratorMatrix(q=q, states=states, mu=mu,
                          indptr=indptr, indices=indices, data=data)
    _assert_reversible(gen)
    return gen


def _symmetrized(gen: GeneratorMatrix) -> np.ndarray:
    """CSR data, on the generator's own pattern, of S = D^{1/2} L D^{-1/2}
    with D = diag(mu), symmetrized as (S + S^T) / 2: symmetric, with the
    spectrum of L (kernels.symmetrized). Raises AssertionError unless L
    satisfies detailed balance, mu_i L_ij == mu_j L_ji, entry by entry
    within REVERSIBILITY_TOL; a NaN entry fails it."""
    try:
        s, err = kernels.symmetrized(gen.indptr, gen.indices, gen.data, gen.mu)
    except ValueError as e:
        raise AssertionError(f"reversibility violated: {e}") from None
    if not err <= REVERSIBILITY_TOL:
        raise AssertionError(f"reversibility violated: max error {err:.3e}")
    return s


def _assert_reversible(gen: GeneratorMatrix) -> None:
    """Entrywise detailed balance: mu_i L_ij == mu_j L_ji."""
    _symmetrized(gen)


def _dense_S(gen: GeneratorMatrix) -> np.ndarray:
    """_symmetrized(gen) scattered into a (size, size) array."""
    S = np.zeros((gen.size, gen.size))
    S[gen.row_ids(), gen.indices] = _symmetrized(gen)
    return S


@cache
def _arpacklib():
    """scipy's compiled ARPACK, loaded from its file in scipy's package
    without importing scipy: 3-4 ms, where importing scipy.sparse.linalg
    takes 0.3-0.36 s (2-core x86-64, Python 3.11, scipy 1.17.1). Raises
    ImportError naming the path it looked for."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        raise ImportError("scipy, which ships the ARPACK library, is not "
                          "installed")
    stem = (Path(spec.origin).parent / "sparse" / "linalg" / "_eigen"
            / "arpack" / "_arpacklib")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = stem.with_name(stem.name + suffix)
        if path.is_file():
            spec = importlib.util.spec_from_file_location("_arpacklib", path)
            lib = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(lib)
            return lib
    raise ImportError(f"no ARPACK library at {stem}"
                      f"{importlib.machinery.EXTENSION_SUFFIXES[0]}")


_STATE_FLOATS = ("getv0_rnorm0", "aitr_betaj", "aitr_rnorm1", "aitr_wnorm",
                 "aup2_rnorm")
_STATE_INTS = ("ido", "nconv", "np", "iter", "getv0_first", "getv0_iter",
               "getv0_itry", "getv0_orth", "aitr_iter", "aitr_j",
               "aitr_orth1", "aitr_orth2", "aitr_restart", "aitr_step3",
               "aitr_step4", "aitr_ierr", "aup2_initv", "aup2_iter",
               "aup2_getv0", "aup2_cnorm", "aup2_kplusp", "aup2_nev",
               "aup2_nev0", "aup2_np0", "aup2_numcnv", "aup2_update",
               "aup2_ushift")


def _lanczos_top(mv, n: int, k: int, v0, vectors: bool):
    """The k largest eigenvalues, ascending, of the symmetric operator
    mv(x, out) on R^n, with their eigenvectors as columns when `vectors`,
    from the start vector v0: an (n,) array, or a scalar for the vector
    with every entry v0.

    ARPACK's dsaupd/dseupd by reverse communication, with the arguments,
    state and steps of scipy's eigsh(A, k, which="LA", v0=v0): ncv =
    max(2k + 1, 20), tol 0 (machine precision), 10 n restarts at most. One
    change: a restart vector (ido 4) is drawn from a fixed-seed generator,
    not an unseeded one, so every solve is reproducible. Raises
    RuntimeError with ARPACK's code when it fails."""
    arpack = _arpacklib()
    ncv = max(2 * k + 1, 20)
    state = {**dict.fromkeys(_STATE_FLOATS, 0.0),
             **dict.fromkeys(_STATE_INTS, 0),
             "tol": 0, "which": 6, "bmat": 0, "info": 1, "maxiter": 10 * n,
             "mode": 1, "n": n, "ncv": min(ncv, n), "nev": k, "shift": 1}
    resid = np.empty(n)
    resid[:] = v0
    v = np.zeros((n, ncv))
    ipntr = np.zeros(11, dtype=np.int32)
    workd = np.zeros(3 * n)
    workl = np.zeros(state["ncv"] * (state["ncv"] + 8))
    draws = None
    while True:
        arpack.dsaupd_wrap(state, resid, v, ipntr, workd, workl)
        ido = state["ido"]
        if ido in (1, 5):                       # workd[y] = OP workd[x]
            x, y = ipntr[0], ipntr[1]
            mv(workd[x:x + n], workd[y:y + n])
        elif ido == 4:                          # a new starting vector
            if draws is None:
                draws = np.random.default_rng(0)
            resid[:] = draws.uniform(-1.0, 1.0, n)
        elif ido == 99:
            break
        else:
            raise RuntimeError(f"ARPACK dsaupd asked for ido {ido}")
    if state["info"] != 0:
        raise RuntimeError(f"ARPACK dsaupd failed with info {state['info']}")
    state["info"] = 0
    d = np.zeros(k)
    # dseupd writes z only when asked for vectors
    z = np.zeros((n, state["ncv"] if vectors else 1), order="F")
    arpack.dseupd_wrap(state, vectors, 0, np.zeros(state["ncv"], np.int32), d,
                       z, 0, resid, v, ipntr, workd, workl)
    if state["info"] != 0 or state["nconv"] < k:
        raise RuntimeError(f"ARPACK dseupd failed with info {state['info']}, "
                           f"{state['nconv']} of {k} converged")
    return (d, z[:, :k].copy()) if vectors else d


def _top_pair(gen: GeneratorMatrix, vectors: bool):
    """(c, values) or (c, (values, vectors)) for the two largest
    eigenvalues of S + c I, where the shift c puts the zero mode and the
    gap at the top end of the spectrum; values ascend."""
    # every row stores its diagonal; its positions are found before s
    # exists, so that s can reuse the memory of the search's nnz-sized
    # temporaries
    diag = np.flatnonzero(gen.row_ids() == gen.indices)
    s = _symmetrized(gen)
    c = float(2.0 * np.abs(s[diag]).max() + 1.0)
    s[diag] += c
    del diag
    mv = kernels.csr_operator(gen.indptr, gen.indices, s)
    return c, _lanczos_top(mv, gen.size, 2, 1.0 / np.sqrt(gen.size), vectors)


def spectral_gap(gen: GeneratorMatrix) -> tuple[float, bool]:
    """(gap, degenerate): the smallest nonzero eigenvalue of -L on the class
    and whether it is numerically degenerate (< 1e-12).

    Dense diagonalization up to _DENSE_CUTOFF states; Lanczos on the
    shifted symmetrized matrix above it.
    """
    if gen.size == 1:
        return 0.0, True
    if gen.size <= _DENSE_CUTOFF:
        # -L spectrum, ascending
        lam = np.sort(-np.linalg.eigvalsh(_dense_S(gen)))
        zero, gap = float(lam[0]), float(lam[1])
    else:
        c, vals = _top_pair(gen, vectors=False)
        vals = np.sort(vals)[::-1]  # vals[0] ~ c (zero mode), vals[1] = c - gap
        zero, gap = float(c - vals[0]), float(c - vals[1])
    if abs(zero) > 1e-8:
        raise AssertionError("zero eigenvalue not found on the class")
    return gap, gap < DEGENERATE_GAP


def second_eigenvector(gen: GeneratorMatrix) -> np.ndarray:
    """The -L eigenvector of the gap eigenvalue, mapped back from the
    symmetrized coordinates; attains Var(f)/D(f) = T_rel. Raises
    ValueError on a one-state class, which has no gap."""
    if gen.size == 1:
        raise ValueError("the class holds one state: no site can flip, so "
                         "it has no gap and no second eigenvector")
    if gen.size <= _DENSE_CUTOFF:
        ev, vec = np.linalg.eigh(_dense_S(gen))
        order = np.argsort(-ev)  # descending in L-eigenvalue = ascending in -L
        v = vec[:, order[1]]
    else:
        _, (_, vecs) = _top_pair(gen, vectors=True)
        v = vecs[:, 0]  # values ascend; column 0 is c - gap
    return v / np.sqrt(gen.mu)


def _dirichlet_pairs(gen: GeneratorMatrix):
    """(rows, i, j, weight): the row of every stored entry, and every legal
    pair {w, w^x} once, from the side i where x is empty, with weight
    (mu(w) + mu(w^x)) q(1-q): c_x and Var_x agree on both sides, so the pair
    adds weight * (f(w) - f(w^x))^2. The pairs are the stored off-diagonal
    entries whose flip occupies its vertex, i.e. raises the bitmask."""
    rows = gen.row_ids()
    up = gen.states[gen.indices] > gen.states[rows]
    i, j = rows[up], gen.indices[up]
    return rows, i, j, (gen.mu[i] + gen.mu[j]) * (gen.q * (1.0 - gen.q))


def _dirichlet_on_pairs(gen: GeneratorMatrix, pairs, f: np.ndarray):
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (gen.size,):
        raise ValueError("f dimension does not match the state enumeration")
    rows, i, j, weight = pairs
    diff = f[i] - f[j]
    D = float(np.sum(weight * diff * diff))
    Lf = np.bincount(rows, weights=gen.data * f[gen.indices], minlength=gen.size)
    quad = float(-gen.mu @ (f * Lf))
    if abs(D - quad) > CONSISTENCY_TOL * max(1.0, abs(D), abs(quad)):
        raise AssertionError(
            f"Dirichlet forms disagree: {D!r} vs quadratic {quad!r}")
    mean = float(gen.mu @ f)
    var = float(gen.mu @ (f - mean) ** 2)
    return D, var


def dirichlet_and_variance(gen: GeneratorMatrix, f: np.ndarray):
    """(D(f), Var(f)) with D = sum_x mu(c_x Var_x(f)).

    Var_x(f)(w) = q(1-q) (f(w with x empty) - f(w with x occupied))^2; the
    sum runs over legal x only (c_x = 0 kills the rest), and both spins at a
    legal x stay inside the class. Cross-checked against <f, -Lf>_mu.
    """
    return _dirichlet_on_pairs(gen, _dirichlet_pairs(gen), f)


def poincare_ratio(gen: GeneratorMatrix, fs) -> float:
    """max over fs of Var(f)/D(f); D=0 with Var>0 means the class extraction
    is broken and raises. The legal pairs are enumerated once for all fs;
    every f is still cross-checked against <f, -Lf>_mu."""
    pairs = _dirichlet_pairs(gen)
    best = 0.0
    for f in fs:
        D, var = _dirichlet_on_pairs(gen, pairs, f)
        if D <= 0.0:
            if var > 1e-15:
                raise AssertionError(
                    "Var(f) > 0 with D(f) = 0: nonconstant f invariant on the "
                    "class, the component extraction is wrong")
            continue
        best = max(best, var / D)
    return best
