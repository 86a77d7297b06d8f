"""Exact finite-volume generator, relaxation time, and Dirichlet forms.

Finite KCMs are reducible (the all-occupied configuration is isolated for
every nontrivial family), so the spectral objects here live on the
irreducible class containing the all-empty configuration, with the product
measure conditioned on that class. States are int64 occupancy bitmasks over
at most 24 vertices; every stage works on arrays of them, one NumPy pass per
vertex, with no Python loop over states.

Convention: D(f) = sum_x mu(c_x Var_x(f)) with no extra prefactor, which is
exactly the quadratic form <f, -Lf>_mu for the generator built here; the
code cross-checks the two on every call. (A 1/2 appears only in the
directed double-sum form sum_{w,w'} mu(w) rate(w->w') (f(w')-f(w))^2 / 2,
which double counts each unordered pair.)

The generator is kept as canonical CSR arrays built in NumPy, and its
symmetrization is built once, in NumPy, as CSR data on the same pattern. The
dense eigensolvers read it scattered into an array, the Dirichlet forms read
the generator's arrays, and scipy is imported only to wrap the symmetrization
for the sparse eigensolve (eigsh).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .families import UpdateFamily, tables_for
from .lattice import Geometry

STATE_CAP_VERTICES = 24
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

    geom: Geometry
    fam: UpdateFamily
    q: float
    states: np.ndarray          # (size,) int64 bitmasks
    mu: np.ndarray              # (size,) float64, sums to 1
    indptr: np.ndarray          # (size + 1,) int32
    indices: np.ndarray         # (nnz,) int32
    data: np.ndarray            # (nnz,) float64
    # (nnz,) int32, set by _reverse_perm on first use; a copy made with
    # dataclasses.replace starts without it
    reverse: np.ndarray | None = field(default=None, init=False, repr=False,
                                       compare=False)

    @property
    def size(self) -> int:
        return self.states.size

    def row_ids(self) -> np.ndarray:
        """(nnz,) int32 row of every stored entry."""
        return np.repeat(np.arange(self.size, dtype=np.int32),
                         np.diff(self.indptr))


def _constraint_masks(geom: Geometry, fam: UpdateFamily):
    """Per-vertex list of neighbor bitmasks, one per feasible rule.

    c_x(state) = 1 iff (state & mask) == 0 for some mask in masks[x]. Rules
    with a translate leaving a free box are dropped (occupied outside) or
    keep only their in-box members (empty outside).
    """
    t = tables_for(geom, fam)
    n = geom.n_sites
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


def build_generator(geom: Geometry, fam: UpdateFamily, q: float) -> GeneratorMatrix:
    """Assemble L on the class of the all-empty configuration (BFS over
    legal flips), with mu conditioned on the class."""
    if geom.n_sites > STATE_CAP_VERTICES:
        raise ValueError(
            f"state space cap exceeded: {geom.n_sites} > {STATE_CAP_VERTICES} vertices")
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0,1)")
    if fam.d != geom.d:
        raise ValueError("family dimension does not match geometry")
    n = geom.n_sites
    p = 1.0 - q
    masks = _constraint_masks(geom, fam)

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

    occ = np.bitwise_count(states).astype(np.int64)
    logw = occ * np.log(p) + (n - occ) * np.log(q)
    w = np.exp(logw - logw.max())
    mu = w / w.sum()

    indptr, indices, data = _canonical_csr(states, masks, q)
    gen = GeneratorMatrix(geom=geom, fam=fam, q=q, states=states, mu=mu,
                          indptr=indptr, indices=indices, data=data)
    _assert_reversible(gen)
    return gen


def _reverse_perm(gen: GeneratorMatrix) -> np.ndarray:
    """perm with data[perm[k]] = L_ji for every stored entry k = L_ij.

    A stable sort of the entries by column lists them in the row-major
    order of the transpose. With a symmetric pattern, the reverse L_ji of
    entry k then sits at position perm[k]. Raises if the pattern is not
    symmetric. Sorted once per generator and kept on gen.reverse."""
    if gen.reverse is None:
        # NumPy's stable argsort is a radix sort on 16-bit keys, several
        # times faster than its int32 sort
        key = (gen.indices.astype(np.uint16) if gen.size <= 1 << 16
               else gen.indices)
        perm = np.argsort(key, kind="stable")
        # rows[perm] == indices also makes the columns a permutation of
        # the rows
        if (gen.row_ids()[perm] != gen.indices).any():
            raise AssertionError(
                "reversibility violated: a transition has no reverse")
        gen.reverse = perm.astype(np.int32)
    return gen.reverse


def _assert_reversible(gen: GeneratorMatrix) -> None:
    """Entrywise detailed balance: mu_i L_ij == mu_j L_ji."""
    perm = _reverse_perm(gen)
    flux = gen.mu[gen.row_ids()]
    flux *= gen.data
    diff = flux[perm]
    diff -= flux
    err = float(np.abs(diff, out=diff).max()) if diff.size else 0.0
    if err > REVERSIBILITY_TOL:
        raise AssertionError(f"reversibility violated: max error {err:.3e}")


def _symmetrized(gen: GeneratorMatrix) -> np.ndarray:
    """CSR data, on the generator's own pattern, of S = D^{1/2} L D^{-1/2}
    with D = diag(mu), symmetrized as (S + S^T) / 2: symmetric, with the
    spectrum of L. Each entry is the product (root_i * L_ij) * (1/root_j)
    that diagonal scalings form, and the symmetrization one commutative sum."""
    root = np.sqrt(gen.mu)
    d = root[gen.row_ids()] * gen.data * (1.0 / root)[gen.indices]
    return (d + d[_reverse_perm(gen)]) * 0.5


def _dense_S(gen: GeneratorMatrix) -> np.ndarray:
    """_symmetrized(gen) scattered into a (size, size) array."""
    S = np.zeros((gen.size, gen.size))
    S[gen.row_ids(), gen.indices] = _symmetrized(gen)
    return S


def _top_pair(gen: GeneratorMatrix, **kwargs):
    """(c, eigsh result) for the two largest eigenvalues of S + c I, where
    the shift c puts the zero mode and the gap at the top end of the
    spectrum. The one place scipy is imported."""
    s = _symmetrized(gen)
    diag = gen.row_ids() == gen.indices  # every row stores its diagonal
    c = float(2.0 * np.abs(s[diag]).max() + 1.0)
    s[diag] += c
    # imported after the symmetrization, so the import reuses the memory
    # of its freed work arrays: about 1 MB less peak RSS on `gap fa1 3,5`
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    A = sp.csr_matrix((s, gen.indices, gen.indptr), shape=(gen.size, gen.size))
    v0 = np.full(gen.size, 1.0 / np.sqrt(gen.size))
    return c, spla.eigsh(A, k=2, which="LA", v0=v0, **kwargs)


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
        c, vals = _top_pair(gen, return_eigenvectors=False)
        vals = np.sort(vals)[::-1]  # vals[0] ~ c (zero mode), vals[1] = c - gap
        zero, gap = float(c - vals[0]), float(c - vals[1])
    if abs(zero) > 1e-8:
        raise AssertionError("zero eigenvalue not found on the class")
    return gap, gap < DEGENERATE_GAP


def relaxation_time_from_gap(gap: float, degenerate: bool) -> float:
    """T_rel = 1/gap; inf with a warning if the gap is numerically
    degenerate. Takes spectral_gap's result, so one solve gives both."""
    if degenerate:
        warnings.warn(f"numerically degenerate gap {gap:.3e}", RuntimeWarning)
        return np.inf
    return 1.0 / gap


def relaxation_time(gen: GeneratorMatrix) -> float:
    """T_rel = 1/gap; warns if the gap is numerically degenerate."""
    return relaxation_time_from_gap(*spectral_gap(gen))


def second_eigenvector(gen: GeneratorMatrix) -> np.ndarray:
    """The -L eigenvector of the gap eigenvalue, mapped back from the
    symmetrized coordinates; attains Var(f)/D(f) = T_rel."""
    if gen.size <= _DENSE_CUTOFF:
        ev, vec = np.linalg.eigh(_dense_S(gen))
        order = np.argsort(-ev)  # descending in L-eigenvalue = ascending in -L
        v = vec[:, order[1]]
    else:
        _, (_, vecs) = _top_pair(gen)
        v = vecs[:, 0]  # eigsh returns ascending; column 0 is c - gap
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
