"""Test-only oracles: independent reference computations that the test
modules check the library against. Nothing in src/ calls them."""

import numpy as np
import scipy.sparse as sp

from kcmkit import kernels
from kcmkit.spectral import (DEGENERATE_GAP, GeneratorMatrix,
                             relaxation_time_from_gap)

DENSE_ORACLE_CAP = 1 << 14


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
        if spans_at(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
