"""Test-only oracles: independent reference computations that the test
modules check the library against. Nothing in src/ calls them."""

import numpy as np

from kcmkit.spectral import (DEGENERATE_GAP, DENSE_ORACLE_CAP,
                             GeneratorMatrix, relaxation_time_from_gap)


def relaxation_time_dense(gen: GeneratorMatrix) -> float:
    """Independent dense oracle: full eigh of the symmetrized generator,
    built from the scipy matrix gen.L rather than the library's dense path."""
    if gen.size > DENSE_ORACLE_CAP:
        raise ValueError(f"dense oracle capped at {DENSE_ORACLE_CAP} states")
    root = np.sqrt(gen.mu)
    dense = gen.L.toarray() * root[:, None] / root[None, :]
    dense = 0.5 * (dense + dense.T)
    lam = np.sort(-np.linalg.eigvalsh(dense))
    if abs(lam[0]) > 1e-8:
        raise AssertionError("zero eigenvalue not found on the class")
    gap = float(lam[1])
    return relaxation_time_from_gap(gap, gap < DEGENERATE_GAP)
