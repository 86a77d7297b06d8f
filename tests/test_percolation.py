"""Rectangle ladder, cluster labels, crossing decay, series condition."""

import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from kcmkit import rng
from kcmkit.blocks import BlockSpec, estimate_block_probs
from kcmkit.lattice import Box, Configuration, Geometry
from kcmkit.percolation import (
    c_infty_surrogate,
    crossing_axis,
    estimate_crossing_failure,
    find_clusters,
    fit_decay_rate,
    has_hard_crossing,
    level_dims,
    supercritical_condition_check,
)
from oracles import fully_occupied, percolation_series_value


def bfs_labels(cfg):
    """Flood-fill oracle with the same min-index canonical labels."""
    geom = cfg.geom
    dims = geom.dims
    labels = np.full(geom.n_sites, -1, dtype=np.int64)
    empty = cfg.bits == 0
    for start in range(geom.n_sites):
        if not empty[start] or labels[start] >= 0:
            continue
        labels[start] = start
        queue = deque([start])
        while queue:
            v = queue.popleft()
            c = geom.coords(v)
            for a in range(len(dims)):
                for s in (1, -1):
                    n = list(c)
                    n[a] += s
                    if geom.torus:
                        n[a] %= dims[a]
                    elif not 0 <= n[a] < dims[a]:
                        continue
                    w = geom.flat(tuple(n))
                    if empty[w] and labels[w] < 0:
                        labels[w] = start
                        queue.append(w)
    return labels


def random_cfg(geom, p_occ, rng):
    return Configuration(geom, (rng.random(geom.n_sites) < p_occ
                                ).astype(np.uint8))


# ------------------------------------------------------------------- ladder


def test_ladder_first_level_has_two_vertices():
    assert level_dims(1) == (1, 2)


def test_ladder_parity_and_nesting():
    for n in range(1, 7):
        w, h = level_dims(n)
        assert {w, h} == {2 ** n, 2 ** (n - 1)}
        assert (h > w) == (n % 2 == 1)
        assert (w, h)[crossing_axis(n)] == 2 ** n
        if n > 1:
            pw, ph = level_dims(n - 1)
            assert w >= pw and h >= ph
    # nested levels: the top one is the bounding rectangle
    assert level_dims(6) == (64, 32)


def test_ladder_rejects_bad_level():
    with pytest.raises(ValueError, match="at least one level"):
        estimate_crossing_failure(0, 0.2, 5, 0)


# ----------------------------------------------------------------- clusters


def test_clusters_all_empty_and_checkerboard():
    g = Geometry((6, 6))
    lab = find_clusters(Configuration.fully_empty(g))
    assert set(lab.tolist()) == {0}
    bits = np.fromfunction(lambda i, j: (i + j) % 2, (6, 6))
    lab = find_clusters(Configuration(g, bits.astype(np.uint8).ravel()))
    ids = lab[lab >= 0]
    assert len(ids) == len(set(ids.tolist())) == 18


def test_clusters_match_bfs_oracle():
    rng = np.random.default_rng(9)
    # tori of width 1 and 2, where v + e and v - e are one site or v itself
    for geom in (Geometry((16, 16)), Geometry((16, 16), torus=True),
                 Geometry((8, 5, 4)), Geometry((1, 9), torus=True),
                 Geometry((2, 7), torus=True), Geometry((2, 1, 5), torus=True),
                 Geometry((2, 6))):
        for _ in range(15):
            cfg = random_cfg(geom, 0.55, rng)
            assert np.array_equal(find_clusters(cfg), bfs_labels(cfg))


def test_clusters_torus_wraps():
    g = Geometry((5, 1), torus=True)
    bits = np.array([0, 1, 1, 1, 0], dtype=np.uint8)
    lab = find_clusters(Configuration(g, bits))
    assert lab[0] == lab[4] == 0


# ---------------------------------------------------------------- crossings


def test_crossing_trivial_cases():
    g = Geometry((8, 4))
    box = Box((0, 0), (8, 4))
    assert has_hard_crossing(Configuration.fully_empty(g), box)
    assert not has_hard_crossing(fully_occupied(g), box)
    bits = np.ones(32, dtype=np.uint8)
    bits.reshape(8, 4)[:, 2] = 0
    line = Configuration(g, bits)
    assert has_hard_crossing(line, box)
    # in a box whose long axis is the other one, the line crosses nothing
    assert not has_hard_crossing(line, Box((0, 0), (3, 4)))


def test_crossing_defaults_to_long_axis():
    g = Geometry((4, 8))
    bits = np.ones(32, dtype=np.uint8)
    bits.reshape(4, 8)[1, :] = 0
    assert has_hard_crossing(Configuration(g, bits), Box((0, 0), (4, 8)))


def test_crossing_monotone_under_emptying():
    rng = np.random.default_rng(12)
    g = Geometry((10, 6))
    box = Box((1, 1), (8, 4))
    for _ in range(50):
        u = rng.random(g.n_sites)
        sparser = Configuration(g, (u < 0.55).astype(np.uint8))
        denser = Configuration(g, (u < 0.75).astype(np.uint8))
        if has_hard_crossing(denser, box):
            assert has_hard_crossing(sparser, box)


def test_crossing_rejects_out_of_bounds():
    g = Geometry((8, 4))
    with pytest.raises(ValueError, match="does not fit"):
        has_hard_crossing(Configuration.fully_empty(g), Box((4, 0), (8, 4)))


# ---------------------------------------------------------------- surrogate


def test_surrogate_trivial_cases():
    g = Geometry((9, 9))
    assert c_infty_surrogate(Configuration.fully_empty(g), (4, 4), 3)
    assert not c_infty_surrogate(fully_occupied(g), (4, 4), 3)
    bits = np.zeros(81, dtype=np.uint8).reshape(9, 9) + 1
    bits[4, 5] = 0
    one = Configuration(g, bits.ravel())
    assert not c_infty_surrogate(one, (4, 4), 3)


def test_surrogate_ignores_center_state():
    g = Geometry((9, 9))
    bits = np.ones((9, 9), dtype=np.uint8)
    bits[4, :] = 0
    bits[:, 4] = 0
    for center in (0, 1):
        bits[4, 4] = center
        assert c_infty_surrogate(Configuration(g, bits.ravel()), (4, 4), 3)


def test_surrogate_antitone_in_radius():
    rng = np.random.default_rng(3)
    g = Geometry((17, 17))
    for _ in range(40):
        cfg = random_cfg(g, 0.4, rng)
        vals = [c_infty_surrogate(cfg, (8, 8), r) for r in (2, 4, 6, 8)]
        assert all(vals[i] >= vals[i + 1] for i in range(3))


def test_surrogate_window_must_fit():
    g = Geometry((9, 9))
    with pytest.raises(ValueError, match="does not fit"):
        c_infty_surrogate(Configuration.fully_empty(g), (1, 4), 3)


# ----------------------------------------------------------------- scanning


def test_scan_first_level_matches_two_vertex_analytic():
    p = 0.2
    scan = estimate_crossing_failure(1, p, 4000, 31)
    row = scan.row(1)
    exact = 1.0 - (1.0 - p) ** 2
    lo, hi = row.estimate.ci
    assert lo <= exact <= hi


def test_scan_failure_decreasing_under_coupling():
    scan = estimate_crossing_failure(6, 0.2, 2000, 31)
    vals = [r.estimate.value for r in scan.rows]
    assert all(vals[i] > vals[i + 1] for i in range(1, 5))
    assert scan.m_hat is not None and scan.m_hat > 0


def test_scan_determinism():
    a = estimate_crossing_failure(4, 0.3, 500, 7)
    b = estimate_crossing_failure(4, 0.3, 500, 7)
    assert a.rows == b.rows
    assert a.m_hat == b.m_hat


def test_scan_tiny_p_censors_and_skips_fit():
    scan = estimate_crossing_failure(3, 1e-6, 200, 5)
    assert all(r.estimate.value == 0.0 for r in scan.rows)
    assert all(r.estimate.censored for r in scan.rows)
    assert scan.m_hat is None


def test_fit_decay_rate_recovers_exact_exponential():
    m = 0.4
    sides = [2, 4, 8, 16]
    rates = [math.exp(-m * s) for s in sides]
    assert fit_decay_rate(sides, rates, 1000) == pytest.approx(m)
    assert fit_decay_rate(sides, [0.0] * 4, 1000) is None


# ------------------------------------------------------------ the condition


def test_condition_reduces_to_sqrt_term():
    p = 1e-4
    assert supercritical_condition_check(p, 1e6) == pytest.approx(
        4.0 * math.sqrt(p))


def test_condition_agrees_with_series_evaluator():
    for p, m in ((1e-4, 1.0), (0.3, 5.0), (0.01, 2.5)):
        value = supercritical_condition_check(p, m)
        ref, tail, _ = percolation_series_value(p, m)
        assert value == pytest.approx(ref, abs=max(1e-12, 2 * tail))


def test_condition_thresholds():
    # m=1 leaves the series far above 1/4 at any p; a steep rate passes
    assert supercritical_condition_check(1e-4, 1.0) > 0.25
    assert supercritical_condition_check(0.3, 1.0) > 0.25
    assert supercritical_condition_check(1e-4, 6.0) < 0.25


def test_condition_rejects_undominated_truncation():
    with pytest.raises(ValueError, match="not yet dominated"):
        # 40 terms leave the ratio 8*exp(-m*2^39) at 4.6 for m = 1e-12
        supercritical_condition_check(0.1, 1e-12)
    with pytest.raises(ValueError):
        supercritical_condition_check(0.1, -1.0)


def test_crossing_scan_same_at_any_draw_budget(monkeypatch):
    # the level-4 bounding box has 128 sites: budgets of 1 and 300 uniforms
    # draw one and two replicas at a time
    want = estimate_crossing_failure(4, 0.3, 50, 2)
    for sites in (1, 300):
        monkeypatch.setattr(rng, "BATCH_SITES", sites)
        assert estimate_crossing_failure(4, 0.3, 50, 2) == want


def test_batched_draws_stay_within_budget():
    # drawn all at once these take 58 MiB (256x128 box, 200 replicas) and
    # 6.7 MiB (28x28 block, 1000 replicas)
    spec = BlockSpec("fa2", (28, 28), 0.3, 3.5)
    for run in (lambda: estimate_crossing_failure(8, 0.2, 200, 1),
                lambda: estimate_block_probs(spec, 1000, 1, p2_mode="mc")):
        run()  # vertex keys and kernel tables are cached on first use
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
