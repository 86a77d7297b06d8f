"""Acceptance gate: the ten primary criteria, one test and one line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
PASS lines and timings; a failed assertion is that criterion's FAIL line.
"""

import math
import time

import numpy as np
import pytest

from kcmkit import blocks, bootstrap, kcm, kernels, paths, percolation, spectral
from kcmkit.families import make_family
from kcmkit.lattice import Box, Configuration, Geometry, box_region, cross_region
from kcmkit.paths import verify_legal
from oracles import (closure_naive, congestion_constant_oracle,
                     generator_csr, percolation_series_value,
                     relaxation_time_dense)

FA2 = make_family("fa_kf", 2, 2)
FA1_1D = make_family("fa_kf", 1, 1)
GG = make_family("gg")

# the stated time caps certify the compiled build; the pure-numpy fallback
# proves equality of results, not speed
_CAP = 1.0 if kernels.IMPLEMENTATION == "compiled" else 20.0


def _done(num: int, start: float, detail: str) -> None:
    print(f"\n[criterion {num:02d}] PASS - {detail} "
          f"({time.perf_counter() - start:.1f}s)")


def test_criterion_01_closure_equals_naive_oracle():
    t0 = time.perf_counter()
    geom = Geometry((8, 8), torus=True)
    rnd = np.random.default_rng(101)
    checked = 0
    for fam in (FA2, GG):
        for q in (0.2, 0.4):
            for _ in range(125):
                cfg = Configuration(geom,
                                    (rnd.random(64) >= q).astype(np.uint8))
                fast = bootstrap.closure(cfg, fam)
                ref, _rounds = closure_naive(cfg, fam)
                assert np.array_equal(fast.bits, ref.bits)
                checked += 1
    assert checked == 500
    assert time.perf_counter() - t0 < 5.0 * _CAP
    _done(1, t0, "optimized closure == fixed-point oracle on 500 grids")


def test_criterion_02_fa1f_analytics():
    t0 = time.perf_counter()
    tol = 1e-3
    for d in (1, 2):
        fam = make_family("fa_kf", d, 1)
        for n in (4, 8, 16):
            est = bootstrap.estimate_qc(n, fam, tol, 600, 21)
            exact = bootstrap.fa1f_qc(n, d)
            assert abs(est.value - exact) <= tol + est.halfwidth, (d, n)
    for d, q, reps in ((1, 0.25, 1600), (2, 0.1, 400)):
        fam = make_family("fa_kf", d, 1)
        est = bootstrap.estimate_lc(q, fam, 4096, reps, 22)
        assert int(est.value) == bootstrap.fa1f_lc(q, d), (d, q)
    assert time.perf_counter() - t0 < 30.0 * _CAP
    _done(2, t0, "estimate_qc within tol+CI of 1-2^(-1/n^d); "
          "estimate_lc == closed form")


def test_criterion_03_spectral_correctness():
    t0 = time.perf_counter()
    cases = [(Geometry((4,), torus=True), make_family("east", 1)),
             (Geometry((3,), torus=True), FA1_1D)]
    rnd = np.random.default_rng(303)
    for geom, fam in cases:
        for q in (0.3, 0.5):
            gen = spectral.build_generator(geom, fam, q)
            L = generator_csr(gen)
            flux = gen.mu[:, None] * L.toarray()
            assert np.abs(flux - flux.T).max() <= 1e-12

            gap_sparse, _ = spectral.spectral_gap(gen)
            t_dense = relaxation_time_dense(gen)
            assert abs(gap_sparse - 1.0 / t_dense) <= 1e-8

            fs = rnd.standard_normal((1000, gen.size))
            ratio = spectral.poincare_ratio(gen, fs)
            assert ratio <= t_dense + 1e-8
            v2 = spectral.second_eigenvector(gen)
            assert spectral.poincare_ratio(gen, [v2]) >= t_dense - 1e-8

            for f in fs[:50]:
                f = f / np.linalg.norm(f)
                d_sum, _var = spectral.dirichlet_and_variance(gen, f)
                d_quad = float(-(gen.mu * f) @ (L @ f))
                assert abs(d_sum - d_quad) <= 1e-10
    assert time.perf_counter() - t0 < 60.0 * _CAP
    _done(3, t0, "reversibility, sparse==dense gap, Poincare ratios, "
          "Dirichlet forms")


def test_criterion_04_kcm_exactness():
    t0 = time.perf_counter()
    unc = make_family("unconstrained", 1)
    for q in (0.2, 0.5):
        params = kcm.KcmParams(unc, q, Geometry((2,), torus=True), 150.0, 41)
        samples, summary = kcm.sample_persistence_time(params, 100_000)
        assert summary.censored_fraction == 0.0
        taus = np.fromiter((s.tau0 for s in samples), dtype=np.float64)
        se = taus.std(ddof=1) / math.sqrt(taus.size)
        assert abs(taus.mean() - (1.0 - q) / q) <= 3.0 * se, q

    ring = Geometry((16,), torus=True)
    params = kcm.KcmParams(FA1_1D, 0.4, ring, 60.0, 7)
    init = Configuration.random(ring, 0.4, 7, 0)
    logs = [kcm.simulate_kcm(params, init, replica=0, log_events=True)
            for _ in range(2)]
    for a, b in zip(logs[0].events, logs[1].events):
        assert np.array_equal(a, b)
    assert logs[0].flips == logs[1].flips

    params = kcm.KcmParams(FA1_1D, 0.3, ring, 4000.0, 11)
    mean, _means, se = kcm.empty_fraction_time_average(
        params, Configuration.random(ring, 0.3, 11, 0), 500.0, 30)
    assert abs(mean - 0.3) <= 3.0 * se
    assert time.perf_counter() - t0 < 120.0 * _CAP
    _done(4, t0, "E tau0 == (1-q)/q within 3 SE; bit-identical logs; "
          "empty fraction == q within 3 sigma")


def _random_bits(rnd, n, q=0.5):
    return (rnd.random(n) >= q).astype(np.uint8)


def test_criterion_05_path_legality_and_bounds():
    t0 = time.perf_counter()
    n_each = 10_000

    # slice mover on the 4x4 grid, column 1 -> column 2
    g = Geometry((4, 4))
    src = [g.flat((1, r)) for r in range(4)]
    tgt = [g.flat((2, r)) for r in range(4)]
    rnd = np.random.default_rng(51)
    done = 0
    while done < n_each:
        bits = _random_bits(rnd, 16)
        bits[src] = 0
        if (bits[tgt] == 1).all():
            continue
        cfg = Configuration(g, bits)
        p = paths.slice_schedule(cfg, FA2, 0, 1, +1)
        assert verify_legal(p, FA2)
        assert p.length <= 4
        expected = bits.copy()
        expected[tgt] = 0
        assert np.array_equal(p.end().bits, expected)
        done += 1

    # cross mover on the 5x5 grid, random adjacent centers
    g = Geometry((5, 5))
    box = Box((0, 0), (5, 5))
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    done = 0
    while done < n_each:
        x = (int(rnd.integers(1, 4)), int(rnd.integers(1, 4)))
        s = steps[rnd.integers(4)]
        y = (x[0] + s[0], x[1] + s[1])
        if not (0 < y[0] < 4 and 0 < y[1] < 4):
            continue
        bits = _random_bits(rnd, 25)
        bits[cross_region(g, box, x).indices] = 0
        cfg = Configuration(g, bits)
        p = paths.cross_schedule(cfg, FA2, x, y, box=box)
        assert verify_legal(p, FA2)
        assert p.length <= 2 * 2 * 5
        expected = bits.copy()
        expected[cross_region(g, box, y).indices] = 0
        assert np.array_equal(p.end().bits, expected)
        done += 1

    # gg column movers
    g = Geometry((6, 5))
    cols = {c: [g.flat((c, r)) for r in range(5)] for c in range(6)}
    done = 0
    while done < n_each:
        c = int(rnd.integers(0, 4))
        bits = _random_bits(rnd, 30)
        bits[cols[c]] = 0
        bits[cols[c + 1]] = 0
        bits[g.flat((c + 2, int(rnd.integers(5))))] = 0
        cfg = Configuration(g, bits)
        p = paths.gg_column_moves(cfg, "obs1", (c, c + 1, c + 2))
        assert verify_legal(p, GG)
        assert p.length <= 5
        expected = bits.copy()
        expected[cols[c + 2]] = 0
        assert np.array_equal(p.end().bits, expected)
        done += 1
    done = 0
    while done < n_each:
        c = int(rnd.integers(0, 3))
        bits = _random_bits(rnd, 30)
        bits[cols[c]] = 0
        bits[cols[c + 1]] = 0
        bits[g.flat((c + 2, 4))] = 0
        bits[g.flat((c + 3, 4))] = 0
        cfg = Configuration(g, bits)
        p = paths.gg_column_moves(cfg, "obs2", (c, c + 1, c + 2, c + 3))
        assert verify_legal(p, GG)
        assert p.length <= 8
        expected = bits.copy()
        for cc in (c + 2, c + 3):
            expected[cols[cc][:4]] = 0
        assert np.array_equal(p.end().bits, expected)
        done += 1

    # region chains under the 1-of-2d family (always eligible)
    fam1 = make_family("fa_kf", 2, 1)
    done = 0
    while done < n_each:
        width = int(rnd.integers(3, 7))
        g = Geometry((width, 2))
        regions = [box_region(g, Box((c, 0), (1, 2))) for c in range(width)]
        bits = _random_bits(rnd, g.n_sites)
        bits[regions[0].indices] = 0
        p = paths.chain_schedule(Configuration(g, bits), fam1, regions)
        assert verify_legal(p, fam1)
        assert p.length <= 2 * sum(r.size for r in regions)
        expected = bits.copy()
        expected[regions[-1].indices] = 0
        assert np.array_equal(p.end().bits, expected)
        done += 1

    # block promotion and single-site paths on both block models
    for model, dims, fam in (("fa2", (4, 4), FA2), ("gg", (6, 4), GG)):
        n1, n2 = dims
        cap_b = 8 * n1 * n2 if model == "fa2" else n1 * n2 * (n1 + n2)
        for rep in range(n_each // 2):
            cfg, x, y = paths.sample_path_B_instance(
                model, dims, 0.4, 61, rep, axis=(rep >> 1) & 1,
                direction=1 - 2 * (rep & 1))
            p = paths.path_B(cfg, model, x, y)
            assert verify_legal(p, fam)
            assert p.length <= cap_b
            expected = cfg.bits.copy()
            expected[paths._seed_flats(cfg.geom, model, x)] = 0
            assert np.array_equal(p.end().bits, expected)
        for rep in range(n_each // 2):
            cfg, x, z = paths.sample_path_A_instance(model, dims, 0.4, 62,
                                                     rep)
            p = paths.path_A(cfg, model, x, z)
            assert verify_legal(p, fam)
            assert p.length <= 4 * n1 * n2 + 1
            diff = p.end().bits.astype(int) - cfg.bits.astype(int)
            assert np.abs(diff).sum() == 1
            assert diff[cfg.geom.flat(z)] != 0

    assert time.perf_counter() - t0 < 300.0 * _CAP
    _done(5, t0, f"7 builders x >= {n_each} eligible inputs: all legal, "
          "endpoints exact, bounds held")


def test_criterion_06_congestion_oracle():
    t0 = time.perf_counter()
    import itertools
    g = Geometry((3, 2))
    fam1 = make_family("fa_kf", 2, 1)
    regions = [box_region(g, Box((c, 0), (1, 2))) for c in range(3)]
    family = []
    for free in itertools.product((0, 1), repeat=4):
        bits = np.zeros(6, dtype=np.uint8)
        k = 0
        for c in (1, 2):
            for r in (0, 1):
                bits[g.flat((c, r))] = free[k]
                k += 1
        family.append(paths.chain_schedule(Configuration(g, bits), fam1,
                                           regions))
    rep = paths.congestion_constant(family, 0.5)
    oracle = congestion_constant_oracle(family, 0.5)
    bound = paths.congestion_bound_triple([r.size for r in regions], 0.5)
    assert rep.rho == pytest.approx(oracle, rel=1e-12)
    assert rep.rho <= bound
    assert bound == (2.0 / 0.5) ** 6
    assert time.perf_counter() - t0 < 120.0 * _CAP
    _done(6, t0, f"exact rho {rep.rho:.1f} == enumeration oracle, "
          f"<= triple bound {bound:.0f}")


def test_criterion_07_block_event_bounds():
    t0 = time.perf_counter()
    tiny = blocks.BlockSpec("fa2", (3, 3), 0.4, 1.0)
    p1_exact, p2_exact = blocks.block_probs_exact(tiny)
    probs = blocks.estimate_block_probs(tiny, 20_000, 71, p2_mode="mc")
    assert probs.p1.ci[0] <= p1_exact <= probs.p1.ci[1]
    assert probs.p2_ci[0] <= p2_exact <= probs.p2_ci[1]

    dims = blocks.block_dims("fa2", 0.2, 3.5)
    assert not dims.degenerate
    spec = blocks.BlockSpec("fa2", dims.dims, 0.2, 3.5)
    est = blocks.estimate_block_probs(spec, 20_000, 72)
    bound = blocks.good_failure_bound(spec)
    assert 1.0 - est.p1.value <= bound + 3.0 * est.p1.halfwidth

    s22 = blocks.BlockSpec("fa2", (2, 2), 0.5, 1.0)
    lam_exact, mode = blocks.lambda_phi(s22, "exact")
    lam_bound, _ = blocks.lambda_phi(s22, "bound")
    assert mode == "exact" and lam_exact <= lam_bound
    assert time.perf_counter() - t0 < 120.0 * _CAP
    _done(7, t0, "MC block probabilities bracket exact enumeration; "
          "failure and promotion bounds hold")


def test_criterion_08_key_condition_evaluation():
    t0 = time.perf_counter()
    eps, support = 0.01, 7
    assert blocks.key_condition_value_single(eps, support) == \
        pytest.approx(support * eps, rel=1e-15)

    hi, tail_hi, _ = percolation_series_value(0.3, 1.0)
    assert tail_hi < 1e-12
    assert hi > 0.25

    lo, tail_lo, _ = percolation_series_value(1e-4, 1.0)
    assert tail_lo < 1e-12
    assert lo == pytest.approx(
        percolation.supercritical_condition_check(1e-4, 1.0), abs=1e-9)
    assert time.perf_counter() - t0 < 1.0 * _CAP
    # the remaining clause asks for < 1/4 at decay rate 1; the series'
    # first term alone is 3*8*exp(-1) = 8.83, so the direct evaluation
    # cannot meet it (it needs a rate of about 4.8 or more)
    assert lo < 0.25, (
        f"series value at p=1e-4 with decay rate 1 evaluates to {lo:.2f}, "
        f"not < 0.25; the stated clause is unattainable as written")
    _done(8, t0, "k=1 specialization s*eps; series thresholds; tails "
          "certified < 1e-12")


def test_criterion_09_crossing_decay():
    t0 = time.perf_counter()
    p = 0.2
    scan1 = percolation.estimate_crossing_failure(1, p, 4000, 31)
    exact = 1.0 - (1.0 - p) ** 2
    lo, hi = scan1.row(1).estimate.ci
    assert lo <= exact <= hi

    scan = percolation.estimate_crossing_failure(6, p, 2000, 31)
    vals = [r.estimate.value for r in scan.rows]
    assert all(vals[i] > vals[i + 1] for i in range(1, 5))
    assert scan.m_hat is not None and scan.m_hat > 0.0

    rnd = np.random.default_rng(93)
    geom = Geometry((64, 64))
    from test_percolation import bfs_labels
    for _ in range(200):
        cfg = Configuration(geom, (rnd.random(4096) < 0.5).astype(np.uint8))
        assert np.array_equal(percolation.find_clusters(cfg),
                              bfs_labels(cfg))
    assert time.perf_counter() - t0 < 120.0 * _CAP
    _done(9, t0, f"R1 failure CI covers {exact}; strict decay n=2..6; "
          f"m_hat={scan.m_hat:.2f}>0; 200 cluster grids == BFS")


def test_criterion_10_scaling_sanity():
    t0 = time.perf_counter()
    lc_lo = bootstrap.estimate_lc(0.10, FA2, 4096, 60, 91)
    lc_hi = bootstrap.estimate_lc(0.15, FA2, 4096, 60, 91)
    assert not lc_lo.censored and not lc_hi.censored
    a = math.log(lc_lo.value) * 0.10
    b = math.log(lc_hi.value) * 0.15
    assert 0.5 <= a / b <= 2.0, (lc_lo.value, lc_hi.value)

    geom = Geometry((8, 8), torus=True)
    means = []
    for q in (0.25, 0.35, 0.45):
        params = kcm.KcmParams(FA2, q, geom, 600.0, 93)
        _samples, summary = kcm.sample_persistence_time(params, 300)
        means.append(summary.mean)
    assert means[0] > means[1] > means[2], means
    assert time.perf_counter() - t0 < 1800.0 * _CAP
    _done(10, t0, f"log Lc * q ratio {a / b:.2f} in [1/2, 2]; "
          "mean tau0 decreasing in q")
