import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcmkit.bootstrap import (closure, closure_with_rounds,
                              estimate_lc, estimate_qc,
                              estimate_span_probability, fa1f_lc, fa1f_qc,
                              fa1f_span_probability, is_internally_spanned,
                              replica_thresholds)
from kcmkit import rng
from kcmkit.families import make_family, tables_for
from kcmkit.lattice import Configuration, Geometry, random_uniforms
from oracles import (closure_naive, from_empty_sites, fully_occupied,
                     replica_threshold_bisection, shift_flat)


# ----------------------------------------------------------------- closure

@pytest.mark.parametrize("model,kwargs", [("fa_kf", {"d": 2, "k": 2}), ("gg", {})])
@pytest.mark.parametrize("q", [0.2, 0.4])
def test_closure_matches_naive_oracle(model, kwargs, q):
    fam = make_family(model, **kwargs)
    g = Geometry((8, 8), torus=True)
    for seed in range(40):
        cfg = Configuration.random(g, q, seed=seed)
        fast = closure(cfg, fam)
        slow, _ = closure_naive(cfg, fam)
        assert np.array_equal(fast.bits, slow.bits)


def test_closure_free_boundary_matches_naive():
    fam = make_family("fa_kf", d=2, k=2)
    for g in (Geometry((6, 6)), Geometry((6, 6), outside_empty=True)):
        for seed in range(20):
            cfg = Configuration.random(g, 0.3, seed=seed)
            assert closure(cfg, fam) == closure_naive(cfg, fam)[0]


def test_closure_rounds_match_naive():
    fam = make_family("gg")
    g = Geometry((8, 8), torus=True)
    for seed in range(20):
        cfg = Configuration.random(g, 0.35, seed=seed)
        _, rounds = closure_with_rounds(cfg, fam)
        _, rounds_slow = closure_naive(cfg, fam)
        assert np.array_equal(rounds, rounds_slow)


def _loop_oracle(cfg, fam):
    """The site-by-site rescan that closure_naive vectorizes."""
    geom = cfg.geom
    bits = cfg.bits.copy()
    rounds = np.where(bits == 0, np.int32(0), np.int32(-1))
    r = 0
    while True:
        r += 1
        newly = []
        for v in range(geom.n_sites):
            if bits[v] != 1:
                continue
            for rule in fam.rules:
                ok = True
                for off in rule:
                    w = shift_flat(geom, v, off)
                    if (not geom.outside_empty) if w < 0 else bits[w] != 0:
                        ok = False
                        break
                if ok:
                    newly.append(v)
                    break
        if not newly:
            return bits, rounds
        bits[newly] = 0
        rounds[newly] = r


@pytest.mark.parametrize("model,kwargs,geom", [
    ("fa_kf", {"d": 2, "k": 2}, Geometry((6, 5), torus=True)),
    ("gg", {}, Geometry((6, 6))),
    ("east", {"d": 2}, Geometry((5, 6), outside_empty=True)),
    ("north_east", {}, Geometry((2, 3), torus=True)),
    ("fa_kf", {"d": 1, "k": 1}, Geometry((7,), outside_empty=True)),
    ("unconstrained", {"d": 2}, Geometry((3, 3))),
])
def test_naive_oracle_matches_loop_rescan(model, kwargs, geom):
    fam = make_family(model, **kwargs)
    for seed in range(10):
        cfg = Configuration.random(geom, 0.3, seed=seed)
        out, rounds = closure_naive(cfg, fam)
        bits, rounds_loop = _loop_oracle(cfg, fam)
        assert np.array_equal(out.bits, bits)
        assert np.array_equal(rounds, rounds_loop)


def test_closure_empty_rule_fills_everything():
    g = Geometry((4, 4), torus=True)
    fam = make_family("unconstrained", d=2)
    out, rounds = closure_with_rounds(fully_occupied(g), fam)
    assert out.count_empty() == 16
    assert (rounds == 1).all()


def test_closure_round_semantics():
    # east chain: empties propagate one site per round, west to east
    g = Geometry((5,))
    fam = make_family("east", d=1)
    cfg = from_empty_sites(g, [(0,)])
    out, rounds = closure_with_rounds(cfg, fam)
    assert out.count_empty() == 5
    assert rounds.tolist() == [0, 1, 2, 3, 4]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), q=st.floats(0.05, 0.6))
def test_closure_is_idempotent_and_extensive(seed, q):
    fam = make_family("fa_kf", d=2, k=2)
    g = Geometry((7, 7), torus=True)
    cfg = Configuration.random(g, q, seed=seed)
    out = closure(cfg, fam)
    assert ((cfg.bits == 0) <= (out.bits == 0)).all()
    assert closure(out, fam) == out


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_closure_monotone_in_initial_set(seed):
    fam = make_family("gg")
    g = Geometry((7, 7), torus=True)
    small = Configuration.random(g, 0.25, seed=seed)
    big = small.copy()
    big.bits[(seed >> 8) % g.n_sites] = 0
    a, b = closure(small, fam), closure(big, fam)
    assert ((a.bits == 0) <= (b.bits == 0)).all()


# ---------------------------------------------------------- infection times

def _infection_time(cfg, fam, v):
    # the closure round at which v empties (-1: never)
    return int(closure_with_rounds(cfg, fam)[1][cfg.geom.site(v)])


def test_infection_time_fa1f_distance():
    # single empty vertex at l1 distance 3 infects the origin in round 3
    fam = make_family("fa_kf", d=2, k=1)
    g = Geometry((9, 9), torus=True)
    cfg = from_empty_sites(g, [(2, 1)])
    assert _infection_time(cfg, fam, (0, 0)) == 3
    assert _infection_time(cfg, fam, (2, 1)) == 0
    assert _infection_time(cfg, fam, (3, 1)) == 1


def test_infection_time_never():
    fam = make_family("north_east")
    g = Geometry((4, 4), torus=True)
    cfg = from_empty_sites(g, [(0, 0)])
    # a single empty site is stable for the oriented two-site rule
    assert _infection_time(cfg, fam, (1, 1)) == -1


# ------------------------------------------------------- internal spanning

def test_internally_spanned_negative():
    fam = make_family("fa_kf", d=2, k=2)
    g = Geometry((4, 4), torus=True)
    cfg = from_empty_sites(g, [(0, 0)])
    assert not is_internally_spanned(cfg, fam)


# ------------------------------------------------------------- estimators

def test_span_probability_fa1f_exact_form():
    fam = make_family("fa_kf", d=1, k=1)
    q, n = 0.3, 4
    est = estimate_span_probability(n, fam, q, replicas=4000, seed=7)
    truth = fa1f_span_probability(n, 1, q)
    assert truth == pytest.approx(1 - (1 - q) ** n)
    assert est.ci[0] - 1e-12 <= truth <= est.ci[1] + 1e-12


def test_spanning_curve_monotone_in_l():
    # one seed couples the replicas across box sides, as estimate_lc's
    # doubling search reads them
    fam = make_family("fa_kf", d=2, k=1)
    vals = [estimate_span_probability(n, fam, q=0.15, replicas=1500,
                                      seed=3).value for n in (2, 4, 8)]
    assert vals == sorted(vals)


def test_fa1f_qc_closed_form():
    assert fa1f_qc(1, d=1) == pytest.approx(0.5)
    assert fa1f_qc(4, d=1) == pytest.approx(1 - 2 ** (-0.25))
    assert fa1f_qc(4, d=2) == pytest.approx(1 - 2 ** (-1 / 16))


def test_estimate_qc_brackets_analytic_fa1f():
    fam = make_family("fa_kf", d=1, k=1)
    n = 8
    est = estimate_qc(n, fam, tol=1e-3, replicas=400, seed=11)
    truth = fa1f_qc(n, d=1)
    half = est.ci[1] - est.ci[0]
    assert est.ci[0] - 0.25 * half <= truth <= est.ci[1] + 0.25 * half
    assert 0 < est.value < 1


QC_FAMILIES = ([(make_family("fa_kf", d=d, k=k), sides)
                for d, sides in ((1, (1, 6, 11)), (2, (3, 5)), (3, (3,)))
                for k in (1, 2, 3) if k <= 2 * d]
               + [(make_family("gg"), (3, 6)),
                  (make_family("east", d=1), (2, 9)),
                  (make_family("east", d=2), (3, 5)),
                  (make_family("north_east"), (4,)),
                  (make_family("unconstrained", d=2), (3,))])


@pytest.mark.parametrize("tol", [5e-4, 1e-6, 0.3, 1e-17])
@pytest.mark.parametrize("fam,sides", QC_FAMILIES,
                         ids=[f.name for f, _ in QC_FAMILIES])
def test_replica_thresholds_equal_closure_bisection(fam, sides, tol):
    # the exact thresholds replay the bisection that runs a closure at
    # every q, to the last bit
    for n in sides:
        geom = Geometry((n,) * fam.d, torus=True)
        t = tables_for(geom, fam)
        got = replica_thresholds(n, fam, tol, 12, 5)
        want = [replica_threshold_bisection(u, t, 0.0, 1.0, tol)
                for _, block in random_uniforms(geom, 5, 12) for u in block]
        assert got == want


def test_replica_thresholds_same_at_any_draw_budget(monkeypatch):
    fam = make_family("fa_kf", d=2, k=2)
    want = replica_thresholds(4, fam, 1e-3, 30, 2)
    for sites in (1, 40):
        monkeypatch.setattr(rng, "BATCH_SITES", sites)
        assert replica_thresholds(4, fam, 1e-3, 30, 2) == want


def test_estimate_qc_rejects_bad_arguments():
    fam = make_family("fa_kf", d=1, k=1)
    with pytest.raises(ValueError, match="replicas"):
        estimate_qc(4, fam, 1e-3, 0, 1)
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            estimate_qc(4, fam, tol, 10, 1)


def test_estimate_lc_matches_closed_form():
    fam = make_family("fa_kf", d=1, k=1)
    # q=0.5 sits exactly on the threshold (P=1/2 at n=1); seed 0 lands on the
    # >= side of the Monte Carlo coin flip that any seed faces there
    for q, expect in ((0.5, 1), (0.35, 2)):
        est = estimate_lc(q, fam, n_max=1 << 12, replicas=800, seed=0)
        assert est.value == expect == fa1f_lc(q, d=1)
        assert not est.censored
    fam2 = make_family("fa_kf", d=2, k=1)
    est2 = estimate_lc(0.1, fam2, n_max=1 << 12, replicas=800, seed=5)
    assert est2.value == 3 == fa1f_lc(0.1, d=2)


def test_estimate_lc_censoring():
    fam = make_family("north_east")  # a lone crossing never spans a torus at tiny q
    est = estimate_lc(1e-6, fam, n_max=8, replicas=32, seed=1)
    assert est.censored and est.value == 8


def test_fa1f_lc_definition_is_minimal():
    # frozen oracle: smallest n with 1-(1-q)^(n^d) >= 1/2
    for q in (0.5, 0.35, 0.2, 0.1, 0.05):
        n = fa1f_lc(q, d=1)
        assert fa1f_span_probability(n, 1, q) >= 0.5
        if n > 1:
            assert fa1f_span_probability(n - 1, 1, q) < 0.5


def test_span_probability_same_at_any_draw_budget(monkeypatch):
    # budgets of 1 and 100 uniforms draw one and four 5x5 replicas at a
    # time; the estimate matches the default's
    fam = make_family("fa_kf", d=2, k=2)
    want = estimate_span_probability(5, fam, 0.3, replicas=200, seed=4)
    assert 0.0 < want.value < 1.0
    for sites in (1, 100):
        monkeypatch.setattr(rng, "BATCH_SITES", sites)
        assert estimate_span_probability(5, fam, 0.3, replicas=200,
                                         seed=4) == want
