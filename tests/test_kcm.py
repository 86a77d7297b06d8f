import io
import math
import struct

import numpy as np
import pytest

from kcmkit import kernels, rng
from kcmkit._pure import EVENT
from kcmkit.families import make_family, tables_for
from kcmkit.kcm import (KcmParams, empty_fraction_time_average,
                        read_event_log, sample_persistence_time, simulate_kcm,
                        write_event_log)
from kcmkit.lattice import Configuration, Geometry
from oracles import (constraint_satisfied, from_empty_sites, fully_occupied,
                     window_empty_means_replay)


def _params(fam, q, dims, t_max, seed, **gkw):
    return KcmParams(fam, q, Geometry(dims, **gkw), t_max, seed)


def test_params_validation():
    fam = make_family("east", d=1)
    with pytest.raises(ValueError):
        KcmParams(fam, 0.0, Geometry((4,)), 1.0, 0)
    with pytest.raises(ValueError):
        KcmParams(fam, 1.0, Geometry((4,)), 1.0, 0)
    for t_max in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            KcmParams(fam, 0.5, Geometry((4,)), t_max, 0)
    with pytest.raises(ValueError):
        KcmParams(fam, 0.5, Geometry((4, 4)), 1.0, 0)


def test_all_occupied_is_frozen():
    # no constraint is ever satisfied, so no flip can occur
    p = _params(make_family("north_east"), 0.4, (5, 5), 50.0, 3, torus=True)
    cfg = fully_occupied(p.geometry)
    res = simulate_kcm(p, cfg)
    assert res.flips == 0
    assert res.final == cfg


def test_deterministic_event_logs():
    p = _params(make_family("fa_kf", d=1, k=1), 0.35, (10,), 20.0, 9, torus=True)
    cfg = from_empty_sites(p.geometry, [(0,)])
    a = simulate_kcm(p, cfg, log_events=True)
    b = simulate_kcm(p, cfg, log_events=True)
    assert a.events.tobytes() == b.events.tobytes()
    c = simulate_kcm(p, cfg, replica=1, log_events=True)
    assert not np.array_equal(a.events["t"], c.events["t"])


def test_unconstrained_tau0_exponential():
    # origin empty at start w.p. q, else Exp(q) wait: E tau0 = (1-q)/q
    q, n_rep = 0.5, 4000
    p = _params(make_family("unconstrained", d=1), q, (1,), 200.0, 17)
    samples, summary = sample_persistence_time(p, n_rep)
    assert summary.censored_fraction == 0.0
    truth = (1 - q) / q
    se = truth / math.sqrt(n_rep)  # rough scale of the sd
    assert abs(summary.mean - truth) < 4 * se


def test_tau0_zero_when_origin_starts_empty():
    p = _params(make_family("east", d=1), 0.3, (6,), 10.0, 1, torus=True)
    samples, _ = sample_persistence_time(p, 50)
    for s in samples:
        if s.tau0 == 0.0:
            assert not s.censored and s.flips_executed == 0


def test_all_censored_flagged_unusable():
    # north-east from a fully occupied deterministic start never relaxes;
    # stationary draws at tiny q are fully occupied with high probability
    p = _params(make_family("north_east"), 1e-9, (3, 3), 0.5, 23, torus=True)
    samples, summary = sample_persistence_time(p, 10)
    assert summary.censored_fraction == 1.0
    assert all(s.censored and s.tau0 == 0.5 for s in samples)


def test_censored_fraction_monotone_in_tmax():
    fam = make_family("fa_kf", d=1, k=1)
    fracs = []
    for t_max in (0.2, 1.0, 5.0, 25.0):
        p = _params(fam, 0.2, (8,), t_max, 31, torus=True)
        _, s = sample_persistence_time(p, 120)
        fracs.append(s.censored_fraction)
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))


def test_stationary_empty_fraction_fa1f():
    # reversibility: the empirical empty fraction stays near q
    q = 0.5
    p = _params(make_family("fa_kf", d=1, k=1), q, (16,), 400.0, 41, torus=True)
    mean, means, se = empty_fraction_time_average(
        p, Configuration.fully_empty(p.geometry), burn_in=40.0, windows=12)
    assert abs(mean - q) < max(3 * se, 0.05)


# (family, dims, q, t_max, start, burn_in, windows)
_WINDOW_CASES = {
    "no-burn-in": (make_family("fa_kf", d=1, k=1), (16,), 0.3, 60.0, "random",
                   0.0, 7),
    "one-window": (make_family("fa_kf", d=2, k=2), (5, 5), 0.4, 40.0, "random",
                   10.0, 1),
    "east-free-box": (make_family("east", d=1), (9,), 0.35, 25.5, "empty",
                      2.5, 6),
    # one site ringing at rate 1 under windows of width 0.25
    "quiet-windows": (make_family("unconstrained", d=1), (1,), 0.5, 20.0,
                      "random", 0.0, 80),
    # nothing is ever legal, so the log is empty
    "frozen": (make_family("north_east"), (4, 4), 0.4, 10.0, "occupied",
               1.0, 3),
}


@pytest.mark.parametrize("case", _WINDOW_CASES)
def test_window_means_match_event_replay(case):
    fam, dims, q, t_max, start, burn_in, windows = _WINDOW_CASES[case]
    p = _params(fam, q, dims, t_max, 23, torus=case != "east-free-box")
    cfg = {"random": lambda g: Configuration.random(g, q, 23, 0),
           "empty": Configuration.fully_empty,
           "occupied": fully_occupied}[start](p.geometry)
    mean, means, se = empty_fraction_time_average(p, cfg, burn_in, windows)
    events = simulate_kcm(p, cfg, log_events=True).events
    want = window_empty_means_replay(cfg, events, burn_in, t_max, windows)
    np.testing.assert_allclose(means, want, rtol=1e-12, atol=0.0)
    assert mean == float(means.mean())
    assert math.isnan(se) if windows == 1 else se >= 0.0
    per_window = np.histogram(events["t"], np.linspace(burn_in, t_max,
                                                       windows + 1))[0]
    if case in ("quiet-windows", "frozen"):
        assert (per_window == 0).any()
    if case == "frozen":
        assert events.size == 0 and not means.any()


def test_first_legal_variant_precedes_first_empty():
    fam = make_family("fa_kf", d=1, k=1)
    p = _params(fam, 0.3, (8,), 50.0, 57, torus=True)
    _, s_legal = sample_persistence_time(p, 80, variant="first_legal")
    _, s_empty = sample_persistence_time(p, 80, variant="first_empty")
    # the first legal update can only come earlier than the first emptying
    assert s_legal.mean <= s_empty.mean + 1e-12


def test_detailed_balance_on_sampled_transitions():
    # mu(w) c_x q = mu(w^x) c_x p whenever w -> w^x empties x: rate ratio
    # equals the stationary ratio because c_x ignores the state of x
    fam = make_family("fa_kf", d=1, k=1)
    geom = Geometry((6,), torus=True)
    q = 0.3
    cfg = Configuration.random(geom, 0.5, seed=2)
    for v in range(6):
        x = geom.coords(v)
        if not constraint_satisfied(cfg, fam, x):
            continue
        flipped = cfg.copy()
        flipped.bits[v] ^= 1
        assert constraint_satisfied(flipped, fam, x)
        # mu ratio for emptying x is q/p; rates are q (to empty), p (to fill)
        rate_fwd = q if cfg.bits[v] == 1 else (1 - q)
        rate_bwd = (1 - q) if cfg.bits[v] == 1 else q
        mu_ratio = (q / (1 - q)) if cfg.bits[v] == 1 else ((1 - q) / q)
        assert rate_fwd == pytest.approx(mu_ratio * rate_bwd)


def test_event_log_roundtrip(tmp_path):
    p = _params(make_family("fa_kf", d=1, k=1), 0.4, (8,), 15.0, 77, torus=True)
    cfg = Configuration.fully_empty(p.geometry)
    res = simulate_kcm(p, cfg, log_events=True)
    assert res.events.size > 0
    path = str(tmp_path / "run.events")
    write_event_log(res.events, path)
    back = read_event_log(path)
    assert back.dtype == res.events.dtype == EVENT
    assert back.tobytes() == res.events.tobytes()


def test_event_log_records_are_struct_dIB():
    # the packed record layout is the one struct "<dIB" writes
    events = np.array([(0.0, 0, 1), (0.125, 1, 0), (3.5e-300, 2**31 + 5, 1),
                       (7.25, 2**32 - 1, 0)], dtype=EVENT)
    buf = io.BytesIO()
    write_event_log(events, buf)
    assert buf.getvalue() == b"".join(
        struct.pack("<dIB", t, v, s) for t, v, s in events.tolist())


def test_event_log_rejects_truncated(tmp_path):
    path = str(tmp_path / "bad.events")
    with open(path, "wb") as fh:
        fh.write(b"\x00" * 7)
    with pytest.raises(ValueError):
        read_event_log(path)


def test_event_log_rejects_state_bytes_other_than_0_and_1(tmp_path):
    path = str(tmp_path / "bad.events")
    write_event_log(np.array([(0.5, 0, 1), (1.0, 1, 2)], dtype=EVENT), path)
    with pytest.raises(ValueError, match="other than 0 and 1"):
        read_event_log(path)


def test_events_replay_to_final_state():
    p = _params(make_family("fa_kf", d=2, k=1), 0.35, (5, 5), 12.0, 5, torus=True)
    cfg = Configuration.random(p.geometry, 0.5, seed=88)
    res = simulate_kcm(p, cfg, log_events=True)
    bits = cfg.bits.copy()
    for v, s in zip(res.events["v"], res.events["s"]):
        bits[v] = s
    assert np.array_equal(bits, res.final.bits)


def test_persistence_from_the_empty_start():
    # first_legal runs every replica from all-empty bits, as kcm_run does
    # with target 0; first_empty finds the origin empty at time 0
    p = _params(make_family("fa_kf", d=2, k=2), 0.2, (4, 4), 3.0, 6,
                torus=True)
    samples, summary = sample_persistence_time(p, 6, start="empty",
                                               variant="first_legal")
    t = tables_for(p.geometry, p.fam)
    for r, s in enumerate(samples):
        out = kernels.kcm_run(np.zeros(t.n_sites, np.uint8), t, p.seed, r,
                              p.q, p.t_max, target=0)
        hit = out["t_target_first_legal"]
        assert (s.replica, s.flips_executed) == (r, out["flips"])
        assert (s.tau0, s.censored) == ((hit, False) if hit >= 0.0
                                        else (p.t_max, True))
    assert summary.mean == np.mean([s.tau0 for s in samples])
    samples, summary = sample_persistence_time(p, 6, start="empty")
    assert [(s.tau0, s.censored, s.flips_executed) for s in samples] == [
        (0.0, False, 0)] * 6
    assert (summary.mean, summary.censored_fraction) == (0.0, 0.0)


def test_persistence_same_at_any_draw_budget(monkeypatch):
    # budgets of 1 and 40 uniforms draw one and two 4x5 starts at a time;
    # the samples and the summary match the default's
    p = _params(make_family("fa_kf", d=2, k=1), 0.3, (4, 5), 5.0, 11,
                torus=True)
    want = sample_persistence_time(p, 30)
    assert 0 < want[1].censored_fraction < 1
    assert any(s.tau0 == 0.0 for s in want[0])
    for sites in (1, 40):
        monkeypatch.setattr(rng, "BATCH_SITES", sites)
        assert sample_persistence_time(p, 30) == want
