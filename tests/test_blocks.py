"""Block events: sizing, classification, promotion, constants."""

import math

import numpy as np
import pytest

from kcmkit.blocks import (
    BlockSpec,
    block_dims,
    block_probs_exact,
    classify_block,
    estimate_block_probs,
    good_failure_bound,
    key_condition_value,
    key_condition_value_single,
    lambda_phi,
    phi_map,
    _good_batch,
    _seed_mask,
    _supergood_batch,
)
from kcmkit import rng
from kcmkit.bootstrap import is_internally_spanned
from kcmkit.families import make_family
from kcmkit.lattice import Configuration, Geometry, random_bits
from oracles import lambda_phi_oracle, percolation_series_value


def block(spec, bits):
    return Configuration(spec.geometry(), np.asarray(bits, dtype=np.uint8))


def full(spec, value):
    return block(spec, np.full(spec.n_sites, value))


def empty_sites(spec, replicas, seed):
    """(replicas, *dims) empty-site indicators of replicas 0..replicas-1."""
    bits = np.concatenate([b for _, b in random_bits(spec.geometry(), spec.q,
                                                     seed, replicas)])
    return (bits == 0).reshape(-1, *spec.dims)


# ------------------------------------------------------------------- sizing

def test_block_dims_fa2_example():
    out = block_dims("fa2", q=0.1, A=3.5, d=2)
    assert out.dims == (80, 80)
    assert not out.degenerate
    assert not out.small_A


def test_block_dims_gg_example():
    out = block_dims("gg", q=0.25, A=7.0)
    assert out.dims == (math.floor(7 * math.log(4) / 0.0625),
                        math.floor(7 * math.log(4) / 0.25))
    assert out.dims == (155, 38)
    assert not out.small_A


def test_block_dims_degenerate_near_one():
    assert block_dims("fa2", q=0.97, A=3.5, d=2).degenerate
    assert block_dims("gg", q=0.9, A=7.0).degenerate


def test_block_dims_small_a_flag():
    assert block_dims("gg", q=0.2, A=5.0).small_A
    assert block_dims("fa2", q=0.2, A=2.9, d=2).small_A


def test_block_dims_fakf_needs_ell():
    with pytest.raises(ValueError):
        block_dims("fakf", q=0.2, A=6.0, d=3)
    out = block_dims("fakf", q=0.2, A=6.0, d=3, ell=10)
    assert out.dims == (math.floor(60 * math.log(10)),) * 3


def test_block_spec_validation():
    with pytest.raises(ValueError):
        BlockSpec("gg", (4, 3, 2), 0.3, 7.0)
    with pytest.raises(ValueError):
        BlockSpec("fa2", (5,), 0.3, 3.5)
    with pytest.raises(ValueError):
        BlockSpec("fakf", (3, 3), 0.3, 7.0, k=2)
    with pytest.raises(ValueError):
        BlockSpec("fa2", (3, 3), 0.0, 3.5)


# ----------------------------------------------------------- classification

SPECS = [
    BlockSpec("fa2", (4, 4), 0.35, 3.5),
    BlockSpec("gg", (4, 3), 0.35, 7.0),
    BlockSpec("fakf", (3, 3, 3), 0.35, 7.0, k=3),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.model)
def test_all_empty_supergood(spec):
    assert classify_block(full(spec, 0), spec) == "supergood"


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.model)
def test_all_occupied_neither(spec):
    assert classify_block(full(spec, 1), spec) == "neither"


def test_gg_good_not_supergood():
    spec = BlockSpec("gg", (4, 3), 0.35, 7.0)
    grid = np.ones((4, 3), dtype=np.uint8)
    # every column gets an empty, every row an adjacent empty pair along x1,
    # but column 0 keeps occupied sites
    grid[0, 0] = grid[1, 0] = 0
    grid[2, 1] = grid[3, 1] = 0
    grid[2, 2] = grid[3, 2] = 0
    assert classify_block(block(spec, grid.reshape(-1)), spec) == "good"
    grid[0:2, :] = 0
    assert classify_block(block(spec, grid.reshape(-1)), spec) == "supergood"


def test_fa2_good_not_supergood():
    spec = BlockSpec("fa2", (3, 3), 0.35, 3.5)
    grid = np.ones((3, 3), dtype=np.uint8)
    for i in range(3):
        grid[i, i] = 0
    assert classify_block(block(spec, grid.reshape(-1)), spec) == "good"


def test_fakf_center_occupied_supergood():
    spec = BlockSpec("fakf", (3, 3, 3), 0.35, 7.0, k=3)
    grid = np.zeros((3, 3, 3), dtype=np.uint8)
    grid[1, 1, 1] = 1
    assert classify_block(block(spec, grid.reshape(-1)), spec) == "supergood"


def test_fakf_occupied_slice_neither():
    spec = BlockSpec("fakf", (3, 3, 3), 0.35, 7.0, k=3)
    grid = np.zeros((3, 3, 3), dtype=np.uint8)
    grid[1, :, :] = 1
    assert classify_block(block(spec, grid.reshape(-1)), spec) == "neither"


def test_fa2_matches_slice_spanning_route():
    # the fa2 fast path must agree with the generic reduced-model route:
    # a 1d slice is 1-neighbour-spanned iff it contains an empty site
    spec = BlockSpec("fa2", (3, 3), 0.4, 3.5)
    fam1 = make_family("fa_kf", d=1, k=1)
    g1 = Geometry((3,))
    empties = empty_sites(spec, 60, seed=5)
    for r in range(60):
        empty = empties[r]
        want_good = True
        for axis in range(2):
            for j in range(3):
                sl = np.take(empty, j, axis=axis)
                cfg = Configuration(g1, (~sl).astype(np.uint8))
                if not is_internally_spanned(cfg, fam1):
                    want_good = False
        got = _good_batch(empty[None], spec)[0]
        assert got == want_good


@pytest.mark.parametrize("spec", [
    BlockSpec("fakf", (3, 3, 3), 0.75, 7.0, k=3),
    BlockSpec("fakf", (4, 3, 5), 0.8, 7.0, k=3),
    BlockSpec("fakf", (3, 4, 3, 2), 0.85, 9.0, k=4),
], ids=lambda s: "x".join(map(str, s.dims)))
def test_fakf_good_batch_equals_per_replica_slices(spec):
    # one closure call per slice position over all replicas decides what
    # the per-replica loop over every slice decides
    fam = make_family("fa_kf", d=spec.d - 1, k=spec.k - 1)
    empties = empty_sites(spec, 80, seed=23)
    want = []
    for empty in empties:
        good = True
        for axis in range(spec.d):
            g = Geometry(tuple(n for a, n in enumerate(spec.dims) if a != axis))
            for j in range(spec.dims[axis]):
                sl = np.take(empty, j, axis=axis).reshape(-1)
                good &= is_internally_spanned(
                    Configuration(g, (~sl).astype(np.uint8)), fam)
        want.append(good)
    got = _good_batch(empties, spec)
    assert got.dtype == bool and got.tolist() == want
    assert 0 < sum(want) < len(want)
    assert _good_batch(empties[:0], spec).shape == (0,)


@pytest.mark.parametrize("spec,replicas", [
    (BlockSpec("fa2", (4, 4), 0.35, 3.5), 10_000),
    (BlockSpec("gg", (5, 3), 0.4, 7.0), 10_000),
    (BlockSpec("fakf", (2, 2, 2), 0.5, 7.0, k=3), 500),
], ids=lambda v: v.model if isinstance(v, BlockSpec) else str(v))
def test_supergood_implies_good_random(spec, replicas):
    empty = empty_sites(spec, replicas, seed=17)
    good = _good_batch(empty, spec)
    sg = _supergood_batch(empty, spec)
    assert not np.any(sg & ~good)


# -------------------------------------------------------------- promotion

@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.model)
def test_phi_requires_good(spec):
    with pytest.raises(ValueError):
        phi_map(full(spec, 1), spec)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.model)
def test_phi_promotes_and_is_idempotent(spec):
    rng_np = np.random.default_rng(2)
    seed_mask = _seed_mask(spec).reshape(-1)
    done = 0
    while done < 25:
        bits = (rng_np.random(spec.n_sites) > spec.q).astype(np.uint8)
        cfg = Configuration(spec.geometry(), bits)
        if classify_block(cfg, spec) == "neither":
            continue
        done += 1
        out = phi_map(cfg, spec)
        assert classify_block(out, spec) == "supergood"
        # touched only the seed set
        assert np.array_equal(out.bits[~seed_mask], cfg.bits[~seed_mask])
        assert not out.bits[seed_mask].any()
        again = phi_map(out, spec)
        assert again == out


def test_phi_identity_on_supergood():
    spec = BlockSpec("fa2", (4, 4), 0.35, 3.5)
    cfg = full(spec, 0)
    assert phi_map(cfg, spec) == cfg


def test_phi_weight_ratio():
    spec = BlockSpec("gg", (4, 3), 0.4, 7.0)
    grid = np.ones((4, 3), dtype=np.uint8)
    grid[0, 0] = grid[1, 0] = 0
    grid[2, 1] = grid[3, 1] = 0
    grid[2, 2] = grid[3, 2] = 0
    cfg = block(spec, grid.reshape(-1))
    out = phi_map(cfg, spec)
    flipped = int((cfg.bits != out.bits).sum())
    assert flipped == 4

    q, p = spec.q, 1 - spec.q

    def weight(bits):
        occ = int(bits.sum())
        return p ** occ * q ** (bits.size - occ)

    ratio = weight(out.bits) / weight(cfg.bits)
    assert ratio == pytest.approx((q / p) ** flipped, rel=1e-12)


# ------------------------------------------------------- promotion constant

def test_lambda_phi_identity_case():
    # gg on a 2x1 block: good already forces both sites empty, so the good
    # and super-good events coincide and promotion is the identity
    spec = BlockSpec("gg", (2, 1), 0.3, 7.0)
    value, mode = lambda_phi(spec)
    assert mode == "exact"
    assert value == pytest.approx(1.0)


@pytest.mark.parametrize("spec", [
    BlockSpec("fa2", (2, 2), 0.5, 3.5),
    BlockSpec("fa2", (2, 2), 0.3, 3.5),
    BlockSpec("gg", (2, 2), 0.3, 7.0),
    BlockSpec("gg", (3, 2), 0.45, 7.0),
], ids=["fa2-half", "fa2-low", "gg-22", "gg-32"])
def test_lambda_phi_exact_matches_oracle(spec):
    value, mode = lambda_phi(spec, mode="exact")
    assert mode == "exact"
    assert value == pytest.approx(lambda_phi_oracle(spec), rel=1e-12)


def test_lambda_phi_exact_below_bound():
    for spec in (BlockSpec("fa2", (2, 2), 0.3, 3.5),
                 BlockSpec("gg", (2, 2), 0.3, 7.0)):
        exact, _ = lambda_phi(spec, mode="exact")
        bound, mode = lambda_phi(spec, mode="bound")
        assert mode == "bound"
        assert 1.0 <= exact <= bound


def test_lambda_phi_fakf_bound_form():
    spec = BlockSpec("fakf", (10, 10, 10), 0.2, 7.0, k=3)
    value, mode = lambda_phi(spec)
    assert mode == "bound"
    assert value == pytest.approx((2.0 / 0.2) ** (3 * 10 ** 2))


def test_lambda_phi_exact_cap():
    spec = BlockSpec("fa2", (5, 4), 0.3, 3.5)
    with pytest.raises(ValueError):
        lambda_phi(spec, mode="exact")


# ------------------------------------------------------ block probabilities

def test_block_probs_trivial_q_one():
    spec = BlockSpec("fa2", (3, 3), 1.0, 3.5)
    out = estimate_block_probs(spec, replicas=64, seed=0)
    assert out.p1.value == 1.0
    assert out.p2_value == 1.0
    assert out.p2_mode == "exact"
    assert out.condition_value == 0.0
    assert not out.p1_zero


def test_block_probs_match_exhaustive():
    spec = BlockSpec("fa2", (3, 3), 0.4, 3.5)
    p1_exact, p2_exact = block_probs_exact(spec)
    assert 0.0 < p2_exact < p1_exact < 1.0
    out = estimate_block_probs(spec, replicas=4000, seed=3)
    assert out.p1.ci[0] <= p1_exact <= out.p1.ci[1]
    assert out.p2_mode == "exact"
    assert out.p2_value == pytest.approx(p2_exact)


def test_block_probs_same_at_any_draw_budget(monkeypatch):
    # budgets of 1 and 100 uniforms draw one and eleven 3x3 replicas at a
    # time; the counts, and so the estimates, match the default's
    spec = BlockSpec("fa2", (3, 3), 0.4, 3.5)
    want = estimate_block_probs(spec, replicas=500, seed=3, p2_mode="mc")
    for sites in (1, 100):
        monkeypatch.setattr(rng, "BATCH_SITES", sites)
        assert estimate_block_probs(spec, replicas=500, seed=3,
                                    p2_mode="mc") == want


def test_block_probs_mc_mode_p2_below_p1():
    spec = BlockSpec("fa2", (3, 3), 0.5, 3.5)
    out = estimate_block_probs(spec, replicas=2000, seed=9, p2_mode="mc")
    assert out.p2_mode == "mc"
    assert out.p2_ci is not None
    assert out.p2_value <= out.p1.value


def test_block_probs_paper_dims_failure_bound():
    q = 0.2
    dims = block_dims("fa2", q=q, A=3.5, d=2).dims
    spec = BlockSpec("fa2", dims, q, 3.5)
    out = estimate_block_probs(spec, replicas=1500, seed=4)
    bound = good_failure_bound(spec)
    halfwidth = (out.p1.ci[1] - out.p1.ci[0]) / 2
    assert 1.0 - out.p1.value <= bound + 3 * halfwidth
    assert out.p2_mode == "bound"
    assert 0.0 < out.p2_value <= out.p1.ci[0]
    assert out.condition_value > 0.0


def test_block_probs_p1_zero_flag():
    spec = BlockSpec("fa2", (30, 30), 0.01, 3.5)
    out = estimate_block_probs(spec, replicas=50, seed=1)
    assert out.p1_zero
    assert out.p1.value == 0.0
    # the bound route underflows to p2 = 0; condition blows up, as it should
    assert out.condition_value == math.inf


# ----------------------------------------------------------- key condition

def test_key_condition_all_zero_failures():
    weights = {"a": 0.5, "b": 0.25}
    assert key_condition_value(weights, {"a": 0.0, "b": 0.0},
                               {"a": 3, "b": 7}) == 0.0


def test_key_condition_hand_value():
    value = key_condition_value(
        weights={"a": 0.5, "b": 0.25},
        failures={"a": 0.01, "b": 0.02},
        overlaps={"a": 3, "b": 7})
    assert value == pytest.approx(2 * 0.75 * (0.01 * 3 / 0.5 + 0.02 * 7 / 0.25))


def test_key_condition_validation():
    with pytest.raises(ValueError):
        key_condition_value({"a": 0.5}, {"b": 0.1}, {"a": 1})
    with pytest.raises(ValueError):
        key_condition_value({"a": 0.0}, {"a": 0.1}, {"a": 1})
    with pytest.raises(ValueError):
        key_condition_value({"a": 1.0}, {"a": -0.1}, {"a": 1})


def test_key_condition_single_constraint():
    assert key_condition_value_single(0.01, 5) == pytest.approx(0.05)
    assert key_condition_value_single(0.0, 3) == 0.0
    with pytest.raises(ValueError):
        key_condition_value_single(0.1, 0)


def test_series_matches_direct_sum():
    p, m = 1e-4, 1.0
    value, tail, terms = percolation_series_value(p, m)
    direct = 4 * math.sqrt(p) + sum(
        3 * 8.0 ** n * math.exp(-0.5 * m * 2.0 ** n) for n in range(1, 60))
    assert value == pytest.approx(direct, rel=1e-9)
    assert tail < 1e-12
    assert terms < 20


def test_series_supercritical_regimes():
    # shallow decay: the weighted series blows past 1/4 even at tiny p
    value, _, _ = percolation_series_value(1e-4, 1.0)
    assert value > 0.25
    # the sqrt(p) term alone disqualifies p = 0.3
    value, _, _ = percolation_series_value(0.3, 8.0)
    assert value > 4 * math.sqrt(0.3) > 0.25
    # strong decay and tiny p: the condition is met honestly
    value, tail, _ = percolation_series_value(1e-4, 30.0)
    assert value < 0.25
    assert tail < 1e-12


def test_series_validation():
    with pytest.raises(ValueError):
        percolation_series_value(0.0, 1.0)
    with pytest.raises(ValueError):
        percolation_series_value(0.1, 0.0)
