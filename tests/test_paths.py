"""Legal paths: schedules, movers, block paths, congestion constants."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcmkit import blocks, paths, rng
from kcmkit.families import make_family
from kcmkit.lattice import (
    Box,
    Configuration,
    Geometry,
    Region,
    box_region,
    cross_region,
    slice_region,
)
from kcmkit.paths import (
    CongestionReport,
    LegalPath,
    chain_schedule,
    congestion_bound_triple,
    congestion_constant,
    cross_schedule,
    empty_region_schedule,
    gg_column_moves,
    path_A,
    path_B,
    poincare_path_bound,
    sample_path_A_instance,
    sample_path_B_instance,
    slice_schedule,
    verify_legal,
)
from oracles import (congestion_constant_oracle, constraint_satisfied,
                     fully_occupied, loop_erased_oracle)

FA2 = make_family("fa_kf", 2, 2)
FA1 = make_family("fa_kf", 2, 1)
GG = make_family("gg")


def cfg_from(geom, empty_sites):
    bits = np.ones(geom.n_sites, dtype=np.uint8)
    for c in empty_sites:
        bits[geom.flat(c)] = 0
    return Configuration(geom, bits)


def col_region(geom, c, lo=0, hi=None):
    hi = geom.dims[1] if hi is None else hi
    return box_region(geom, Box((c, lo), (1, hi - lo)))


# ------------------------------------------------------------- verification


def test_verify_legal_accepts_and_replays():
    g = Geometry((3, 1))
    cfg = cfg_from(g, [(0, 0)])
    p = LegalPath(cfg, [g.flat((1, 0))], [0])
    assert verify_legal(p, FA1)


def test_verify_legal_flags_constraint_violation():
    g = Geometry((3, 1))
    cfg = cfg_from(g, [(0, 0)])
    p = LegalPath(cfg, [g.flat((2, 0))], [0])
    res = verify_legal(p, FA1)
    assert not res
    assert res.index == 0
    assert res.vertex == g.flat((2, 0))
    assert "rule" in res.reason


def test_verify_legal_flags_noop_flip():
    g = Geometry((3, 1))
    cfg = cfg_from(g, [(0, 0)])
    p = LegalPath(cfg, [g.flat((0, 0))], [0])
    res = verify_legal(p, FA1)
    assert not res and res.index == 0


def test_verify_legal_flags_revisit():
    g = Geometry((3, 1))
    cfg = cfg_from(g, [(0, 0)])
    v = g.flat((1, 0))
    p = LegalPath(cfg, [v, v], [0, 1])
    res = verify_legal(p, FA1)
    assert not res
    assert res.index == 1
    assert res.reason == "configuration revisited"


def test_unconstrained_family_always_legal():
    g = Geometry((2, 2))
    cfg = fully_occupied(g)
    p = LegalPath(cfg, [0, 1, 2, 3], [0, 0, 0, 0])
    assert verify_legal(p, make_family("unconstrained", 2))


def _replay(path, fam):
    """verify_legal's verdict, replayed flip by flip on
    constraint_satisfied."""
    bits = path.start.bits.copy()
    seen = {bits.tobytes()}
    for i, (v, val) in enumerate(zip(path.vertices.tolist(),
                                     path.values.tolist())):
        if bits[v] == val:
            return False, i, v, "flip does not change the site"
        if not constraint_satisfied(Configuration(path.start.geom, bits),
                                    fam, v):
            return False, i, v, "no update rule satisfied at flip time"
        bits[v] = val
        if bits.tobytes() in seen:
            return False, i, v, "configuration revisited"
        seen.add(bits.tobytes())
    return True, None, None, ""


MIXED_RULES = [
    ("sizes-1-2", make_family("custom", rules=[[(1, 0)], [(0, 1), (0, -1)]])),
    ("empty-rule", make_family("custom", d=2, rules=[[(1, 0), (0, 1)], []])),
    ("sizes-1-2-3", make_family("custom", rules=[
        [(-1, 0)], [(1, 0), (0, 1)], [(0, -1), (1, 1), (-1, 1)]])),
]


@pytest.mark.parametrize("fam", [f for _, f in MIXED_RULES],
                         ids=[label for label, _ in MIXED_RULES])
@pytest.mark.parametrize("geom", [Geometry((5, 4), torus=True),
                                  Geometry((4, 5)),
                                  Geometry((4, 4), outside_empty=True)],
                         ids=["torus", "free", "free-empty-outside"])
def test_verify_legal_mixed_rule_sizes_match_replay(fam, geom):
    # random walks that mostly flip a site whose constraint holds, so that
    # every verdict occurs: accepted, no-op, illegal and revisit
    gen = np.random.default_rng(5)
    verdicts = set()
    for _ in range(60):
        start = Configuration(geom, (gen.random(geom.n_sites) < 0.6)
                              .astype(np.uint8))
        bits = start.bits.copy()
        verts, vals = [], []
        for _ in range(int(gen.integers(1, 25))):
            now = Configuration(geom, bits)
            legal = [v for v in range(geom.n_sites)
                     if constraint_satisfied(now, fam, v)]
            pick_legal = legal and gen.random() < 0.9
            v = int(gen.choice(legal) if pick_legal
                    else gen.integers(geom.n_sites))
            val = 1 - bits[v] if gen.random() < 0.95 else bits[v]
            verts.append(v)
            vals.append(val)
            bits[v] = val
        path = LegalPath(start, verts, vals)
        res = verify_legal(path, fam)
        expected = _replay(path, fam)
        assert (res.ok, res.index, res.vertex, res.reason) == expected
        verdicts.add(expected[3])
    assert "" in verdicts and "configuration revisited" in verdicts
    assert "flip does not change the site" in verdicts
    if all(fam.rules):
        assert "no update rule satisfied at flip time" in verdicts


# ------------------------------------------------------- replay properties

FAMILIES = [FA1, FA2, GG, make_family("north_east"), make_family("east", 2),
            make_family("unconstrained", 2), *(f for _, f in MIXED_RULES)]


@st.composite
def walks(draw, families=(None,), legal_bias=False, max_paths=1):
    """(paths, family): up to max_paths walks from one drawn start on a
    small drawn geometry. Each step picks a site by a drawn index, among
    the sites whose constraint holds when legal_bias draws so, and flips
    it, or, with a family drawn, may rewrite its value (a no-op)."""
    fam = draw(st.sampled_from(families))
    geom = draw(st.builds(
        lambda dims, mode: Geometry(dims, torus=mode == "torus",
                                    outside_empty=mode == "empty"),
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
        st.sampled_from(["torus", "free", "empty"])))
    n = geom.n_sites
    start = Configuration(geom, np.array(draw(st.lists(
        st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8))
    steps = st.lists(st.tuples(
        st.integers(0, n - 1), st.booleans(),
        st.booleans() if fam is not None else st.just(False)), max_size=30)
    paths = []
    for _ in range(draw(st.integers(1, max_paths))):
        bits = start.bits.copy()
        verts, vals = [], []
        for pick, legal, noop in draw(steps):
            sites = range(n)
            if legal_bias and legal:
                now = Configuration(geom, bits)
                sites = [v for v in sites
                         if constraint_satisfied(now, fam, v)]
            v = sites[pick % len(sites)] if sites else pick
            bits[v] = val = int(bits[v]) if noop else 1 - int(bits[v])
            verts.append(v)
            vals.append(val)
        paths.append(LegalPath(start, verts, vals))
    return paths, fam


@settings(max_examples=150, deadline=None)
@given(walks(FAMILIES, legal_bias=True))
def test_verify_legal_matches_replay_fuzzed(walk):
    (path,), fam = walk
    res = verify_legal(path, fam)
    assert (res.ok, res.index, res.vertex, res.reason) == _replay(path, fam)


@settings(max_examples=150, deadline=None)
@given(walks())
def test_loop_erased_matches_splice_oracle(walk):
    (path,), _ = walk
    erased = path.loop_erased()
    want = loop_erased_oracle(path)
    assert erased.vertices.tolist() == want.vertices.tolist()
    assert erased.values.tolist() == want.values.tolist()
    keys = erased._keys()
    assert len(set(keys)) == len(keys)                 # self-avoiding
    assert keys[0] == path.start.bits.tobytes()
    assert erased.end().bits.tobytes() == path._keys()[-1]


@settings(max_examples=100, deadline=None)
@given(walks(max_paths=4), st.floats(0.05, 0.95))
def test_congestion_constant_matches_oracle_fuzzed(walk, q):
    # loop-erased walks from one start share configurations across the
    # family, and each visits a configuration once, as the oracle counts
    family = [p.loop_erased() for p in walk[0]]
    rep = congestion_constant(family, q)
    assert rep.rho == congestion_constant_oracle(family, q)
    assert rep.n_max == max(p.length for p in family)


# ---------------------------------------------------------------- schedules


def test_empty_region_schedule_spec_example():
    # 2x2 empty corner spans a 3x3 box when the outside helps
    g = Geometry((3, 3), outside_empty=True)
    cfg = cfg_from(g, [(0, 0), (0, 1), (1, 0), (1, 1)])
    r = box_region(g, Box((0, 0), (3, 3)))
    p = empty_region_schedule(cfg, FA2, r)
    assert p.length <= 9
    assert verify_legal(p, FA2)
    assert p.end().count_empty() == 9


def test_empty_region_schedule_already_empty():
    g = Geometry((3, 3), outside_empty=True)
    r = box_region(g, Box((0, 0), (3, 3)))
    p = empty_region_schedule(Configuration.fully_empty(g), FA2, r)
    assert p.length == 0


def test_empty_region_schedule_rejects_unspanned():
    g = Geometry((3, 3))
    r = box_region(g, Box((0, 0), (3, 3)))
    with pytest.raises(ValueError, match="not internally spanned"):
        empty_region_schedule(fully_occupied(g), FA2, r)


def test_empty_region_schedule_round_then_lex_order():
    g = Geometry((3, 1))
    cfg = cfg_from(g, [(0, 0)])
    r = box_region(g, Box((0, 0), (3, 1)))
    p = empty_region_schedule(cfg, FA1, r)
    assert p.vertices.tolist() == [g.flat((1, 0)), g.flat((2, 0))]


def test_chain_schedule_single_region_is_empty_path():
    g = Geometry((3, 2))
    cfg = cfg_from(g, [(0, 0), (0, 1)])
    p = chain_schedule(cfg, FA1, [col_region(g, 0)])
    assert p.length == 0


def test_chain_schedule_two_regions_forward_only():
    g = Geometry((3, 2))
    cfg = cfg_from(g, [(0, 0), (0, 1)])
    p = chain_schedule(cfg, FA1, [col_region(g, 0), col_region(g, 1)])
    assert p.length <= col_region(g, 1).size
    assert (p.values == 0).all()
    assert verify_legal(p, FA1)


def test_chain_schedule_end_state_and_bound():
    g = Geometry((3, 2))
    cfg = cfg_from(g, [(0, 0), (0, 1)])
    regions = [col_region(g, c) for c in range(3)]
    p = chain_schedule(cfg, FA1, regions)
    assert verify_legal(p, FA1)
    assert p.length <= 2 * sum(r.size for r in regions)
    expected = cfg.bits.copy()
    expected[regions[-1].indices] = 0
    assert np.array_equal(p.end().bits, expected)


def test_chain_schedule_requires_empty_head():
    g = Geometry((3, 2))
    with pytest.raises(ValueError, match="region 0 is not empty"):
        chain_schedule(fully_occupied(g), FA1,
                       [col_region(g, 0), col_region(g, 1)])


def test_chain_schedule_failure_names_the_pair():
    # a left-looking rule walks the wave forward fine, but re-occupying
    # region 2 fails once its left neighbor is back to occupied
    g = Geometry((5, 1))
    left = make_family("custom", rules=[[(-1, 0)]])
    cfg = cfg_from(g, [(1, 0)])
    regions = [col_region(g, c) for c in (1, 2, 3, 4)]
    with pytest.raises(ValueError, match="between regions 3 and 2"):
        chain_schedule(cfg, left, regions)
    with pytest.raises(ValueError, match="forward between regions 0 and 1"):
        chain_schedule(cfg, make_family("custom", rules=[[(1, 0)]]),
                       [col_region(g, 1), col_region(g, 2)])


def test_chain_schedule_discrepancy_confined_to_active_pair():
    g = Geometry((4, 3))
    bits = np.ones(12, dtype=np.uint8)
    bits[col_region(g, 0).indices] = 0
    bits[g.flat((2, 1))] = 0
    cfg = Configuration(g, bits)
    regions = [col_region(g, c) for c in range(4)]
    p = chain_schedule(cfg, FA1, regions)
    # replay: every state equals the start outside some consecutive pair
    pair_masks = [
        regions[j].mask() | regions[j + 1].mask()
        for j in range(len(regions) - 1)
    ]
    state = cfg.bits.copy()
    for v, val in zip(p.vertices.tolist(), p.values.tolist()):
        state[v] = val
        diff = state != cfg.bits
        assert any(not diff[~m].any() for m in pair_masks)


def test_slice_schedule_spec_example():
    g = Geometry((4, 4))
    empties = [(1, r) for r in range(4)] + [(2, 1)]
    cfg = cfg_from(g, empties)
    p = slice_schedule(cfg, FA2, 0, 1, +1)
    assert verify_legal(p, FA2)
    target = [g.flat((2, r)) for r in range(4)]
    assert (p.end().bits[target] == 0).all()
    assert set(p.vertices.tolist()) <= set(target)


def test_slice_schedule_rejects_unspanned_target():
    g = Geometry((4, 4))
    cfg = cfg_from(g, [(1, r) for r in range(4)])
    with pytest.raises(ValueError, match="not spanned by the reduced model"):
        slice_schedule(cfg, FA2, 0, 1, +1)


def test_slice_schedule_rejects_occupied_source():
    g = Geometry((4, 4))
    with pytest.raises(ValueError, match="source slice is not empty"):
        slice_schedule(fully_occupied(g), FA2, 0, 1, +1)


def test_slice_schedule_k1_needs_no_seed():
    g = Geometry((4, 3))
    cfg = cfg_from(g, [(1, r) for r in range(3)])
    p = slice_schedule(cfg, FA1, 0, 1, -1)
    assert verify_legal(p, FA1)
    assert (p.end().bits[[g.flat((0, r)) for r in range(3)]] == 0).all()


def test_cross_schedule_spec_example():
    n = 4
    g = Geometry((n, n))
    box = Box((0, 0), (n, n))
    x, y = (1, 2), (2, 2)
    bits = np.ones(g.n_sites, dtype=np.uint8)
    bits[cross_region(g, box, x).indices] = 0
    cfg = Configuration(g, bits)
    p = cross_schedule(cfg, FA2, x, y)
    assert verify_legal(p, FA2)
    assert p.length <= 2 * 2 * n
    assert (p.end().bits[cross_region(g, box, y).indices] == 0).all()


def test_cross_schedule_rejects_nonadjacent():
    g = Geometry((4, 4))
    bits = np.ones(16, dtype=np.uint8)
    bits[cross_region(g, Box((0, 0), (4, 4)), (1, 2)).indices] = 0
    with pytest.raises(ValueError, match="adjacent"):
        cross_schedule(Configuration(g, bits), FA2, (1, 2), (3, 3))


def test_cross_schedule_needs_k2():
    g = Geometry((4, 4))
    with pytest.raises(ValueError, match="2-of-2d"):
        cross_schedule(Configuration.fully_empty(g), FA1, (1, 2), (2, 2))


def test_gg_obs1_empties_flanking_column():
    g = Geometry((6, 5))
    empties = [(c, r) for c in (0, 1) for r in range(5)] + [(2, 3)]
    cfg = cfg_from(g, empties)
    p = gg_column_moves(cfg, "obs1", (0, 1, 2))
    assert verify_legal(p, GG)
    assert (p.end().bits[col_region(g, 2).indices] == 0).all()


def test_gg_obs1_already_empty_target_is_trivial():
    g = Geometry((6, 5))
    empties = [(c, r) for c in (0, 1, 2) for r in range(5)]
    p = gg_column_moves(cfg_from(g, empties), "obs1", (0, 1, 2))
    assert p.length == 0


def test_gg_obs1_needs_target_seed():
    g = Geometry((6, 5))
    empties = [(c, r) for c in (0, 1) for r in range(5)]
    with pytest.raises(ValueError, match="no empty site"):
        gg_column_moves(cfg_from(g, empties), "obs1", (0, 1, 2))
    # a target column outside the geometry fails the box fit
    with pytest.raises(ValueError, match="does not fit"):
        gg_column_moves(cfg_from(g, empties), "obs1", (1, 0, -1))


def test_gg_obs2_empties_pair_top_down():
    g = Geometry((6, 5))
    empties = [(c, r) for c in (0, 1) for r in range(5)] + [(2, 4), (3, 4)]
    cfg = cfg_from(g, empties)
    p = gg_column_moves(cfg, "obs2", (0, 1, 2, 3))
    assert verify_legal(p, GG)
    done = [g.flat((c, r)) for c in (2, 3) for r in range(4)]
    assert (p.end().bits[done] == 0).all()


def test_gg_obs2_rejects_missing_top_vertices():
    g = Geometry((6, 5))
    empties = [(c, r) for c in (0, 1) for r in range(5)] + [(2, 4)]
    with pytest.raises(ValueError, match="vertices above"):
        gg_column_moves(cfg_from(g, empties), "obs2", (0, 1, 2, 3))


def test_gg_obs_moves_mirror_left():
    g = Geometry((6, 5))
    empties = [(c, r) for c in (3, 4) for r in range(5)] + [(2, 1)]
    p = gg_column_moves(cfg_from(g, empties), "obs1", (3, 4, 2))
    assert verify_legal(p, GG)
    assert (p.end().bits[col_region(g, 2).indices] == 0).all()


# -------------------------------------------------------------- block paths


def test_path_B_fa2_spec_batch():
    n = 4
    lens = []
    for rep in range(200):
        cfg, x, y = sample_path_B_instance("fa2", (n, n), 0.4, 101, rep)
        p = path_B(cfg, "fa2", x, y)
        assert verify_legal(p, FA2)
        expected = cfg.bits.copy()
        expected[paths._seed_flats(cfg.geom, "fa2", x)] = 0
        assert np.array_equal(p.end().bits, expected)
        assert p.length <= 8 * n * n
        lens.append(p.length)
    assert max(lens) > 0


def test_path_B_all_orientations_both_models():
    for model, dims, fam in (("fa2", (4, 4), FA2), ("gg", (6, 4), GG)):
        for axis in (0, 1):
            for direction in (1, -1):
                for rep in range(25):
                    cfg, x, y = sample_path_B_instance(
                        model, dims, 0.4, 202, rep, axis=axis,
                        direction=direction)
                    p = path_B(cfg, model, x, y)
                    assert verify_legal(p, fam), (model, axis, direction, rep)
                    expected = cfg.bits.copy()
                    expected[paths._seed_flats(cfg.geom, model, x)] = 0
                    assert np.array_equal(p.end().bits, expected)


def test_path_B_rejects_bad_blocks():
    cfg, x, y = sample_path_B_instance("fa2", (4, 4), 0.4, 300, 0)
    bits = cfg.bits.copy()
    bits[paths._seed_flats(cfg.geom, "fa2", y)] = 1
    bad = Configuration(cfg.geom, bits)
    with pytest.raises(ValueError, match="not super-good"):
        path_B(bad, "fa2", x, y)
    with pytest.raises(ValueError, match="not adjacent"):
        path_B(cfg, "fa2", x, Box((1, 0), (4, 4)))


def test_path_B_fakf_unbuilt():
    g = Geometry((8, 4))
    with pytest.raises(NotImplementedError):
        path_B(Configuration.fully_empty(g), "fakf",
               Box((0, 0), (4, 4)), Box((4, 0), (4, 4)))


def test_path_A_net_single_flip_both_models():
    for model, dims, fam in (("fa2", (4, 4), FA2), ("gg", (6, 4), GG)):
        for rep in range(50):
            cfg, x, z = sample_path_A_instance(model, dims, 0.4, 77, rep)
            p = path_A(cfg, model, x, z)
            assert verify_legal(p, fam), (model, rep)
            diff = p.end().bits.astype(int) - cfg.bits.astype(int)
            assert np.abs(diff).sum() == 1
            assert diff[cfg.geom.flat(z)] != 0
            assert p.length <= 4 * dims[0] * dims[1] + 1
            assert p.length % 2 == 1


def test_path_A_flips_either_direction():
    # same neighbors, z forced occupied then empty: both runs stay legal
    cfg, x, z = sample_path_A_instance("fa2", (4, 4), 0.4, 78, 3)
    zf = cfg.geom.flat(z)
    for start_value in (0, 1):
        bits = cfg.bits.copy()
        bits[zf] = start_value
        c = Configuration(cfg.geom, bits)
        p = path_A(c, "fa2", x, z)
        assert verify_legal(p, FA2)
        assert p.end().bits[zf] == 1 - start_value


# ------------------------------------------------- sampler oracle and parity


def _box_flats_oracle(geom, bx):
    return np.array([geom.flat(tuple(c0 + o for c0, o in zip(bx.corner, off)))
                     for off in itertools.product(*map(range, bx.dims))],
                    dtype=np.int64)


def _classify_box_oracle(cfg, model, bx):
    sub = Configuration(Geometry(bx.dims),
                        cfg.bits[_box_flats_oracle(cfg.geom, bx)])
    return blocks.classify_block(sub,
                                 blocks.BlockSpec(model, bx.dims, 0.5, 1.0))


def _seed_flats_oracle(geom, model, bx):
    mask = blocks._seed_mask(blocks.BlockSpec(model, bx.dims, 0.5, 1.0))
    return _box_flats_oracle(geom, bx)[mask.ravel()]


def _loop_first_eligible(geom, model, q, seed, replica, forced, good=(),
                         supergood=()):
    """The samplers as first written: one uniforms call and one
    classification per attempt. Returns (cfg, attempt)."""
    vkeys = geom.vertex_keys()
    for attempt in range(1024):
        rep = (int(replica) << 10) | attempt
        u = rng.uniforms_replicas_np(seed, rng.STREAM_AUX,
                                     [rep & rng.MASK64], vkeys)[0]
        bits = (u >= q).astype(np.uint8)
        bits[forced] = 0
        cfg = Configuration(geom, bits)
        if (all(_classify_box_oracle(cfg, model, bx) != blocks.CLASS_NEITHER
                for bx in good)
                and all(_classify_box_oracle(cfg, model, bx)
                        == blocks.CLASS_SUPERGOOD for bx in supergood)):
            return cfg, attempt
    raise RuntimeError("no eligible start found; q may be too extreme")


def _loop_sample_B(model, dims, q, seed, replica, axis, direction):
    full = list(dims)
    full[axis] *= 2
    geom = Geometry(tuple(full))
    lead = [0, 0]
    lead[axis] = dims[axis]
    if direction > 0:
        x, y = Box((0, 0), dims), Box(tuple(lead), dims)
    else:
        x, y = Box(tuple(lead), dims), Box((0, 0), dims)
    cfg, attempt = _loop_first_eligible(
        geom, model, q, seed, replica, _seed_flats_oracle(geom, model, y),
        good=(x,), supergood=(y,))
    return (cfg, x, y), attempt


def _loop_sample_A(model, dims, q, seed, replica):
    n1, n2 = dims
    geom = Geometry((2 * n1, 2 * n2))
    right, upper = Box((n1, 0), dims), Box((0, n2), dims)
    forced = np.concatenate([_seed_flats_oracle(geom, model, right),
                             _seed_flats_oracle(geom, model, upper)])
    zu = rng.uniform(seed, rng.STREAM_CLOCK, int(replica),
                     int(geom.vertex_keys()[0]), 0)
    zi = min(int(zu * n1 * n2), n1 * n2 - 1)
    cfg, attempt = _loop_first_eligible(geom, model, q, seed, replica, forced,
                                        supergood=(right, upper))
    return (cfg, Box((0, 0), dims), (zi // n2, zi % n2)), attempt


def _same_instance(got, want):
    cfg, box, third = got
    assert cfg.geom == want[0].geom
    assert cfg.bits.dtype == want[0].bits.dtype
    assert cfg.bits.tobytes() == want[0].bits.tobytes()
    assert box == want[1] and third == want[2]


_PARITY_REPLICAS = (0, 1, 5, 2**54 - 1, 2**54, 2**54 + 7)


@pytest.mark.parametrize("block,sites", [(1, None), (7, None), (None, 200),
                                         (None, None)])
def test_batched_samplers_match_one_attempt_loop(monkeypatch, block, sites):
    # block sizes 1 and 7 move the block edges, and so does a draw budget
    # of 200 (6 layouts of 32 sites, 4 of 48, 3 of 64, 2 of 96); None keeps
    # the defaults
    if block is not None:
        monkeypatch.setattr(paths, "_ATTEMPT_BLOCK", block)
    if sites is not None:
        monkeypatch.setattr(rng, "BATCH_SITES", sites)
    attempts = []
    for model, dims, q in (("fa2", (4, 4), 0.3), ("gg", (6, 4), 0.35)):
        for seed in (0, 3, 2**40 + 1):
            for replica in _PARITY_REPLICAS:
                for axis in (0, 1):
                    for direction in (1, -1):
                        want, a = _loop_sample_B(model, dims, q, seed,
                                                 replica, axis, direction)
                        attempts.append(a)
                        _same_instance(sample_path_B_instance(
                            model, dims, q, seed, replica, axis=axis,
                            direction=direction), want)
                want, a = _loop_sample_A(model, dims, q, seed, replica)
                attempts.append(a)
                _same_instance(sample_path_A_instance(model, dims, q, seed,
                                                      replica), want)
    # eligible layouts come from past the first default block, too
    assert max(attempts) >= 64 and min(attempts) == 0


def test_batched_samplers_give_up_like_the_loop():
    # at q = 1e-6 every site outside the forced seed sets is occupied. The
    # fa2 seed edges alone make a block good, so path_A's fa2 sampler never
    # gives up; the other three do, after all 1024 attempts
    cases = [(_loop_sample_B, sample_path_B_instance, m, d)
             for m, d in (("fa2", (4, 4)), ("gg", (6, 4)))]
    cases.append((_loop_sample_A, sample_path_A_instance, "gg", (6, 4)))
    for loop, batched, model, dims in cases:
        extra = (0, 1) if loop is _loop_sample_B else ()
        with pytest.raises(RuntimeError, match="no eligible start"):
            loop(model, dims, 1e-6, 9, 0, *extra)
        with pytest.raises(RuntimeError, match="no eligible start"):
            batched(model, dims, 1e-6, 9, 0)
    assert _loop_sample_A("fa2", (4, 4), 1e-6, 9, 0)[1] == 0
    cfg, _, _ = sample_path_A_instance("fa2", (4, 4), 1e-6, 9, 0)
    assert cfg.count_empty() == 14   # the two seed edges, nothing else


def test_path_A_rejects_outside_target():
    cfg, x, z = sample_path_A_instance("fa2", (4, 4), 0.4, 79, 0)
    with pytest.raises(ValueError, match="not in the block"):
        path_A(cfg, "fa2", x, (7, 7))


def test_reversed_decreasing_path_is_legal_increasing():
    g = Geometry((3, 3), outside_empty=True)
    cfg = cfg_from(g, [(0, 0), (0, 1), (1, 0), (1, 1)])
    p = empty_region_schedule(cfg, FA2, box_region(g, Box((0, 0), (3, 3))))
    rev = LegalPath(p.end(), p.vertices[::-1], 1 - p.values[::-1])
    assert (rev.values == 1).all()
    assert verify_legal(rev, FA2)
    assert np.array_equal(rev.end().bits, cfg.bits)


def test_loop_erased_idempotent_on_builder_output():
    cfg, x, y = sample_path_B_instance("gg", (6, 4), 0.4, 404, 7, axis=1)
    p = path_B(cfg, "gg", x, y)
    q = p.loop_erased()
    assert q.length == p.length


def test_claim_slice_walk_constructive():
    # walking a slice through a cube while the three seed slices stay empty;
    # a gap in the restore hypothesis would surface as a chain error
    fam = make_family("fa_kf", 3, 3)
    g = Geometry((4, 4, 4))
    seed = np.zeros((4, 4, 4), dtype=bool)
    for axis in range(3):
        sel = [slice(None)] * 3
        sel[axis] = 0
        seed[tuple(sel)] = True
    seed_region = Region(g, np.flatnonzero(seed.ravel()))

    def lam(j):
        m = np.zeros((4, 4, 4), dtype=bool)
        m[j] = True
        return Region(g, np.union1d(np.flatnonzero(m.ravel()),
                                    seed_region.indices))

    rng = np.random.default_rng(5)
    regions = [lam(j) for j in range(4)]
    for _ in range(10):
        bits = (rng.random(64) < 0.7).astype(np.uint8)
        bits[seed_region.indices] = 0
        p = chain_schedule(Configuration(g, bits), fam, regions)
        assert verify_legal(p, fam)


# ----------------------------------------------------------- builder digest


def _random_cfg(geom, q, seed, replica, forced=()):
    u = rng.uniforms_replicas_np(seed, rng.STREAM_AUX, [replica],
                                 geom.vertex_keys())[0]
    bits = (u >= q).astype(np.uint8)
    bits[np.asarray(forced, dtype=np.int64)] = 0
    return Configuration(geom, bits)


def _window_moves(cfg, variant, cols, rows):
    """The column move confined to the rows [lo, hi) of cfg, where obs2
    also reads its seed pair at row hi: the move on the grid of those rows,
    mapped back to cfg's sites."""
    g = cfg.geom
    lo, hi = rows
    dims = (g.dims[0], hi + (variant == "obs2") - lo)
    window = box_region(g, Box((0, lo), dims))
    p = gg_column_moves(Configuration(Geometry(dims), cfg.bits[window.indices]),
                        variant, cols)
    return LegalPath(cfg, window.indices[p.vertices], p.values)


def _builder_cases():
    """(name, thunk) for every path builder on fixed, mostly random inputs."""
    fa3 = make_family("fa_kf", 3, 2)
    for outside in (False, True):
        g = Geometry((4, 4), outside_empty=outside)
        for fam, bx in ((FA2, Box((0, 0), (4, 4))), (FA1, Box((1, 1), (3, 3)))):
            r = box_region(g, bx)
            for rep in range(12):
                cfg = _random_cfg(g, 0.5, 11, rep)
                yield ("empty", lambda c=cfg, f=fam, r=r:
                       empty_region_schedule(c, f, r))
    g = Geometry((5, 3))
    cols = [col_region(g, c) for c in range(5)]
    for rep in range(12):
        cfg = _random_cfg(g, 0.5, 12, rep, cols[0].indices)
        yield "chain-fa1", lambda c=cfg: chain_schedule(c, FA1, cols)
    g = Geometry((6, 4))
    pairs = [box_region(g, Box((c, 0), (2, 4))) for c in range(5)]
    for rep in range(12):
        cfg = _random_cfg(g, 0.4, 13, rep, pairs[0].indices)
        yield "chain-gg", lambda c=cfg: chain_schedule(c, GG, pairs)
    for fam, g in ((FA2, Geometry((4, 4))), (FA1, Geometry((4, 4))),
                   (fa3, Geometry((3, 3, 3)))):
        full = Box((0,) * g.d, g.dims)
        for axis in (0, 1):
            src = slice_region(g, full, axis, 1)
            for direction in (1, -1):
                for rep in range(6):
                    cfg = _random_cfg(g, 0.4, 14, rep, src.indices)
                    yield ("slice", lambda c=cfg, f=fam, a=axis, s=direction:
                           slice_schedule(c, f, a, 1, s))
    g = Geometry((4, 4))
    x = (1, 2)
    cx = cross_region(g, Box((0, 0), (4, 4)), x)
    for y in ((2, 2), (0, 2), (1, 1), (1, 3)):
        for rep in range(6):
            cfg = _random_cfg(g, 0.4, 15, rep, cx.indices)
            yield "cross", lambda c=cfg, y=y: cross_schedule(c, FA2, x, y)
    g = Geometry((6, 5))
    for cols, pair, rows in (((0, 1, 2), (0, 1), None),
                             ((3, 4, 2), (3, 4), None),
                             ((0, 1, 2), (0, 1), (1, 4)),
                             ((0, 1, 2, 3), (0, 1), None),
                             ((2, 3, 0, 1), (2, 3), (1, 3))):
        variant = "obs1" if len(cols) == 3 else "obs2"
        forced = [g.flat((c, r)) for c in pair for r in range(5)]
        if variant == "obs2":
            top = 4 if rows is None else rows[1]
            forced += [g.flat((c, top)) for c in cols[2:]]
        for rep in range(8):
            cfg = _random_cfg(g, 0.5, 16, rep, forced)
            yield (variant, lambda c=cfg, v=variant, cs=cols, rs=rows:
                   gg_column_moves(c, v, cs) if rs is None
                   else _window_moves(c, v, cs, rs))
    for model in ("fa2", "gg"):
        for axis in (0, 1):
            for direction in (1, -1):
                for rep in range(6):
                    cfg, bx, by = sample_path_B_instance(
                        model, (4, 4), 0.4, 17, rep, axis=axis,
                        direction=direction)
                    yield ("B", lambda c=cfg, m=model, bx=bx, by=by:
                           path_B(c, m, bx, by))
        for rep in range(12):
            cfg, bx, z = sample_path_A_instance(model, (4, 4), 0.4, 18, rep)
            yield "A", lambda c=cfg, m=model, bx=bx, z=z: path_A(c, m, bx, z)


# sha256 of every builder's flips on _builder_cases; the builders must
# keep producing these exact paths, in this exact flip order
_BUILDER_DIGEST = (
    "4e241837f7da1565dcb566c9ee978f2bdb5916fc4a59f847f550a9a31cc188e7")


@pytest.mark.usefixtures("each_kernels")
def test_builder_outputs_are_pinned():
    h = hashlib.sha256()
    kinds = set()
    for name, build in _builder_cases():
        h.update(name.encode())
        try:
            p = build()
        except ValueError as exc:
            h.update(f"!{exc}".encode())
            continue
        kinds.add(name)
        h.update(p.vertices.astype("<i8").tobytes())
        h.update(p.values.tobytes())
    # every builder produced at least one path, not only errors
    assert kinds == {"empty", "chain-fa1", "chain-gg", "slice", "cross",
                     "obs1", "obs2", "B", "A"}
    assert h.hexdigest() == _BUILDER_DIGEST


# --------------------------------------------------------------- congestion


def test_congestion_single_trivial_path():
    g = Geometry((2, 2))
    p0 = LegalPath(Configuration.fully_empty(g), [], [])
    rep = congestion_constant([p0], 0.3)
    assert rep == CongestionReport(1.0, 0)


def test_congestion_single_path_closed_form():
    g = Geometry((3, 2))
    cfg = cfg_from(g, [(0, 0), (0, 1)])
    r = Region(g, np.arange(6))
    p = empty_region_schedule(cfg, FA1, r)
    q = 0.25
    rep = congestion_constant([p], q)
    assert rep.rho == pytest.approx(((1 - q) / q) ** p.length)
    assert rep.n_max == p.length


def test_congestion_chain_family_exact_matches_oracle():
    g = Geometry((3, 2))
    regions = [col_region(g, c) for c in range(3)]
    family = []
    for free in itertools.product((0, 1), repeat=4):
        bits = np.zeros(6, dtype=np.uint8)
        k = 0
        for c in (1, 2):
            for r in (0, 1):
                bits[g.flat((c, r))] = free[k]
                k += 1
        family.append(chain_schedule(Configuration(g, bits), FA1, regions))
    assert len(family) == 16
    rep = congestion_constant(family, 0.5)
    oracle = congestion_constant_oracle(family, 0.5)
    bound = congestion_bound_triple([r.size for r in regions], 0.5)
    assert rep.rho == pytest.approx(oracle)
    assert rep.rho <= bound == 4096.0


def test_congestion_bounded_mode():
    assert congestion_bound_triple([2, 2, 2], 0.5) == 4096.0
    assert congestion_bound_triple([], 0.5) == 1.0
    assert congestion_bound_triple([3], 0.5) == 4.0 ** 3


def test_congestion_exact_rejects_degenerate_q():
    g = Geometry((2, 2))
    p0 = LegalPath(Configuration.fully_empty(g), [], [])
    with pytest.raises(ValueError):
        congestion_constant([p0], 1.0)


def test_poincare_path_bound_picks_dominant_route():
    a = poincare_path_bound(10.0, 5, 1.0, 1, 2.0, 0.5, 16, d=2)
    assert a == pytest.approx((2.0 / 0.5 ** 4) ** 2 * 10.0 * 5 * 16 ** 2)
    b = poincare_path_bound(0.0, 0, 3.0, 2, 2.0, 0.5, 16, d=2)
    assert b == pytest.approx((2.0 / 0.5 ** 4) ** 2 * 3.0 * 2 * 16)


def test_path_values_other_than_0_and_1_are_rejected():
    # with the values cast, a path of such values was one that verify_legal
    # certified and congestion_constant accepted
    cfg = Configuration.fully_empty(Geometry((3, 3)))
    for value in (2, 256, -1, 0.5):
        with pytest.raises(ValueError, match="other than 0 and 1"):
            LegalPath(cfg, [4], [value])
