import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcmkit import lattice
from kcmkit.families import (UpdateFamily, build_tables, make_family,
                             read_family, write_family)
from kcmkit.lattice import Configuration, Geometry
from oracles import (constraint_satisfied, from_empty_sites, fully_occupied,
                     neighbor_table_loop)


# ------------------------------------------------------------- construction

def test_fa_kf_rule_counts():
    # C(2d, k) rules of size k each
    assert len(make_family("fa_kf", d=1, k=1).rules) == 2
    assert len(make_family("fa_kf", d=2, k=1).rules) == 4
    assert len(make_family("fa_kf", d=2, k=2).rules) == 6
    assert len(make_family("fa_kf", d=3, k=2).rules) == 15
    fam = make_family("fa_kf", d=2, k=2)
    assert all(len(r) == 2 for r in fam.rules)


def test_fa_kf_rules_are_axis_subsets():
    fam = make_family("fa_kf", d=2, k=2)
    units = {(1, 0), (-1, 0), (0, 1), (0, -1)}
    expected = {frozenset(c) for c in combinations(sorted(units), 2)}
    assert set(fam.rules) == expected


def test_gg_rule_count_and_base():
    fam = make_family("gg")
    assert fam.d == 2
    assert len(fam.rules) == 20
    base = {(1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (-2, 0)}
    assert all(len(r) == 3 and r <= base for r in fam.rules)
    assert len(fam.rules) == len({frozenset(c)
                                  for c in combinations(sorted(base), 3)})


def test_east_and_north_east():
    e2 = make_family("east", d=2)
    assert set(e2.rules) == {frozenset({(-1, 0)}), frozenset({(0, -1)})}
    ne = make_family("north_east")
    assert set(ne.rules) == {frozenset({(0, 1), (1, 0)})}


def test_unconstrained_single_empty_rule():
    fam = make_family("unconstrained", d=3)
    assert len(fam.rules) == 1 and fam.rules[0] == frozenset()


def test_validation_rejects_zero_offset_and_duplicates():
    with pytest.raises(ValueError):
        UpdateFamily(1, (frozenset({(0,)}),))
    with pytest.raises(ValueError):
        UpdateFamily(1, (frozenset({(1, 0)}),))
    with pytest.raises(ValueError):
        UpdateFamily(1, (frozenset({(-1,)}), frozenset({(-1,)})))
    with pytest.raises(ValueError):
        make_family("fa_kf", d=2, k=5)  # k > 2d
    with pytest.raises(ValueError):
        make_family("no_such_model")


# ---------------------------------------------------------------- semantics

def test_constraint_satisfied_basics():
    g = Geometry((3, 3), torus=True)
    fam = make_family("fa_kf", d=2, k=1)
    cfg = from_empty_sites(g, [(1, 0)])
    assert constraint_satisfied(cfg, fam, (0, 0))       # wraps and finds (1,0)
    assert constraint_satisfied(cfg, fam, (2, 0))
    assert not constraint_satisfied(cfg, fam, (0, 1))   # not adjacent to (1,0)
    assert constraint_satisfied(cfg, fam, (0, 1)) is False


def test_constraint_free_boundary_counts_exits_occupied():
    g = Geometry((3,))
    fam = make_family("east", d=1)  # needs west neighbor empty
    cfg = fully_occupied(g)
    assert not constraint_satisfied(cfg, fam, (0,))


def test_constraint_free_empty_boundary():
    g = Geometry((3,), outside_empty=True)
    fam = make_family("east", d=1)
    cfg = fully_occupied(g)
    assert constraint_satisfied(cfg, fam, (0,))
    assert not constraint_satisfied(cfg, fam, (1,))


def test_unconstrained_always_satisfied():
    g = Geometry((2, 2))
    fam = make_family("unconstrained", d=2)
    assert constraint_satisfied(fully_occupied(g), fam, (0, 0))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(["fa_kf", "east", "gg"]))
def test_constraint_monotone_in_empties(seed, model):
    # removing particles can only turn constraints on, never off
    fam = make_family(model, d=2, k=2) if model == "fa_kf" else make_family(model, d=2)
    g = Geometry((5, 5), torus=True)
    cfg = Configuration.random(g, 0.4, seed=seed)
    more = cfg.copy()
    more.bits[seed % g.n_sites] = 0
    for v in range(g.n_sites):
        x = g.coords(v)
        if constraint_satisfied(cfg, fam, x):
            assert constraint_satisfied(more, fam, x)


# ---------------------------------------------------------- kernel tables

@pytest.mark.parametrize("fam", [
    make_family("fa_kf", d=2, k=2), make_family("gg"),
    make_family("east", d=2), make_family("north_east"),
    make_family("unconstrained", d=2),
    make_family("custom", rules=[[(1, 0)], [], [(0, 1), (0, -1), (2, 1)]]),
], ids=["fa2", "gg", "east2", "ne", "unconstrained", "custom-mixed"])
def test_table_rules_match_family_rules(fam):
    t = build_tables(Geometry((5, 6), torus=True), fam)
    offsets = fam.offsets()
    assert len(t.rules) == len(fam.rules)
    for k, (slots, rule) in enumerate(zip(t.rules, fam.rules)):
        assert slots.dtype == np.int32
        assert slots.tolist() == sorted(slots.tolist())
        assert len(slots) == len(rule)
        assert {offsets[s] for s in slots.tolist()} == set(rule)
        # the C kernels read the rules through sat: a site whose empty slots
        # are exactly rule k's is satisfied
        assert t.sat[sum(1 << s for s in slots.tolist())] == 1
    assert t.sat.dtype == np.uint8
    assert t.sat.shape == (1 << len(offsets),)


SAT_FAMILIES = {
    **{f"fa_kf({d},{k})": make_family("fa_kf", d=d, k=k)
       for d, k in [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (2, 4), (3, 3),
                    (4, 2), (8, 2), (8, 15)]},
    "gg": make_family("gg"),
    **{f"east{d}": make_family("east", d=d) for d in (1, 2, 3)},
    "ne": make_family("north_east"),
    "unconstrained": make_family("unconstrained", d=2),
    "custom-empty-rule": make_family("custom", d=1, rules=[[(1,)], []]),
    "custom-mixed": make_family(
        "custom", rules=[[(1, 0)], [(0, 1), (0, -1), (2, 1)],
                         [(-1, -1), (0, 1)]]),
}


@pytest.mark.parametrize("fam", SAT_FAMILIES.values(), ids=SAT_FAMILIES)
def test_sat_matches_every_mask(fam):
    # brute force from the family's own offsets and rules: mask is
    # satisfiable iff some rule's offsets all lie in the slots it marks
    offsets = fam.offsets()
    masks = np.arange(1 << len(offsets))
    expected = np.zeros(masks.size, dtype=bool)
    for rule in fam.rules:
        need = sum(1 << offsets.index(off) for off in rule)
        expected |= masks & need == need
    t = build_tables(Geometry((3,) * fam.d, torus=True), fam)
    assert t.sat.dtype == np.uint8
    assert np.array_equal(t.sat, expected)


def test_sat_is_none_beyond_sixteen_slots():
    fam = make_family("fa_kf", d=9, k=1)
    assert len(fam.offsets()) == 18
    assert build_tables(Geometry((2,) * 9, torus=True), fam).sat is None


@pytest.mark.parametrize("geom", [
    Geometry((5, 6), torus=True), Geometry((2, 3), torus=True),
    Geometry((2, 2), torus=True), Geometry((1, 4), torus=True),
    Geometry((7,), torus=True), Geometry((2, 2, 2), torus=True),
    Geometry((5, 6)), Geometry((2, 3)), Geometry((1, 1)),
    Geometry((5, 6), outside_empty=True), Geometry((2, 2, 3),
                                                   outside_empty=True),
], ids=repr)
def test_rev_is_the_reverse_neighbor_table(geom):
    # rev[v, s] is the site u with u + offset_s = v, or the pad index N
    # where v - offset_s leaves a free box. Both facts are checked against
    # nbr, itself held to the site-loop oracle, and against coordinates
    # computed here, never against the call that builds rev.
    n = geom.n_sites
    coords = np.indices(geom.dims).reshape(geom.d, n).T
    fams = [make_family("fa_kf", d=geom.d, k=1), make_family("east", d=geom.d)]
    if geom.d == 2:
        fams += [make_family("gg"), make_family(
            "custom", rules=[[(1, 0), (0, 3)], [(-2, -1)]])]
    for fam in fams:
        t = build_tables(geom, fam)
        assert np.array_equal(t.nbr, neighbor_table_loop(geom, fam.offsets()))
        assert t.rev.dtype == np.int32 and t.rev.shape == t.nbr.shape
        assert t.rev.flags.c_contiguous
        assert ((t.rev >= 0) & (t.rev <= n)).all()
        for s, off in enumerate(fam.offsets()):
            source = coords - np.asarray(off)
            leaves = (np.zeros(n, dtype=bool) if geom.torus else
                      ((source < 0) | (source >= geom.dims)).any(axis=1))
            rev = t.rev[:, s]
            assert np.array_equal(rev == n, leaves), (fam, off)
            inside = rev < n
            assert np.array_equal(t.nbr[rev[inside], s],
                                  np.flatnonzero(inside)), (fam, off)


def test_tables_and_keys_peak_memory():
    # NumPy reports its buffers to tracemalloc, so this peak does not move
    # with the heap layout, as the resident set does. The tables hold
    # 2 MiB (two (65536, 4) int32 arrays) and the keys 0.5 MiB: the bound
    # leaves 1 MiB for temporaries, half of one int64 (N, S) table. The
    # keys are cached per shape, so an earlier test's are dropped first.
    g = Geometry((256, 256), torus=True)
    lattice._vertex_keys.cache_clear()
    tracemalloc.start()
    try:
        t = build_tables(g, make_family("fa_kf", d=2, k=2))
        g.vertex_keys()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.nbr.dtype == t.rev.dtype == np.int32
    assert peak <= 3.5 * 2**20, peak


# --------------------------------------------------------------- round trip

def test_family_file_roundtrip(tmp_path):
    for fam in (make_family("gg"), make_family("east", d=3),
                make_family("unconstrained", d=2), make_family("fa_kf", d=2, k=2)):
        path = str(tmp_path / "f.rules")
        write_family(fam, path)
        back = read_family(path)
        assert back.d == fam.d
        assert set(back.rules) == set(fam.rules)


def test_family_file_rejects_garbage(tmp_path):
    path = str(tmp_path / "bad.rules")
    with open(path, "w") as fh:
        fh.write("(0,0)\n")
    with pytest.raises(ValueError):
        read_family(path)
