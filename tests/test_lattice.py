import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcmkit import rng
from kcmkit.lattice import (Box, Configuration, Geometry, Region, box_region,
                            cross_region, random_bits, read_grid,
                            slice_region, write_grid)
from oracles import (from_empty_sites, neighbor_table_loop, neighbors,
                     vertex_key)


# ---------------------------------------------------------------- geometry

def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(())
    with pytest.raises(ValueError):
        Geometry((0, 3))
    with pytest.raises(ValueError):
        Geometry((3,), torus=True, outside_empty=True)


def test_n_sites_is_exact():
    # an int64 product wraps both to 0
    assert Geometry((2**32, 2**32)).n_sites == 2**64
    assert Geometry((2**31, 2**31, 4)).n_sites == 2**64


# Under a 1 GiB address-space cap, so that a box which slips past the size
# check fails fast with MemoryError instead of allocating gigabytes.
_OVERSIZED = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
from kcmkit.families import build_tables, make_family
from kcmkit.lattice import Geometry
for dims, kw in [((46341, 46341), dict(torus=True)), ((2**31, 2**31, 4), {}),
                 ((2**32, 2**32), dict(outside_empty=True))]:
    g = Geometry(dims, **kw)
    for build in (lambda: g.neighbor_table(np.eye(g.d, dtype=np.int64)),
                  lambda: build_tables(g, make_family("fa_kf", d=g.d, k=2))):
        try:
            build()
        except ValueError as e:
            print(g.n_sites, e)
"""


def test_box_past_int32_tables_is_refused_before_allocating():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    p = subprocess.run([sys.executable, "-c", _OVERSIZED], env=env,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    assert len(lines) == 6, lines
    for line in lines:
        n, message = line.split(" ", 1)
        assert message.startswith(f"a box of {n} sites is too large")
        assert message.endswith("at most 2^31 - 1 = 2147483647 sites")


def test_vertex_keys_cached_and_read_only():
    g = Geometry((4, 3))
    keys = g.vertex_keys()
    assert keys is g.vertex_keys()
    assert not keys.flags.writeable
    with pytest.raises(ValueError):
        keys[0] = 0
    fresh = Geometry((4, 3))
    assert fresh == g and hash(fresh) == hash(g)
    # the keys read only the coordinates: one array serves every box of
    # the shape, a torus too
    assert fresh.vertex_keys() is keys
    assert Geometry((4, 3), torus=True).vertex_keys() is keys


@st.composite
def _boxes(draw):
    """A torus, free or outside-empty box with d = 1..3 and sides 1..6."""
    dims = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    kind = draw(st.sampled_from(["torus", "free", "free-empty"]))
    return Geometry(dims, torus=kind == "torus",
                    outside_empty=kind == "free-empty")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_neighbor_table_matches_site_loop(data):
    # offsets up to twice the largest side, so the slices wrap a torus
    # more than once and leave a free box entirely
    g = data.draw(_boxes())
    offsets = np.array(data.draw(st.lists(
        st.tuples(*[st.integers(-12, 12)] * g.d), max_size=5)),
        dtype=np.int64).reshape(-1, g.d)
    table = g.neighbor_table(offsets)
    ref = neighbor_table_loop(g, offsets)
    assert table.dtype == np.int32 and table.flags.c_contiguous
    assert table.shape == ref.shape and table.tobytes() == ref.tobytes()


@settings(max_examples=60, deadline=None)
@given(g=_boxes())
def test_vertex_keys_match_scalar_hash(g):
    keys = g.vertex_keys()
    assert keys.dtype == np.uint64 and keys.shape == (g.n_sites,)
    assert keys.tolist() == [vertex_key(g.coords(v))
                             for v in range(g.n_sites)]


def test_flat_coords_roundtrip():
    g = Geometry((3, 4, 5))
    for flat in range(g.n_sites):
        assert g.flat(g.coords(flat)) == flat


def test_neighbors_torus_wrap():
    g = Geometry((4, 4), torus=True)
    assert sorted(neighbors(g, (0, 0))) == sorted([(1, 0), (3, 0), (0, 1), (0, 3)])


def test_neighbors_free_corner():
    g = Geometry((3, 3))
    assert sorted(neighbors(g, (0, 0))) == sorted([(1, 0), (0, 1)])


def test_neighbors_degenerate_wrap_dedup():
    g = Geometry((2,), torus=True)
    assert neighbors(g, (0,)) == [(1,)]


def test_neighbors_symmetric():
    g = Geometry((3, 5), torus=True)
    for x in range(g.n_sites):
        cx = g.coords(x)
        for cy in neighbors(g, cx):
            assert cx in neighbors(g, cy)


# ------------------------------------------------------------------ regions

def test_slice_region():
    g = Geometry((3, 3))
    b = Box((0, 0), (3, 3))
    s = slice_region(g, b, axis=1, j=2)
    assert s.size == 3
    assert all(g.coords(v)[1] == 2 for v in s.indices)


def test_cross_region_size():
    # |cross| = sum n_i - (d-1)
    g = Geometry((3, 3))
    b = Box((0, 0), (3, 3))
    c = cross_region(g, b, (2, 2))
    assert c.size == 3 + 3 - 1


def test_region_constructors_stay_inside_box():
    g = Geometry((6, 6))
    b = Box((1, 2), (4, 3))
    whole = box_region(g, b)
    for r in (slice_region(g, b, 0, 2), cross_region(g, b, (2, 3))):
        assert np.isin(r.indices, whole.indices).all()
    assert slice_region(g, b, 0, 2).size == b.dims[1]


def test_box_region_read_only_and_checked():
    g = Geometry((6, 5))
    r = box_region(g, Box((1, 2), (3, 2)))
    assert not r.indices.flags.writeable
    with pytest.raises(ValueError):
        r.indices[0] = 0
    mesh = np.meshgrid(np.arange(1, 4), np.arange(2, 4), indexing="ij")
    want = np.ravel_multi_index([m.reshape(-1) for m in mesh], g.dims)
    assert r.indices.dtype == np.int64
    assert np.array_equal(r.indices, want)
    assert r == Region(g, want[::-1])
    # a box that fits one geometry still fails on a smaller one
    big = Box((4, 4), (4, 4))
    assert box_region(Geometry((8, 8)), big).size == 16
    with pytest.raises(ValueError, match="does not fit"):
        box_region(Geometry((6, 8)), big)
    whole = box_region(Geometry((40, 40)), Box((0, 0), (40, 40)))
    assert not whole.indices.flags.writeable
    assert np.array_equal(whole.indices, np.arange(1600))


def test_region_ops():
    g = Geometry((4,))
    a = Region(g, np.array([0, 1, 2]))
    b = Region(g, np.array([2, 3]))
    assert a.union(b).size == 4
    with pytest.raises(ValueError, match="different geometries"):
        a.union(Region(Geometry((5,)), np.array([0])))
    with pytest.raises(ValueError):
        Region(g, np.array([7]))


# ----------------------------------------------------------- configurations

def test_random_configuration_extremes():
    g = Geometry((5, 5))
    assert Configuration.random(g, 0.0, seed=1).count_empty() == 0
    assert Configuration.random(g, 1.0, seed=1).count_empty() == 25


def test_random_configuration_binomial_concentration():
    g = Geometry((64, 64))
    cfg = Configuration.random(g, 0.5, seed=12345)
    frac = cfg.count_empty() / g.n_sites
    sd = 0.5 / 64.0  # sqrt(pq/N)
    assert abs(frac - 0.5) <= 4 * sd


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), qlo=st.floats(0, 1), qhi=st.floats(0, 1))
def test_coupled_monotonicity(seed, qlo, qhi):
    if qlo > qhi:
        qlo, qhi = qhi, qlo
    g = Geometry((8, 8))
    lo = Configuration.random(g, qlo, seed=seed)
    hi = Configuration.random(g, qhi, seed=seed)
    # empty set at the smaller q is contained in the empty set at the larger
    assert ((lo.bits == 0) <= (hi.bits == 0)).all()


# ------------------------------------------------------------ product measure

_IDS = {
    "count": 10,
    "uint64": np.array([0, 5, 2**63, 2**63 + 1, 2**64 - 1], dtype=np.uint64),
    "negative int64": np.array([-1, 4, -2**63, -7], dtype=np.int64),
}


@pytest.mark.parametrize("ids", list(_IDS.values()), ids=list(_IDS))
@pytest.mark.parametrize("rows", [None, 1, 3])
@pytest.mark.parametrize("budget", [1, 7 * 12, None])
def test_random_bits_rows_match_configuration_random(monkeypatch, ids, rows,
                                                     budget):
    g = Geometry((3, 4), torus=True)
    if budget is not None:
        monkeypatch.setattr(rng, "BATCH_SITES", budget)
    want = list(range(ids)) if np.ndim(ids) == 0 else [int(r) for r in ids]
    seen = []
    for block, bits in random_bits(g, 0.4, 9, ids, rows=rows):
        assert block.dtype == np.uint64 and bits.dtype == np.uint8
        assert bits.shape == (block.size, g.n_sites)
        assert 1 <= block.size <= max(1, rng.BATCH_SITES // g.n_sites)
        assert rows is None or block.size <= rows
        for r, row in zip(block, bits):
            seen.append(int(r))
            assert row.tobytes() == Configuration.random(
                g, 0.4, 9, replica=want[len(seen) - 1]).bits.tobytes()
    assert seen == [r & rng.MASK64 for r in want]


def test_random_bits_budget_blocks():
    g = Geometry((3, 4))
    sizes = [b.size for b, _ in random_bits(g, 0.5, 1, 20)]
    assert sizes == [20]
    assert [b.size for b, _ in random_bits(g, 0.5, 1, 20, rows=8)] == [8, 8, 4]
    big = Geometry((300, 300))   # more sites than one block's budget
    assert [b.size for b, _ in random_bits(big, 0.5, 1, 2)] == [1, 1]
    assert list(random_bits(g, 0.5, 1, 0)) == []


def test_replica_count_ids_are_made_block_by_block():
    # a count names ids 0..R-1 without allocating R of them at once: the
    # first block of 2^64 - 1 replicas comes back at once, and a count
    # past 2^64 ids is refused
    g = Geometry((4, 4))
    block, bits = next(random_bits(g, 0.5, 3, 2**64 - 1, rows=3))
    assert block.tolist() == [0, 1, 2]
    (_, want), = random_bits(g, 0.5, 3, [0, 1, 2])
    assert bits.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="at most 2\\^64 replicas"):
        next(random_bits(g, 0.5, 3, 2**64 + 1))


def test_random_bits_ids_wrap():
    g = Geometry((4, 4))
    k = 12345
    a = Configuration.random(g, 0.5, 3, replica=2**63 + k)
    b = Configuration.random(g, 0.5, 3, replica=2**63 + k - 2**64)
    c = Configuration.random(g, 0.5, 3, replica=np.int64(k - 2**63))
    assert a == b == c
    assert a.bits.tolist() == [
        int(rng.uniform(3, rng.STREAM_CONFIG, 2**63 + k, int(v), 0) >= 0.5)
        for v in g.vertex_keys()]
    (_, bits), = random_bits(g, 0.5, 3, np.array([2**63 + k], dtype=np.uint64))
    assert bits[0].tobytes() == a.bits.tobytes()
    # a Python int id is masked to 64 bits, as rng.replica_ids reads it
    (_, bits), = random_bits(g, 0.5, 3, [2**63 + k])
    assert bits[0].tobytes() == a.bits.tobytes()


def test_random_bits_q_extremes_and_monotone():
    g = Geometry((5, 6))
    (_, full), = random_bits(g, 0.0, 4, 7)
    (_, empty), = random_bits(g, 1.0, 4, 7)
    assert full.all() and not empty.any()
    prev = full
    for q in np.linspace(0.0, 1.0, 11):
        (_, bits), = random_bits(g, q, 4, 7)
        assert (bits <= prev).all()
        prev = bits


def test_configuration_validation():
    g = Geometry((2, 2))
    with pytest.raises(ValueError):
        Configuration(g, np.array([1, 0, 1]))
    with pytest.raises(ValueError):
        Configuration(g, np.array([1, 0, 2, 0]))


@pytest.mark.parametrize("bits", [np.array([256, 1, 0, 1]),
                                  np.array([0.5, 1, 1, 1]),
                                  np.array([1.9, 0, 0, 0]),
                                  np.array([-255, 0, 1, 0]),
                                  np.array([1.0, 0.0, np.nan, 1.0])],
                         ids=["256", "half", "1.9", "-255", "nan"])
def test_configuration_rejects_values_a_cast_would_change(bits):
    # a uint8 cast reads these as 0 or 1; the check runs on the values given
    with pytest.raises(ValueError, match="other than 0 and 1"):
        Configuration(Geometry((2, 2)), bits)


def test_configuration_accepts_exact_zeros_and_ones_of_any_dtype():
    g = Geometry((2, 2))
    for bits in ([1, 0, 0, 1], np.array([True, False, False, True]),
                 np.array([1.0, 0.0, -0.0, 1.0]), np.array([[1, 0], [0, 1]])):
        got = Configuration(g, bits).bits
        assert got.dtype == np.uint8 and got.tolist() == [1, 0, 0, 1]


# --------------------------------------------------------------- grid files

def grid_to_string(cfg):
    buf = io.StringIO()
    write_grid(cfg, buf)
    return buf.getvalue()


def grid_from_string(text):
    return read_grid(io.StringIO(text))


def test_grid_roundtrip_bit_exact():
    g = Geometry((3, 5), torus=True)
    cfg = Configuration.random(g, 0.37, seed=9)
    text = grid_to_string(cfg)
    back = grid_from_string(text)
    assert back.geom == cfg.geom
    assert np.array_equal(back.bits, cfg.bits)
    assert grid_to_string(back) == text


def test_grid_roundtrip_all_boundaries():
    for kwargs in ({"torus": True}, {}, {"outside_empty": True}):
        g = Geometry((4, 2), **kwargs)
        cfg = Configuration.random(g, 0.5, seed=3)
        assert grid_from_string(grid_to_string(cfg)) == cfg


def test_grid_rejects_malformed():
    with pytest.raises(ValueError):
        grid_from_string("2 3 torus\n010\n101\n")  # header says d=2, one extent
    with pytest.raises(ValueError):
        grid_from_string("1 3 wrapped\n010\n")
    with pytest.raises(ValueError):
        grid_from_string("1 4 free\n010\n")  # wrong site count
    with pytest.raises(ValueError):
        grid_from_string("1 3 free\n012\n")


def test_grid_file_io(tmp_path):
    g = Geometry((2, 2))
    cfg = from_empty_sites(g, [(0, 1)])
    path = str(tmp_path / "g.grid")
    write_grid(cfg, path)
    assert read_grid(path) == cfg
