"""The site rule: every index, coordinate, extent and box corner is an exact
integer, checked once in `lattice` (as_int, as_ints, as_site, as_sites,
Geometry.site, check_fit), so no cast truncates 4.7, wraps 2^31 + 5 or
reads True as 1."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kcmkit._pure import EVENT
from kcmkit.families import make_family
from kcmkit.kcm import read_event_log, write_event_log
from kcmkit.lattice import (Box, Configuration, Geometry, Region, as_site,
                            as_sites, cross_region)
from kcmkit.paths import (LegalPath, gg_column_moves, path_A,
                          sample_path_A_instance, sample_path_B_instance,
                          verify_legal)
from kcmkit.percolation import c_infty_surrogate
from oracles import constraint_satisfied, from_empty_sites

NAN = math.nan
BIG = 2**31 + 5
G33 = Geometry((3, 3))
FA1 = make_family("fa_kf", d=2, k=1)


def _event_log_vertex():
    buf = io.BytesIO()
    write_event_log(np.array([(0.5, BIG, 0)], dtype=EVENT), buf)
    return read_event_log(io.BytesIO(buf.getvalue()))["v"].tolist()


def _legal_path_float_vertex():
    p = LegalPath(Configuration.fully_empty(G33), [4.7], [1])
    return verify_legal(p, FA1)


def _column_move_float_column():
    g = Geometry((6, 5))
    empties = [(c, r) for c in (0, 1) for r in range(5)] + [(2, 3)]
    cfg = from_empty_sites(g, empties)
    return gg_column_moves(cfg, "obs1", (0.5, 1, 2))


def _path_A_float_target():
    cfg, x, z = sample_path_A_instance("fa2", (4, 4), 0.3, 0, 0)
    return path_A(cfg, "fa2", x, (z[0] + 0.5, z[1]))


# label -> (call, expected): ValueError, or the value the call returns.
# Each row is an input that an unchecked cast would mangle: 4.7 truncated,
# -1 read as the last site, n and NaN handed on to numpy or the kernels,
# 2^31 + 5 wrapped negative, True read as 1.
HOSTILE = {
    "legal-path-vertex-4.7": (_legal_path_float_vertex, ValueError),
    "event-log-vertex-2^31+5": (_event_log_vertex, [BIG]),
    "region-index-4.7": (lambda: Region(G33, [4.7]), ValueError),
    "region-index-true": (lambda: Region(G33, [True, False]), ValueError),
    "flat-coordinate-1.5": (lambda: G33.flat((1.5, 0)), ValueError),
    "box-corner-0.5": (lambda: Box((0.5, 0), (2.7, 3)), ValueError),
    "geometry-extent-2.5": (lambda: Geometry((2.5, 3)), ValueError),
    "geometry-extent-true": (lambda: Geometry((True, 3)), ValueError),
    "surrogate-center-3.9": (
        lambda: c_infty_surrogate(
            Configuration.fully_empty(Geometry((8, 8))), (3.9, 3.2), 2),
        ValueError),
    "cross-center-1.5": (
        lambda: cross_region(G33, Box((0, 0), (3, 3)), (1.5, 1)), ValueError),
    "custom-offset-4.7": (
        lambda: make_family("custom", rules=[[(4.7, 0)]]), ValueError),
    "coords-minus-1": (lambda: G33.coords(-1), ValueError),
    "coords-n": (lambda: G33.coords(9), ValueError),
    "empty-site-minus-1": (
        lambda: from_empty_sites(G33, [-1]), ValueError),
    "empty-site-true": (
        lambda: from_empty_sites(G33, [True]), ValueError),
    "empty-site-nan": (
        lambda: from_empty_sites(G33, [NAN]), ValueError),
    "empty-site-2^31+5": (
        lambda: from_empty_sites(G33, [BIG]), ValueError),
    "constraint-minus-1": (
        lambda: constraint_satisfied(Configuration.fully_empty(G33), FA1, -1),
        ValueError),
    "column-move-column-0.5": (_column_move_float_column, ValueError),
    "path-A-target-0.5": (_path_A_float_target, ValueError),
    "sampler-dims-4.5": (
        lambda: sample_path_B_instance("fa2", (4.5, 4), 0.3, 0, 0),
        ValueError),
}


@pytest.mark.parametrize("case", HOSTILE)
def test_hostile_site_input(case):
    call, expected = HOSTILE[case]
    if expected is ValueError:
        with pytest.raises(ValueError):
            call()
    else:
        assert call() == expected


_DTYPES = [np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64,
                                 np.uint8, np.uint16, np.uint32, np.uint64,
                                 np.bool_, np.float32, np.float64)]


@st.composite
def _arrays(draw):
    n = draw(st.integers(1, 40))
    dt = draw(st.sampled_from(_DTYPES))
    if dt.kind in "iu":
        info = np.iinfo(dt)
        near = st.integers(max(int(info.min), -3), min(int(info.max), n + 3))
        elements = st.one_of(near, hnp.from_dtype(dt))
    elif dt.kind == "f":
        elements = st.one_of(st.integers(-3, n + 3).map(float),
                             hnp.from_dtype(dt, allow_nan=True,
                                            allow_infinity=True))
    else:
        elements = hnp.from_dtype(dt)
    return n, draw(hnp.arrays(dt, st.integers(0, 6), elements=elements))


@settings(max_examples=150, deadline=None)
@given(_arrays())
def test_site_rule_is_exact(drawn):
    n, a = drawn
    valid = a.size == 0 or (a.dtype.kind in "iu" and 0 <= a.min()
                            and a.max() < n)
    if valid:
        out = as_sites(a, n, "arg")
        assert out.dtype == np.int64 and out.tolist() == a.tolist()
    else:
        with pytest.raises(ValueError, match="arg"):
            as_sites(a, n, "arg")
    # the scalar form agrees with the array form, entry by entry, for numpy
    # and Python scalars alike
    geom = Geometry((n,))
    for x in (*a, *a.tolist()):
        one_ok = a.dtype.kind in "iu" and 0 <= x < n
        if one_ok:
            assert as_site(x, n, "arg") == geom.site(x) == int(x)
            assert as_sites(np.array([x], a.dtype), n).tolist() == [int(x)]
        else:
            with pytest.raises(ValueError, match="arg"):
                as_site(x, n, "arg")
            with pytest.raises(ValueError):
                geom.site(x)
            with pytest.raises(ValueError, match="arg"):
                as_sites(np.array([x], a.dtype), n, "arg")
