"""Parity tests: the compiled kernels and the pure fallback must agree exactly.

The compiled kernels come from the in-place build when there is one;
otherwise the module builds the library once into a temporary directory
with `setup.py build_ext`, the same recipe as the in-place build. The
tests skip only when no C compiler is available.
"""

import gc
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import weakref
from pathlib import Path

import numpy as np
import pytest

from kcmkit import _compiled, _pure, cli, kernels, rng
from kcmkit.families import (FamilyTables, build_tables, make_family,
                             tables_for)
from kcmkit.lattice import Configuration, Geometry
from oracles import closure_naive

ROOT = Path(__file__).resolve().parents[1]


def _cc() -> list[str]:
    """The C compiler command setuptools would use; skips when missing."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip(f"no C compiler ({cc}) to build the compiled kernels")
    return shlex.split(cc)


@pytest.fixture(scope="module")
def core(tmp_path_factory):
    built = kernels.implementations().get("compiled")
    if built is not None:
        return built
    _cc()
    tmp = tmp_path_factory.mktemp("ckernels")
    p = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib",
         str(tmp / "lib"), "--build-temp", str(tmp / "temp")],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lib = _compiled.load(tmp / "lib" / "kcmkit")
    assert lib is not None, f"build produced no library\n{p.stdout}{p.stderr}"
    return lib


def _random_bits(geom, q, seed):
    return Configuration.random(geom, q, seed=seed).bits


def test_ckernels_compile_without_warnings(tmp_path):
    p = subprocess.run(
        [*_cc(), "-std=c99", "-O2", "-Wall", "-Wextra", "-Werror", "-c",
         str(ROOT / "src" / "kcmkit" / "_ckernels.c"),
         "-o", str(tmp_path / "_ckernels.o")],
        capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr


_GEOM = Geometry((3, 3), torus=True)
_T = tables_for(_GEOM, make_family("fa_kf", d=2, k=2))
_BITS = (np.arange(9) % 3 != 0).astype(np.uint8)
_VK = _GEOM.vertex_keys()
_RUN = (_T, _VK, 1, 0, 0.3, 2.0)
# a 3 x 3 CSR matrix, and the x and out of one product with it
_CSR = (np.array([0, 2, 3, 3]), np.array([0, 2, 1]), np.array([1.0, 2.0, 3.0]))
_X, _X4 = np.arange(3.0), np.arange(4.0)


def _read_only(a):
    a.flags.writeable = False
    return a


def _csr(**changes):
    indptr, indices, data = _CSR
    return (changes.get("indptr", indptr), changes.get("indices", indices),
            changes.get("data", data))


# (entry point, args, kwargs): every case but those in ACCEPTED is
# rejected. The entry point "mv" builds csr_operator(*_CSR) and calls it on
# (x, out).
BAD_ARGS = {
    "closure-short-bits": ("closure", (_BITS[:8], _T), {}),
    "closure-long-bits": ("closure", (np.ones(10, np.uint8), _T), {}),
    "closure-2d-bits": ("closure", (_BITS[None, :], _T), {}),
    "closure-wide-rows": ("closure", (np.ones((2, 10), np.uint8), _T), {}),
    "closure-3d-bits": ("closure", (_BITS[None, None, :], _T), {}),
    "closure-scalar-bits": ("closure", (np.uint8(1), _T), {}),
    "closure-rows-short-flippable": ("closure", (np.stack([_BITS] * 2), _T,
                                                 np.ones(8, bool)), {}),
    "closure-rows-2d-flippable": ("closure", (np.stack([_BITS] * 2), _T,
                                              np.ones((2, 9), bool)), {}),
    "closure-short-flippable": ("closure", (_BITS, _T, np.ones(8, bool)), {}),
    "closure-int-flippable": ("closure", (_BITS, _T, np.arange(9) % 2), {}),
    "closure-bits-2": ("closure", (_BITS * 2, _T), {}),
    "closure-bits-256": ("closure", (_BITS.astype(int) * 256, _T), {}),
    "closure-half-bits": ("closure", (_BITS * 0.5, _T), {}),
    "threshold-1d-order": ("threshold", (np.arange(9), _T), {}),
    "threshold-narrow-order": ("threshold", (np.zeros((2, 8), int), _T), {}),
    "threshold-site-outside": ("threshold", (np.arange(1, 10)[None], _T), {}),
    "threshold-repeated-site": ("threshold", (np.zeros((1, 9), int), _T), {}),
    "threshold-float-order": ("threshold", (np.arange(9)[None] + 0.7, _T), {}),
    "threshold-bool-order": ("threshold", (np.ones((1, 9), bool), _T), {}),
    "kcm_run-short-bits": ("kcm_run", (_BITS[:8], *_RUN), {}),
    "kcm_run-short-vkeys": ("kcm_run", (_BITS, _T, _VK[:8], 1, 0, 0.3, 2.0),
                            {}),
    "kcm_run-2d-bits": ("kcm_run", (_BITS[None, :], *_RUN), {}),
    "kcm_run-bits-2": ("kcm_run", (_BITS * 2, *_RUN), {}),
    "kcm_run-one-edge": ("kcm_run", (_BITS, *_RUN), {"batch_edges": [0.5]}),
    "kcm_run-2d-edges": ("kcm_run", (_BITS, *_RUN),
                         {"batch_edges": [[0.0, 1.0]]}),
    "kcm_run-text-q": ("kcm_run", (_BITS, _T, _VK, 1, 0, "x", 2.0), {}),
    "kcm_run-target-n": ("kcm_run", (_BITS, *_RUN), {"target": 9}),
    "kcm_run-nan-t_max": ("kcm_run", (_BITS, _T, _VK, 1, 0, 0.3, np.nan), {}),
    "kcm_run-float-max_events": ("kcm_run", (_BITS, *_RUN),
                                 {"max_events": 2.5}),
    "kcm_run-negative-max_events": ("kcm_run", (_BITS, *_RUN),
                                    {"max_events": -1}),
    "crossing-2d-stack": ("crossing_batch", (np.ones((3, 3), bool), 0), {}),
    "crossing-axis-2": ("crossing_batch", (np.ones((1, 3, 3), bool), 2), {}),
    "uniforms-2d-vkeys": ("uniforms", (1, 2, _VK[None, :], 0), {}),
    "uniforms-2d-replicas": ("uniforms", (1, np.zeros((2, 2), np.uint64),
                                          _VK, 0), {}),
    "kcm_run-float-seed": ("kcm_run", (_BITS, _T, _VK, 1.5, 0, 0.3, 2.0), {}),
    "kcm_run-float-replica": ("kcm_run", (_BITS, _T, _VK, 1, 2.7, 0.3, 2.0),
                              {}),
    "kcm_run-bool-replica": ("kcm_run", (_BITS, _T, _VK, 1, True, 0.3, 2.0),
                             {}),
    "uniforms-float-head": ("uniforms", (1.5, 2, _VK, 0), {}),
    "uniforms-float-counter": ("uniforms", (1, 2, _VK, 0.5), {}),
    "crossing-axis-true": ("crossing_batch", (np.ones((1, 3, 3), bool), True),
                           {}),
    "crossing-axis-float": ("crossing_batch", (np.ones((1, 3, 3), bool), 1.0),
                            {}),
    "csr-2d-indptr": ("csr_operator", _csr(indptr=_CSR[0][None]), {}),
    "csr-empty-indptr": ("csr_operator", _csr(indptr=np.zeros(0, int)), {}),
    "csr-float-indptr": ("csr_operator", _csr(indptr=_CSR[0] + 0.0), {}),
    "csr-indptr-from-1": ("csr_operator", _csr(indptr=[1, 2, 3, 3]), {}),
    "csr-indptr-falls": ("csr_operator", _csr(indptr=[0, 2, 1, 3]), {}),
    "csr-indptr-short-of-nnz": ("csr_operator", _csr(indptr=[0, 1, 2, 2]),
                                {}),
    "csr-indptr-past-nnz": ("csr_operator", _csr(indptr=[0, 2, 3, 4]), {}),
    "csr-column-n": ("csr_operator", _csr(indices=[0, 3, 1]), {}),
    "csr-column-minus-1": ("csr_operator", _csr(indices=[0, -1, 1]), {}),
    "csr-float-indices": ("csr_operator", _csr(indices=[0.0, 2.0, 1.0]), {}),
    "csr-2d-indices": ("csr_operator", _csr(indices=_CSR[1][None]), {}),
    "csr-short-data": ("csr_operator", _csr(data=_CSR[2][:2]), {}),
    "csr-complex-data": ("csr_operator", _csr(data=_CSR[2] * 1j), {}),
    "csr-text-data": ("csr_operator", _csr(data=["1", "2", "3"]), {}),
    "mv-short-x": ("mv", (_X[:2], np.empty(3)), {}),
    "mv-2d-x": ("mv", (_X[None], np.empty(3)), {}),
    "mv-int-x": ("mv", (np.arange(3), np.empty(3)), {}),
    "mv-list-x": ("mv", ([0.0, 1.0, 2.0], np.empty(3)), {}),
    "mv-strided-x": ("mv", (np.arange(6.0)[::2], np.empty(3)), {}),
    "mv-float32-out": ("mv", (_X, np.empty(3, np.float32)), {}),
    "mv-read-only-out": ("mv", (_X, _read_only(np.empty(3))), {}),
    "mv-out-is-x": ("mv", (_X, _X), {}),
    "mv-out-overlaps-x": ("mv", (_X4[:3], _X4[1:]), {}),
}

# an int mask reads as bool; a (1, n) block is one row
ACCEPTED = ("closure-int-flippable", "closure-2d-bits")


def _call(impl, entry, args, kwargs):
    if entry == "mv":
        return impl.csr_operator(*_CSR)(*args)
    return getattr(impl, entry)(*args, **kwargs)


@pytest.mark.parametrize("case", BAD_ARGS)
def test_bad_arguments_fail_alike(core, case):
    # both implementations run the same argument checks, so they raise the
    # same exception with the same message, or both accept the input
    entry, args, kwargs = BAD_ARGS[case]
    outcomes = []
    for impl in (core, _pure):
        try:
            outcomes.append(("ok", _call(impl, entry, args, kwargs)))
        except Exception as exc:     # the exception is the outcome compared
            outcomes.append((type(exc), str(exc)))
    (kind_a, a), (kind_b, b) = outcomes
    assert kind_a == kind_b, outcomes
    if kind_a == "ok":
        assert case in ACCEPTED
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
    else:
        assert a == b


FAMS = [
    ("fa_kf(2,2)", make_family("fa_kf", d=2, k=2), Geometry((8, 8), torus=True)),
    ("gg", make_family("gg"), Geometry((9, 7), torus=True)),
    ("east2", make_family("east", d=2), Geometry((6, 6))),
    ("fa1f-free-empty", make_family("fa_kf", d=2, k=1),
     Geometry((5, 5), outside_empty=True)),
    ("unconstrained", make_family("unconstrained", d=2), Geometry((4, 4), torus=True)),
    ("ne", make_family("north_east"), Geometry((6, 6), torus=True)),
]


@pytest.mark.parametrize("label,fam,geom", FAMS, ids=[f[0] for f in FAMS])
def test_closure_parity(core, label, fam, geom):
    t = tables_for(geom, fam)
    for seed in range(25):
        bits = _random_bits(geom, 0.35, seed)
        b1, r1 = core.closure(bits, t)
        b2, r2 = _pure.closure(bits, t)
        assert np.array_equal(b1, b2)
        assert np.array_equal(r1, r2)


MASKED = [FAMS[0], FAMS[1], FAMS[3], FAMS[5]]


@pytest.mark.parametrize("label,fam,geom", MASKED, ids=[f[0] for f in MASKED])
def test_closure_parity_with_masks(core, label, fam, geom):
    t = tables_for(geom, fam)
    n = geom.n_sites
    rng = np.random.default_rng(0)
    for _ in range(25):
        # a closure restricted to a region occupies the sites outside it
        bits = (rng.random(n) > 0.4).astype(np.uint8)
        flip = rng.random(n) > 0.3
        bits[rng.random(n) <= 0.2] = 1
        b1, r1 = core.closure(bits, t, flip)
        b2, r2 = _pure.closure(bits, t, flip)
        assert np.array_equal(b1, b2)
        assert np.array_equal(r1, r2)


BLOCKS = FAMS + [("fa9-routed-to-pure", make_family("fa_kf", d=9, k=2),
                  Geometry((2,) * 9, torus=True))]


@pytest.mark.parametrize("label,fam,geom", BLOCKS, ids=[f[0] for f in BLOCKS])
def test_closure_block_equals_stacked_rows(core, label, fam, geom):
    # an (R, n) block closes in one call to the bytes of R one-row calls, in
    # both implementations, with and without one flippable mask for all rows
    t = tables_for(geom, fam)
    n = geom.n_sites
    gen = np.random.default_rng(4)
    block = (gen.random((7, n)) >= 0.35).astype(np.uint8)
    flip = gen.random(n) > 0.3
    for extra in ((), (flip,)):
        blocks = []
        for impl in (core, _pure):
            out, rounds = impl.closure(block, t, *extra)
            rows = [impl.closure(row, t, *extra) for row in block]
            for got, want in ((out, [r[0] for r in rows]),
                              (rounds, [r[1] for r in rows])):
                want = np.stack(want)
                assert got.shape == block.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            none = impl.closure(block[:0], t, *extra)
            assert [(a.shape, a.dtype) for a in none] == [
                ((0, n), np.uint8), ((0, n), np.int32)]
            blocks.append(out.tobytes() + rounds.tobytes())
        assert blocks[0] == blocks[1]


THRESHOLD_CASES = FAMS + [
    ("fa2-free", make_family("fa_kf", d=2, k=2), Geometry((5, 6))),
    ("fa2-free-empty", make_family("fa_kf", d=2, k=2),
     Geometry((5, 6), outside_empty=True)),
    ("custom", make_family("custom", rules=[[(1, 0), (0, 2)], [(-1, -1)]]),
     Geometry((5, 5), torus=True)),
    ("custom-empty-rule", make_family("custom", d=1, rules=[[(1,)], []]),
     Geometry((7,))),
    ("east1-one-site", make_family("east", d=1), Geometry((1,), torus=True)),
    ("fa1f-one-site-empty-outside", make_family("fa_kf", d=1, k=1),
     Geometry((1,), outside_empty=True)),
]


# Families with many slots, on grids where several slots of a site read the
# same neighbour (2- and 3-wide tori, where +e and -e or +2e and -2e meet)
# or the pad (free boxes): the mask kernels set one bit per slot there.
WIDE = [
    ("gg-2x5", make_family("gg"), Geometry((2, 5), torus=True)),
    ("gg-3x4", make_family("gg"), Geometry((3, 4), torus=True)),
    ("gg-4x3", make_family("gg"), Geometry((4, 3), torus=True)),
    ("gg-free", make_family("gg"), Geometry((5, 4))),
    ("gg-free-empty", make_family("gg"), Geometry((4, 5), outside_empty=True)),
    ("gg-16x16", make_family("gg"), Geometry((16, 16), torus=True)),
    ("fa3-2x2x3", make_family("fa_kf", d=3, k=3), Geometry((2, 2, 3),
                                                            torus=True)),
    ("fa3-3x3x3", make_family("fa_kf", d=3, k=3), Geometry((3, 3, 3),
                                                            torus=True)),
    ("fa3-free", make_family("fa_kf", d=3, k=3), Geometry((4, 3, 3))),
    ("fa3-free-empty", make_family("fa_kf", d=3, k=3),
     Geometry((3, 4, 2), outside_empty=True)),
    ("fa3-8x8x8", make_family("fa_kf", d=3, k=3), Geometry((8, 8, 8),
                                                            torus=True)),
]


@pytest.mark.parametrize("label,fam,geom", WIDE, ids=[c[0] for c in WIDE])
def test_mask_kernels_parity_on_wide_families(core, label, fam, geom):
    t = tables_for(geom, fam)
    n = geom.n_sites
    gen = np.random.default_rng(n)
    for q in (0.3, 0.5, 0.7):
        for _ in range(4):
            bits = (gen.random(n) >= q).astype(np.uint8)
            b1, r1 = core.closure(bits, t)
            b2, r2 = _pure.closure(bits, t)
            assert np.array_equal(b1, b2) and np.array_equal(r1, r2)
            flip, hidden = gen.random(n) > 0.2, gen.random(n) <= 0.2
            bits = np.where(hidden, np.uint8(1), bits)
            b1, r1 = core.closure(bits, t, flip)
            b2, r2 = _pure.closure(bits, t, flip)
            assert np.array_equal(b1, b2) and np.array_equal(r1, r2)
    order = np.argsort(gen.random((6, n)), axis=1)
    assert np.array_equal(core.threshold(order, t), _pure.threshold(order, t))
    vkeys = geom.vertex_keys()
    bits = (gen.random(n) >= 0.4).astype(np.uint8)
    edges = np.array([0.0, 0.5, 2.0])
    a = core.kcm_run(bits, t, vkeys, 3, 1, 0.4, 2.0, target=n // 2,
                     batch_edges=edges, log_events=True)
    b = _pure.kcm_run(bits, t, vkeys, 3, 1, 0.4, 2.0, target=n // 2,
                      batch_edges=edges, log_events=True)
    assert a["legal_updates"] > 0
    _assert_same_run(a, b)


def test_more_than_sixteen_slots_route_to_pure(core, monkeypatch):
    # fa_kf at d=9 has 18 slots, too many for uint16 masks: the compiled
    # binding must hand its calls to _pure without touching the library
    geom = Geometry((2,) * 9, torus=True)
    t = tables_for(geom, make_family("fa_kf", d=9, k=2))
    assert t.sat is None
    monkeypatch.setattr(core, "_lib", None)
    n = geom.n_sites
    gen = np.random.default_rng(9)
    bits = (gen.random(n) >= 0.3).astype(np.uint8)
    flip = gen.random(n) > 0.2
    for args in ((bits, t), (bits, t, flip)):
        a, b = core.closure(*args), _pure.closure(*args)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    order = np.argsort(gen.random((2, n)), axis=1)
    assert np.array_equal(core.threshold(order, t), _pure.threshold(order, t))
    vkeys = geom.vertex_keys()
    _assert_same_run(
        core.kcm_run(bits, t, vkeys, 2, 0, 0.3, 0.5, log_events=True),
        _pure.kcm_run(bits, t, vkeys, 2, 0, 0.3, 0.5, log_events=True))


def _prefix_spans(geom, fam, row, k) -> bool:
    """Does the closure empty the grid whose empty sites are row[:k]?"""
    bits = np.ones(geom.n_sites, dtype=np.uint8)
    bits[row[:k]] = 0
    out, _ = closure_naive(Configuration(geom, bits), fam)
    return not out.bits.any()


@pytest.mark.parametrize("label,fam,geom", THRESHOLD_CASES,
                         ids=[c[0] for c in THRESHOLD_CASES])
def test_threshold_parity_and_minimality(core, label, fam, geom):
    t = tables_for(geom, fam)
    n = geom.n_sites
    gen = np.random.default_rng(len(label))
    order = np.argsort(gen.random((10, n)), axis=1)
    k = core.threshold(order, t)
    assert k.dtype == np.int64 and k.shape == (10,)
    assert np.array_equal(k, _pure.threshold(order, t))
    for row, kk in zip(order, k.tolist()):
        assert 0 <= kk <= n
        assert _prefix_spans(geom, fam, row, kk)
        assert kk == 0 or not _prefix_spans(geom, fam, row, kk - 1)


def test_threshold_no_rows(core):
    t = tables_for(Geometry((4, 4), torus=True),
                   make_family("fa_kf", d=2, k=2))
    for impl in (core, _pure):
        k = impl.threshold(np.zeros((0, 16), dtype=np.int64), t)
        assert k.dtype == np.int64 and k.shape == (0,)


def test_threshold_rejects_bad_orders(core):
    geom = Geometry((3, 3), torus=True)
    t = tables_for(geom, make_family("fa_kf", d=2, k=2))
    for impl in (core, _pure):
        with pytest.raises(ValueError, match="shape"):
            impl.threshold(np.arange(9), t)
        with pytest.raises(ValueError, match="shape"):
            impl.threshold(np.zeros((2, 8), dtype=np.int64), t)
        with pytest.raises(ValueError, match="outside"):
            impl.threshold(np.arange(9)[None, :] + 1, t)
        # a row that repeats a site may never empty the grid
        with pytest.raises(ValueError, match="does not empty"):
            impl.threshold(np.zeros((1, 9), dtype=np.int64), t)


@pytest.mark.parametrize("label,fam,geom", THRESHOLD_CASES[:6],
                         ids=[c[0] for c in THRESHOLD_CASES[:6]])
def test_threshold_with_tied_uniforms(core, label, fam, geom):
    # with T the uniform of the k-th site in stable-sorted order, the
    # closure of {u < q} empties the grid iff q > T, ties or not
    t = tables_for(geom, fam)
    gen = np.random.default_rng(7)
    u = gen.integers(1, 6, size=(8, geom.n_sites)) / 6.0
    order = np.argsort(u, axis=1, kind="stable")
    k = core.threshold(order, t)
    assert np.array_equal(k, _pure.threshold(order, t))
    for row_u, row, kk in zip(u, order, k.tolist()):
        T = row_u[row[kk - 1]] if kk else -np.inf
        for q in np.unique(np.concatenate([row_u, row_u + 1 / 12, [0.0]])):
            out, _ = core.closure((row_u >= q).astype(np.uint8), t)
            assert (not out.any()) == (q > T)


def test_qc_cli_parity(core, capsys, monkeypatch):
    # `kcm qc` prints the same bytes with the pure kernels as with the
    # compiled ones
    argv = ["qc", "--model", "fa2", "--n", "6", "--replicas", "30",
            "--seed", "4", "--tol", "1e-4"]
    src = str(ROOT / "src")
    env = dict(os.environ, KCMKIT_PURE="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    p = subprocess.run(
        [sys.executable, "-c", "import sys; from kcmkit import cli, kernels; "
         "assert kernels.IMPLEMENTATION == 'pure'; "
         "sys.exit(cli.main(sys.argv[1:]))", *argv],
        env=env, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr
    for name in ("closure", "threshold", "kcm_run", "crossing_batch",
                 "uniforms"):
        monkeypatch.setattr(kernels, name, getattr(core, name))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == p.stdout


@pytest.mark.parametrize("label,fam,geom", FAMS[:4], ids=[f[0] for f in FAMS[:4]])
def test_kcm_run_parity_bit_identical(core, label, fam, geom):
    t = tables_for(geom, fam)
    vkeys = geom.vertex_keys()
    for seed in (1, 7):
        bits = _random_bits(geom, 0.3, seed + 100)
        edges = np.array([0.0, 1.0, 3.0, 7.5])
        a = core.kcm_run(bits, t, vkeys, seed, 0, 0.3, 7.5,
                         target=0, batch_edges=edges, log_events=True)
        b = _pure.kcm_run(bits, t, vkeys, seed, 0, 0.3, 7.5,
                          target=0, batch_edges=edges, log_events=True)
        _assert_same_run(a, b)


def _assert_same_run(a, b):
    assert np.array_equal(a["bits"], b["bits"])
    assert a["t_end"] == b["t_end"]
    assert a["rings"] == b["rings"]
    assert a["legal_updates"] == b["legal_updates"]
    assert a["flips"] == b["flips"]
    assert a["t_target_empty"] == b["t_target_empty"]
    assert a["t_target_first_legal"] == b["t_target_first_legal"]
    assert np.array_equal(a["batch_integrals"], b["batch_integrals"])
    assert (a["events"] is None) == (b["events"] is None)
    for u, v in zip(a["events"] or (), b["events"] or ()):
        assert u.dtype == v.dtype
        assert np.array_equal(u, v)
    assert a["status"] == b["status"]


def test_kcm_run_parity_bool_and_strided_bits(core):
    fam = make_family("fa_kf", d=2, k=2)
    geom = Geometry((6, 6), torus=True)
    t = tables_for(geom, fam)
    vkeys = geom.vertex_keys()
    wide = _random_bits(Geometry((72,), torus=True), 0.4, 3)
    before = wide.copy()
    for bits in (wide[::2], (wide == 1)[::2]):
        assert not bits.flags.c_contiguous
        a = core.kcm_run(bits, t, vkeys, 4, 1, 0.4, 6.0, log_events=True)
        b = _pure.kcm_run(bits, t, vkeys, 4, 1, 0.4, 6.0, log_events=True)
        _assert_same_run(a, b)
    assert np.array_equal(wide, before)


def test_kcm_run_event_log_longer_than_first_buffer(core, monkeypatch):
    # the binding sizes its first event buffer from the expected ring count
    # and reruns once with the exact size when the log outgrows it
    monkeypatch.setattr(_compiled, "_EVENT_CAP", 100)
    fam = make_family("unconstrained", d=1)
    geom = Geometry((40,), torus=True)
    t = tables_for(geom, fam)
    vkeys = geom.vertex_keys()
    bits = np.ones(40, dtype=np.uint8)
    a = core.kcm_run(bits, t, vkeys, 9, 0, 0.9, 30.0, log_events=True)
    b = _pure.kcm_run(bits, t, vkeys, 9, 0, 0.9, 30.0, log_events=True)
    assert a["events"][0].size > 100
    _assert_same_run(a, b)


def test_kcm_run_parity_stop_and_cap(core):
    fam = make_family("east", d=1)
    geom = Geometry((12,), torus=True)
    t = tables_for(geom, fam)
    vkeys = geom.vertex_keys()
    bits = np.ones(12, dtype=np.uint8)
    bits[3] = 0
    a = core.kcm_run(bits, t, vkeys, 5, 2, 0.4, 1e9, target=7,
                     stop_when_target_empty=True)
    b = _pure.kcm_run(bits, t, vkeys, 5, 2, 0.4, 1e9, target=7,
                      stop_when_target_empty=True)
    assert a["status"] == b["status"] == "target"
    assert a["t_target_empty"] == b["t_target_empty"] > 0
    assert np.array_equal(a["bits"], b["bits"])
    a = core.kcm_run(bits, t, vkeys, 5, 2, 0.4, 1e9, max_events=500)
    b = _pure.kcm_run(bits, t, vkeys, 5, 2, 0.4, 1e9, max_events=500)
    assert a["status"] == b["status"] == "max_events"
    assert a["rings"] == b["rings"] == 500
    assert a["t_end"] == b["t_end"]
    # None means no cap in both implementations
    a = core.kcm_run(bits, t, vkeys, 5, 2, 0.4, 20.0, max_events=None)
    b = _pure.kcm_run(bits, t, vkeys, 5, 2, 0.4, 20.0, max_events=None)
    assert a["status"] == b["status"] == "t_max"
    _assert_same_run(a, b)


def test_closure_parity_fresh_tables(core):
    # the binding caches converted tables per FamilyTables object; a new
    # object, even at a freed object's address, must not get stale tables
    fam = make_family("fa_kf", d=2, k=2)
    cases = []
    for i, dims in enumerate([(4, 4), (5, 3), (6, 2), (3, 3), (5, 5)]):
        t = build_tables(Geometry(dims, torus=True), fam)
        cases.append((vars(t).copy(), _random_bits(t.geom, 0.3, i)))
    for fields, bits in cases * 4:
        t = FamilyTables(**fields)
        a, b = core.closure(bits, t), _pure.closure(bits, t)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        del t


def test_converted_tables_die_with_their_family_tables(core):
    # the binding caches converted tables per FamilyTables object, but must
    # not keep the object alive
    t = build_tables(Geometry((4, 4), torus=True),
                     make_family("fa_kf", d=2, k=2))
    bits = _random_bits(t.geom, 0.3, 0)
    core.closure(bits, t)
    core.kcm_run(bits, t, t.geom.vertex_keys(), 1, 0, 0.3, 1.0)
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None


# Builds each bad FamilyTables in a fresh interpreter and, when construction
# accepts it, runs both closures on it: a compiled kernel that reads out of
# bounds may crash the process, which must not take pytest down with it.
_BAD_TABLES = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import numpy as np
from kcmkit import _compiled, _pure
from kcmkit.families import FamilyTables, build_tables, make_family
from kcmkit.lattice import Geometry

core = _compiled.Kernels(Path(sys.argv[2]))
good = vars(build_tables(Geometry((3, 3), torus=True),
                         make_family("fa_kf", d=2, k=2)))
nbr, rev = good["nbr"], good["rev"]


def poked(a, value):
    a = a.copy()
    a[4, 1] = value
    return a


CASES = {
    "nbr-past-pad": {"nbr": poked(nbr, 10)},
    "nbr-far": {"nbr": poked(nbr, 1 << 40)},
    "nbr-negative": {"nbr": poked(nbr, -1)},
    "rev-negative": {"rev": poked(rev, -(1 << 40))},
    "rev-past-pad": {"rev": poked(rev, 10)},
    "nbr-narrow": {"nbr": np.ascontiguousarray(nbr[:, :3])},
    "nbr-int32": {"nbr": nbr.astype(np.int32)},
    "nbr-fortran": {"nbr": np.asfortranarray(nbr)},
    "rev-short": {"rev": np.ascontiguousarray(rev[:8])},
    "sat-short": {"sat": good["sat"][:8].copy()},
    "sat-none": {"sat": None},
    "slot-past-S": {"rules": good["rules"][:-1] + (np.array([2, 4]),)},
    "slot-negative": {"rules": (np.array([-1, 0]),) + good["rules"][1:]},
    "pad-2": {"pad_empty": 2},
}
bits = np.ones(9, dtype=np.uint8)
bits[[0, 8]] = 0
for name, change in CASES.items():
    try:
        t = FamilyTables(**dict(good, **change))
    except ValueError as exc:
        print(name, "ValueError", exc, flush=True)
        continue
    for impl in (_pure, core):
        try:
            impl.closure(bits, t)
            print(name, "accepted", flush=True)
        except Exception as exc:
            print(name, type(exc).__name__, exc, flush=True)
"""


def test_bad_family_tables_fail_at_construction(core):
    # the C kernels index with nbr and rev unchecked, so a bad layout must
    # raise ValueError when the FamilyTables is built, for both kernels
    src = Path(_compiled.__file__).resolve().parents[1]
    p = subprocess.run(
        [sys.executable, "-c", _BAD_TABLES, str(src), core._lib._name],
        capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stdout + p.stderr
    lines = p.stdout.splitlines()
    assert len(lines) == 14, lines
    assert all(line.split()[1] == "ValueError" for line in lines), lines


def test_tables_for_arrays_are_read_only():
    t = tables_for(Geometry((4, 4), torus=True), make_family("gg"))
    for a in (t.nbr, t.rev, t.sat, *t.rules):
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0


@pytest.mark.parametrize("shape", [(60, 9, 13), (0, 9, 13), (40, 1, 7),
                                   (40, 7, 1), (10, 1, 1), (1, 0, 3),
                                   (1, 3, 0)])
def test_crossing_parity(core, shape):
    rng = np.random.default_rng(3)
    grids = rng.random(shape) < 0.55
    for axis in (0, 1):
        a = core.crossing_batch(grids, axis)
        assert a.dtype == bool and a.shape == (shape[0],)
        assert np.array_equal(a, _pure.crossing_batch(grids, axis))


def test_crossing_known_cases(core):
    g = np.zeros((1, 3, 3), dtype=bool)
    g[0, :, 1] = True
    assert core.crossing_batch(g, 0)[0]
    assert not core.crossing_batch(g, 1)[0]
    assert _pure.crossing_batch(g, 0)[0]
    assert not _pure.crossing_batch(g, 1)[0]
    full = np.ones((1, 2, 2), dtype=bool)
    assert core.crossing_batch(full, 0)[0] and core.crossing_batch(full, 1)[0]


def _head(seed, stream):
    return rng.mix64(rng.mix64(seed & rng.MASK64) ^ stream)


def _assert_same_uniforms(core, head, replicas, vkeys, counter):
    a = core.uniforms(head, replicas, vkeys, counter)
    b = _pure.uniforms(head, replicas, vkeys, counter)
    assert a.dtype == b.dtype == np.float64
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()
    return a


@pytest.mark.parametrize("R,N", [(0, 7), (3, 0), (0, 0), (1, 1), (1, 50),
                                 (6, 25)])
def test_uniforms_parity_shapes(core, R, N):
    vkeys = Geometry((max(N, 1),)).vertex_keys()[:N]
    ids = np.arange(R, dtype=np.uint64) * 7 + 3
    for replicas in (R, ids):
        out = _assert_same_uniforms(core, _head(11, rng.STREAM_CONFIG),
                                    replicas, vkeys, 2)
        assert out.shape == (R, N)
        assert ((out > 0) & (out < 1)).all()


def test_uniforms_parity_int_equals_ids(core):
    vkeys = Geometry((5, 4)).vertex_keys()
    head = _head(3, rng.STREAM_AUX)
    for impl in (core, _pure):
        a = impl.uniforms(head, 4, vkeys, 0)
        b = impl.uniforms(head, np.arange(4), vkeys, 0)
        assert a.tobytes() == b.tobytes()


def test_uniforms_parity_wrapped_keys(core):
    wide = Geometry((9, 8)).vertex_keys()
    keys = [wide, wide[::3], wide.view(np.int64), wide.view(np.int64)[1::2]]
    assert not keys[1].flags.c_contiguous
    replica_sets = [np.array([-1, -2**63, 0], dtype=np.int64),
                    np.array([2**64 - 1, 2**63], dtype=np.uint64),
                    [-1, 2**63 + 1]]
    for seed in (-1, -2**70, 2**64, 2**64 + 5, 2**80 + 1):
        for counter in (0, 1, 2**64 - 1):
            for vkeys in keys:
                for replicas in replica_sets:
                    _assert_same_uniforms(core, _head(seed, rng.STREAM_CLOCK),
                                          replicas, vkeys, counter)


def test_uniforms_match_scalar_uniform(core):
    # the batch kernels and rng.uniform hash the same key words
    vkeys = Geometry((3, 3)).vertex_keys()
    ids = np.array([0, 5, 2**64 - 1], dtype=np.uint64)
    for impl in (core, _pure):
        out = impl.uniforms(_head(2**64 + 9, 1), ids, vkeys, 2**64 - 1)
        for r, rep in enumerate(ids):
            for i, vk in enumerate(vkeys):
                assert out[r, i] == rng.uniform(9, 1, int(rep), int(vk),
                                                2**64 - 1)


def _random_csr(seed, n, max_len):
    """An (n, n) CSR matrix with rows of 0..max_len entries, columns
    unsorted and repeated, and values spread over 16 decades, ±0.0 included."""
    g = np.random.default_rng(seed)
    indptr = np.concatenate(([0], np.cumsum(g.integers(0, max_len + 1, n))))
    nnz = int(indptr[-1])
    indices = g.integers(0, max(n, 1), nnz)
    data = g.standard_normal(nnz) * 10.0 ** g.integers(-8, 9, nnz)
    data[g.random(nnz) < 0.05] = 0.0
    data[g.random(nnz) < 0.05] = -0.0
    return indptr, indices, data


@pytest.mark.parametrize("n,max_len", [(0, 0), (1, 0), (1, 3), (7, 3),
                                       (300, 12), (2000, 40)])
def test_csr_operator_parity_with_scipy(core, n, max_len):
    # both implementations sum each row in stored order from 0.0, the bytes
    # of scipy's csr_matvec, whatever out held before
    import scipy.sparse as sp

    for seed in range(3):
        indptr, indices, data = _random_csr(seed, n, max_len)
        x = np.random.default_rng(seed + 100).standard_normal(n) * 1e3
        want = sp.csr_matrix((data, indices, indptr), shape=(n, n)) @ x
        index_type = (np.int64, np.int32, np.uint16)[seed]
        for impl in (core, _pure):
            arrays = [indptr.copy(), indices.astype(index_type), data.copy()]
            mv = impl.csr_operator(*arrays)
            out = np.full(n, np.nan)
            assert mv(x, out) is out
            assert out.tobytes() == want.tobytes(), impl.IMPL_NAME
            for a in arrays:  # the operator copied them when it was built
                a[:] = 0
            assert mv(x, out).tobytes() == want.tobytes(), impl.IMPL_NAME
