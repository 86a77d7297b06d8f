import dataclasses
import os
import re
import subprocess
import sys
from importlib.machinery import ModuleSpec

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from kcmkit import kernels, spectral
from kcmkit.families import make_family
from kcmkit.lattice import Configuration, Geometry
from kcmkit.spectral import (CONSISTENCY_TOL, GeneratorMatrix, build_generator,
                             dirichlet_and_variance, poincare_ratio,
                             second_eigenvector,
                             spectral_gap)
from oracles import (constraint_satisfied, generator_csr, relaxation_time,
                     relaxation_time_dense, symmetrized_scipy)


def _ring(n):
    return Geometry((n,), torus=True)


def _loop_legal(s, geom, fam):
    """The sites with a legal flip in state s (bit v set: site v occupied),
    read off oracles.constraint_satisfied site by site."""
    cfg = Configuration(geom, [(s >> v) & 1 for v in range(geom.n_sites)])
    return [v for v in range(geom.n_sites)
            if constraint_satisfied(cfg, fam, v)]


def _loop_generator(geom, fam, q):
    """The per-state first-in-first-out search and assembly that
    build_generator vectorizes: (states, mu, L)."""
    n, p = geom.n_sites, 1.0 - q
    index, states, head, legal = {0: 0}, [0], 0, {}
    while head < len(states):
        s = states[head]
        head += 1
        legal[s] = _loop_legal(s, geom, fam)
        for v in legal[s]:
            if s ^ (1 << v) not in index:
                index[s ^ (1 << v)] = len(states)
                states.append(s ^ (1 << v))
    occ = np.array([bin(s).count("1") for s in states], dtype=np.int64)
    logw = occ * np.log(p) + (n - occ) * np.log(q)
    w = np.exp(logw - logw.max())
    rows, cols, vals = [], [], []
    diag = np.zeros(len(states))
    for i, s in enumerate(states):
        for v in legal[s]:
            rate = q if (s >> v) & 1 else p
            rows.append(i)
            cols.append(index[s ^ (1 << v)])
            vals.append(rate)
            diag[i] -= rate
    rows.extend(range(len(states)))
    cols.extend(range(len(states)))
    vals.extend(diag)
    L = sp.csr_matrix((vals, (rows, cols)), shape=(len(states), len(states)))
    return np.asarray(states, dtype=np.int64), w / w.sum(), L


def _loop_dirichlet(gen, f, geom, fam):
    """D(f) summed pair by pair from the empty side of each legal flip of
    gen, the generator of fam on geom."""
    index = {s: i for i, s in enumerate(map(int, gen.states))}
    qp = gen.q * (1.0 - gen.q)
    D = 0.0
    for i, s in enumerate(map(int, gen.states)):
        for v in _loop_legal(s, geom, fam):
            if not (s >> v) & 1:
                j = index[s ^ (1 << v)]
                D += (gen.mu[i] + gen.mu[j]) * qp * (f[i] - f[j]) ** 2
    return D


ORACLE_CASES = [
    ("fa1-ring", Geometry((6,), torus=True), make_family("fa_kf", d=1, k=1)),
    ("east-free", Geometry((7,)), make_family("east", d=1)),
    ("fa2-3x4", Geometry((3, 4)), make_family("fa_kf", d=2, k=2)),
    ("gg-3x3", Geometry((3, 3)), make_family("gg")),
    ("ne-3x4-torus", Geometry((3, 4), torus=True), make_family("north_east")),
    ("fa2-outside-empty", Geometry((3, 3), outside_empty=True),
     make_family("fa_kf", d=2, k=2)),
    ("one-site", Geometry((1,)), make_family("unconstrained", d=1)),
]

# `kcm gap --model fa1 --dims 3,5`: 32,767 states, above the dense cutoff
FA1_3X5 = ("fa1-3x5", Geometry((3, 5)), make_family("fa_kf", d=2, k=1))


def _same_csr_bytes(got, want):
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                 (got.data, want.data)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ------------------------------------------------------------- construction

def test_single_unconstrained_site():
    gen = build_generator(Geometry((1,)), make_family("unconstrained", d=1), 0.3)
    assert gen.size == 2
    lam = np.sort(np.linalg.eigvals(generator_csr(gen).toarray()).real)
    assert lam == pytest.approx([-1.0, 0.0], abs=1e-12)


def test_class_excludes_frozen_states():
    # the all-occupied configuration has no legal flip for fa_kf, so the
    # class of the all-empty configuration misses exactly that state
    gen = build_generator(_ring(3), make_family("fa_kf", d=1, k=1), 0.5)
    assert gen.size == 7  # 2^3 - 1
    gen4 = build_generator(_ring(4), make_family("east", d=1), 0.5)
    assert gen4.size == 15  # 2^4 - 1


@pytest.mark.parametrize("label,geom,fam", ORACLE_CASES,
                         ids=[c[0] for c in ORACLE_CASES])
def test_generator_bytes_match_loop_oracle(label, geom, fam):
    gen = build_generator(geom, fam, 0.3)
    states, mu, L = _loop_generator(geom, fam, 0.3)
    for got, want in ((gen.states, states), (gen.mu, mu)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    _same_csr_bytes(generator_csr(gen), L)


@pytest.mark.parametrize("label,geom,fam", ORACLE_CASES + [FA1_3X5],
                         ids=[c[0] for c in ORACLE_CASES + [FA1_3X5]])
def test_dense_symmetrized_bytes_match_sparse(label, geom, fam):
    # the dense eigensolvers scatter _symmetrized(gen), and the sparse solve
    # reads it plus c I: it must hold the bytes of the scipy construction
    gen = build_generator(geom, fam, 0.3)
    want = symmetrized_scipy(gen)
    got = sp.csr_matrix((spectral._symmetrized(gen), gen.indices, gen.indptr),
                        shape=want.shape)
    _same_csr_bytes(got, want)
    if gen.size <= spectral._DENSE_CUTOFF:
        assert spectral._dense_S(gen).tobytes() == want.toarray().tobytes()


# `kcm gap --model fa1 --dims 3,5`, and an 8,191-state ring
SPARSE_CASES = [FA1_3X5[1:] + (0.3,),
                (_ring(13), make_family("fa_kf", d=1, k=1), 0.5)]


@pytest.mark.parametrize("geom,fam,q", SPARSE_CASES,
                         ids=["fa1-3x5", "fa1-ring13"])
def test_sparse_solve_bytes_match_eigsh(geom, fam, q, monkeypatch):
    # the ARPACK loop takes eigsh's steps on S + c I, with either kernel
    # implementation's matrix-vector product: same values, same vector
    gen = build_generator(geom, fam, q)
    assert gen.size > spectral._DENSE_CUTOFF
    S = symmetrized_scipy(gen)
    c = float(2.0 * np.abs(S.diagonal()).max() + 1.0)
    A = (S + c * sp.identity(gen.size, format="csr")).tocsr()
    v0 = np.full(gen.size, 1.0 / np.sqrt(gen.size))
    vals = spla.eigsh(A, k=2, which="LA", v0=v0, return_eigenvectors=False)
    vecs = spla.eigsh(A, k=2, which="LA", v0=v0)[1]
    want_vec = (vecs[:, 0] / np.sqrt(gen.mu)).tobytes()
    for impl in kernels.implementations().values():
        monkeypatch.setattr(kernels, "csr_operator", impl.csr_operator)
        got_c, got = spectral._top_pair(gen, vectors=False)
        assert got_c == c and got.tobytes() == vals.tobytes(), impl.IMPL_NAME
        assert second_eigenvector(gen).tobytes() == want_vec, impl.IMPL_NAME


def _diagonal_operator(n):
    return kernels.csr_operator(np.arange(n + 1), np.arange(n),
                                np.arange(n, dtype=float))


def test_lanczos_restart_is_reproducible(monkeypatch):
    # a start vector that is an eigenvector spans an invariant subspace, so
    # ARPACK asks (ido 4) for a new one: a fixed-seed draw, not a fresh one
    lib = spectral._arpacklib()
    asked = []

    class Recorder:
        dseupd_wrap = lib.dseupd_wrap

        def dsaupd_wrap(self, state, *args):
            lib.dsaupd_wrap(state, *args)
            asked.append(state["ido"])

    monkeypatch.setattr(spectral, "_arpacklib", Recorder)
    v0 = np.zeros(50)
    v0[3] = 1.0
    vals, vecs = spectral._lanczos_top(_diagonal_operator(50), 50, 2, v0, True)
    assert 4 in asked
    assert vals == pytest.approx([48.0, 49.0], abs=1e-12)
    again = spectral._lanczos_top(_diagonal_operator(50), 50, 2, v0, True)
    assert again[0].tobytes() == vals.tobytes()
    assert again[1].tobytes() == vecs.tobytes()


def test_lanczos_failure_raises_with_arpack_code():
    with pytest.raises(RuntimeError, match="info -9"):   # zero start vector
        spectral._lanczos_top(_diagonal_operator(30), 30, 2, np.zeros(30),
                              False)


def test_missing_arpack_library_names_its_path(monkeypatch, tmp_path):
    origin = tmp_path / "scipy" / "__init__.py"
    monkeypatch.setattr(spectral.importlib.util, "find_spec",
                        lambda name: ModuleSpec(name, None, origin=str(origin)))
    spectral._arpacklib.cache_clear()
    try:
        with pytest.raises(ImportError, match=re.escape(
                str(origin.parent / "sparse" / "linalg" / "_eigen" / "arpack"
                    / "_arpacklib"))):
            spectral._arpacklib()
    finally:
        spectral._arpacklib.cache_clear()


def test_reversibility_check_catches_one_changed_entry():
    # east on 18 sites has 2^17 states, past the 2^16 that _reverse_perm
    # sorts as uint16 keys, so its int32-key sort runs too. Its all-empty
    # row weighs 0.3^17: a change of 1e-6 there moves the flux by about
    # 1e-15, below the absolute REVERSIBILITY_TOL, so it changes by 100%.
    for geom, fam, change in [
            (Geometry((3, 3)), make_family("fa_kf", d=2, k=2), 1e-6),
            (Geometry((18,)), make_family("east", d=1), 1.0)]:
        gen = build_generator(geom, fam, 0.3)
        spectral._assert_reversible(gen)
        assert gen.reverse.tolist() == np.argsort(
            gen.indices.astype(np.int64), kind="stable").tolist()
        off = np.flatnonzero(gen.row_ids() != gen.indices)
        for k in (off[0], off[off.size // 2], off[-1]):
            data = gen.data.copy()
            data[k] *= 1.0 + change
            with pytest.raises(AssertionError,
                               match="reversibility violated"):
                spectral._assert_reversible(
                    dataclasses.replace(gen, data=data))


def test_reversibility_check_catches_a_missing_reverse():
    # the cycle 0 -> 1 -> 2 -> 0 keeps the uniform measure stationary and
    # every column count equal to its row count, but has no reverse moves
    cycle = GeneratorMatrix(
        q=0.5, states=np.arange(3, dtype=np.int64), mu=np.full(3, 1.0 / 3.0),
        indptr=np.array([0, 2, 4, 6], dtype=np.int32),
        indices=np.array([0, 1, 1, 2, 0, 2], dtype=np.int32),
        data=np.array([-1.0, 1.0, -1.0, 1.0, 1.0, -1.0]))
    with pytest.raises(AssertionError, match="has no reverse"):
        spectral._assert_reversible(cycle)


@pytest.mark.parametrize("label,geom,fam", ORACLE_CASES,
                         ids=[c[0] for c in ORACLE_CASES])
def test_dirichlet_matches_loop_oracle(label, geom, fam):
    gen = build_generator(geom, fam, 0.35)
    f = np.random.default_rng(5).standard_normal(gen.size)
    D, _ = dirichlet_and_variance(gen, f)
    want = _loop_dirichlet(gen, f, geom, fam)
    assert abs(D - want) <= CONSISTENCY_TOL * max(1.0, abs(want))


def test_row_sums_zero_and_cap():
    gen = build_generator(_ring(4), make_family("east", d=1), 0.3)
    row_sums = np.asarray(generator_csr(gen).sum(axis=1)).ravel()
    assert np.abs(row_sums).max() < 1e-14
    with pytest.raises(ValueError):
        build_generator(Geometry((5, 5), torus=True),
                        make_family("fa_kf", d=2, k=1), 0.3)


def test_mu_is_conditioned_product_measure():
    q = 0.3
    gen = build_generator(_ring(3), make_family("fa_kf", d=1, k=1), q)
    # weights prop to p^occupied q^empty over the 7 reachable states
    w = {s: (1 - q) ** bin(s).count("1") * q ** (3 - bin(s).count("1"))
         for s in map(int, gen.states)}
    z = sum(w.values())
    for s, m in zip(map(int, gen.states), gen.mu):
        assert m == pytest.approx(w[s] / z, rel=1e-12)


# ---------------------------------------------------------------- spectrum

@pytest.mark.parametrize("q", [0.3, 0.5])
def test_sparse_matches_dense_oracle(q):
    for geom, fam in ((_ring(4), make_family("east", d=1)),
                      (_ring(3), make_family("fa_kf", d=1, k=1))):
        gen = build_generator(geom, fam, q)
        assert relaxation_time(gen) == pytest.approx(
            relaxation_time_dense(gen), abs=1e-8)


def test_independent_sites_have_unit_relaxation_time():
    gen = build_generator(Geometry((3,)), make_family("unconstrained", d=1), 0.4)
    assert gen.size == 8
    assert relaxation_time(gen) == pytest.approx(1.0, abs=1e-10)


def test_trel_monotone_in_q():
    fam = make_family("fa_kf", d=1, k=1)
    t_02 = relaxation_time(build_generator(_ring(4), fam, 0.2))
    t_04 = relaxation_time(build_generator(_ring(4), fam, 0.4))
    assert t_02 >= t_04


def test_gap_flags():
    gen = build_generator(_ring(3), make_family("fa_kf", d=1, k=1), 0.5)
    gap, degenerate = spectral_gap(gen)
    assert gap > 0 and not degenerate


# ------------------------------------------------------------ quadratic form

def test_dirichlet_trivial_cases():
    gen = build_generator(_ring(3), make_family("fa_kf", d=1, k=1), 0.4)
    D, var = dirichlet_and_variance(gen, np.ones(gen.size))
    assert D == pytest.approx(0.0, abs=1e-15)
    assert var == pytest.approx(0.0, abs=1e-15)


def test_dirichlet_single_site_indicator():
    q = 0.3
    gen = build_generator(Geometry((1,)), make_family("unconstrained", d=1), q)
    f = np.array([1.0 if s == 0 else 0.0 for s in map(int, gen.states)])
    D, var = dirichlet_and_variance(gen, f)
    assert var == pytest.approx(q * (1 - q), rel=1e-12)
    assert D == pytest.approx(q * (1 - q), rel=1e-12)


def test_dirichlet_forms_agree_on_random_f():
    # the cross-check against <f, -Lf> runs inside dirichlet_and_variance
    gen = build_generator(_ring(3), make_family("east", d=1), 0.35)
    rng = np.random.default_rng(1)
    for _ in range(100):
        dirichlet_and_variance(gen, rng.standard_normal(gen.size))


def test_poincare_random_f_below_trel():
    gen = build_generator(_ring(4), make_family("east", d=1), 0.5)
    trel = relaxation_time(gen)
    rng = np.random.default_rng(7)
    fs = [rng.standard_normal(gen.size) for _ in range(200)]
    assert poincare_ratio(gen, fs) <= trel + 1e-8


def test_poincare_enumerates_edges_once(monkeypatch):
    gen = build_generator(_ring(4), make_family("east", d=1), 0.4)
    rng = np.random.default_rng(3)
    fs = [rng.standard_normal(gen.size) for _ in range(20)]
    want = max(var / D for D, var in
               (dirichlet_and_variance(gen, f) for f in fs))
    calls = []
    real = spectral._dirichlet_pairs

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(spectral, "_dirichlet_pairs", counted)
    assert poincare_ratio(gen, fs) == want
    assert len(calls) == 1


def test_poincare_cross_checks_every_f():
    # with L doubled, D(f) and <f, -Lf> agree only for constant f: the
    # check must still fire on the last f, after the pairs are reused
    gen = build_generator(_ring(4), make_family("east", d=1), 0.4)
    skewed = dataclasses.replace(gen, data=gen.data * 2.0)
    fs = [np.ones(gen.size)] * 3 + [np.arange(gen.size, dtype=float)]
    assert poincare_ratio(skewed, fs[:3]) == 0.0
    with pytest.raises(AssertionError, match="Dirichlet forms disagree"):
        poincare_ratio(skewed, fs)


def test_second_eigenvector_attains_trel():
    for q in (0.3, 0.5):
        gen = build_generator(_ring(4), make_family("east", d=1), q)
        trel = relaxation_time(gen)
        f = second_eigenvector(gen)
        assert poincare_ratio(gen, [f]) == pytest.approx(trel, abs=1e-8)


def test_second_eigenvector_above_dense_cutoff_uses_eigsh(monkeypatch):
    # 8,191 states: past the dense cutoff, so no dense eigh may run
    gen = build_generator(_ring(13), make_family("fa_kf", d=1, k=1), 0.5)
    assert spectral._DENSE_CUTOFF < gen.size <= 1 << 14
    trel = relaxation_time(gen)

    def dense(*args, **kwargs):
        raise AssertionError("dense eigh above the dense cutoff")

    monkeypatch.setattr(np.linalg, "eigh", dense)
    f = second_eigenvector(gen)
    assert poincare_ratio(gen, [f]) == pytest.approx(trel, abs=1e-8)


def test_dense_class_leaves_scipy_unloaded():
    # scipy is never imported; see test_cli for the sparse solve
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from kcmkit.families import make_family",
        "from kcmkit.lattice import Geometry",
        "from kcmkit import spectral",
        "gen = spectral.build_generator(Geometry((8,), torus=True),",
        "                               make_family('east', d=1), 0.3)",
        "f = np.arange(gen.size, dtype=float)",
        "spectral.dirichlet_and_variance(gen, f)",
        "spectral.poincare_ratio(gen, [f])",
        "spectral.spectral_gap(gen)",
        "spectral.second_eigenvector(gen)",
        "assert 'scipy' not in sys.modules",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(spectral.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_poincare_zero_dirichlet_guard():
    # a fake 2-state generator with no transitions: nonconstant f then has
    # Var > 0, D = 0 and must raise
    broken = GeneratorMatrix(q=0.5,
                             states=np.array([0, 1], dtype=np.int64),
                             mu=np.array([0.5, 0.5]),
                             indptr=np.zeros(3, dtype=np.int32),
                             indices=np.zeros(0, dtype=np.int32),
                             data=np.zeros(0))
    with pytest.raises(AssertionError, match=r"Var\(f\) > 0 with D\(f\) = 0"):
        poincare_ratio(broken, [np.array([1.0, -1.0])])
