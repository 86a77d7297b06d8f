import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcmkit.rng import (MASK64, STREAM_CLOCK, STREAM_CONFIG, hash_key, mix64,
                        uniform, uniforms_replicas_np, vertex_keys_np)
from oracles import vertex_key


def test_mix64_known_good():
    # reference outputs of splitmix64 when stepped from seed 0
    assert mix64(0) == 0xE220A8397B1DCDAF
    assert mix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4
    assert mix64(2 * 0x9E3779B97F4A7C15 % 2**64) == 0x06C45D188009454F
    assert 0 <= mix64((1 << 64) - 1) < (1 << 64)


def test_uniform_range_and_determinism():
    vals = [uniform(7, STREAM_CONFIG, 0, vertex_key((i,)), 0) for i in range(1000)]
    assert all(0.0 < v < 1.0 for v in vals)
    again = [uniform(7, STREAM_CONFIG, 0, vertex_key((i,)), 0) for i in range(1000)]
    assert vals == again
    assert len(set(vals)) > 990


def test_streams_are_independent():
    vk = vertex_key((3, 4))
    a = uniform(1, STREAM_CONFIG, 0, vk, 0)
    b = uniform(1, STREAM_CLOCK, 0, vk, 0)
    assert a != b


def test_vertex_key_uses_coordinates_not_flat_index():
    # same coordinates must hash identically regardless of grid size
    assert vertex_key((2, 5)) == vertex_key((2, 5))
    assert vertex_key((2, 5)) != vertex_key((5, 2))
    assert vertex_key((1,)) != vertex_key((1, 0))


def test_numpy_scalar_agreement():
    coords = np.array([[0, 1, 2, 3], [5, 5, 5, 5]], dtype=np.int64)
    vks = vertex_keys_np([coords[0], coords[1]])
    for i in range(4):
        assert int(vks[i]) == vertex_key((int(coords[0, i]), int(coords[1, i])))
    us = uniforms_replicas_np(99, STREAM_CONFIG, [2], vks)[0]
    for i in range(4):
        assert us[i] == uniform(99, STREAM_CONFIG, 2, int(vks[i]), 0)


def test_replica_matrix_rows_match_single_calls():
    vks = vertex_keys_np([np.arange(6), np.zeros(6, dtype=np.int64)])
    mat = uniforms_replicas_np(5, STREAM_CONFIG, [0, 1, 2], vks)
    assert mat.shape == (3, 6)
    row1 = uniforms_replicas_np(5, STREAM_CONFIG, [1], vks)[0]
    assert np.array_equal(mat[1], row1)
    assert np.array_equal(uniforms_replicas_np(5, STREAM_CONFIG, [2, 0], vks),
                          mat[[2, 0]])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**63), st.integers(0, 5), st.integers(0, 1000))
def test_uniform_in_open_interval(seed, stream, replica):
    u = uniform(seed, stream, replica, vertex_key((replica,)), 0)
    assert 0.0 < u < 1.0


def test_numpy_int64_words_match_python_ints():
    vks = vertex_keys_np([np.arange(5), np.full(5, 2, dtype=np.int64)])
    for replica in (3, -2, 2**62):
        r64 = np.int64(replica)
        assert uniform(4, STREAM_CLOCK, r64, 11, 2) == uniform(
            4, STREAM_CLOCK, replica, 11, 2)
        assert hash_key(np.int64(4), np.int64(1), r64, np.uint64(11),
                        np.int64(2)) == hash_key(4, 1, replica, 11, 2)
        row = uniforms_replicas_np(np.int64(4), np.int64(1), np.array([r64]),
                                   vks)[0]
        assert row.tobytes() == uniforms_replicas_np(4, 1, [replica],
                                                     vks)[0].tobytes()
        assert row[1] == uniform(4, 1, replica, int(vks[1]), 0)


def test_batch_functions_mask_key_words():
    vks = vertex_keys_np([np.arange(5), np.arange(5) * 2])
    big = 2**64
    ids = [(big + 2) & MASK64]
    us = uniforms_replicas_np(-1, STREAM_CLOCK + big, ids, vks)[0]
    assert np.array_equal(us, uniforms_replicas_np(big - 1, STREAM_CLOCK, [2],
                                                   vks)[0])
    for i in range(5):
        assert us[i] == uniform(big - 1, STREAM_CLOCK, 2, int(vks[i]), 0)
    ids = np.array([-1, 3], dtype=np.int64)
    mat = uniforms_replicas_np(-7, STREAM_CONFIG, ids, vks)
    big_id = np.array([big - 1], dtype=np.uint64)
    assert np.array_equal(mat[0], uniforms_replicas_np(-7, STREAM_CONFIG,
                                                       big_id, vks)[0])
    assert np.array_equal(mat[1], uniforms_replicas_np(big - 7, STREAM_CONFIG,
                                                       [3], vks)[0])
    for i in range(5):
        assert mat[0, i] == uniform(-7, STREAM_CONFIG, -1, int(vks[i]), 0)


def test_mixed_sign_replica_list_reads_as_uint64():
    # NumPy reads this list as float64, where 2**63 + 1 rounds to 2**63
    vks = vertex_keys_np([np.arange(4), np.arange(4) + 1])
    ids = [-1, 2**63 + 1]
    got = uniforms_replicas_np(3, STREAM_CONFIG, ids, vks)
    want = uniforms_replicas_np(3, STREAM_CONFIG,
                                np.array([2**64 - 1, 2**63 + 1], np.uint64), vks)
    assert got.tobytes() == want.tobytes()
    assert got[1, 0] == uniform(3, STREAM_CONFIG, 2**63 + 1, int(vks[0]), 0)


@pytest.mark.parametrize("pure", ["0", "1"])
@pytest.mark.parametrize("module", ["kcmkit.rng", "kcmkit.lattice",
                                    "kcmkit.kernels"])
def test_module_imports_alone(module, pure):
    # rng binds kernels on first use; a module-level import would close the
    # cycle lattice -> rng -> kernels -> families -> lattice
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, KCMKIT_PURE=pure,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (f"import {module}, numpy as np; from kcmkit import rng, kernels; "
            "rng.uniforms_replicas_np(1, 0, [0], np.zeros(3, dtype=np.uint64)); "
            "print(kernels.IMPLEMENTATION)")
    p = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    if pure == "1":
        assert p.stdout.strip() == "pure"
