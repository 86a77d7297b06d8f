"""Counter-based random numbers.

Every uniform in the package is a pure function of
(seed, stream, replica, vertex key, counter), so replicas are reproducible,
independent of evaluation order, and coupled across lattice sizes: the vertex
key hashes the coordinate tuple, not the flat index, so the same site draws
the same uniform in any box that contains it.

The mixer is the splitmix64 finalizer chained over the key words. Uniforms
are mapped to the open interval (0, 1) via ((h >> 11) + 0.5) * 2**-53 so that
log() is always safe.

The one batch function, uniforms_replicas_np, hashes the (seed, stream)
head here and leaves the per-site work to the `uniforms` kernel: one pass of
the C library when it is built, the NumPy spec in kcmkit._pure otherwise.
The bytes are the same either way. It draws at counter 0, for replica ids;
lattice.random_bits draws product-measure configurations from it.
"""

from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
# replica ids are uint64, so a count R of replicas (ids 0..R-1) is at most this
REPLICA_IDS = 1 << 64
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_COORD_SALT = 0xB5297A4D93F4C1DB

# Stream labels keep draw families disjoint.
STREAM_CONFIG = 0   # static site percolation / initial KCM law
STREAM_CLOCK = 1    # KCM ring times and resample coins
STREAM_AUX = 2      # anything else (shuffles, rejection sampling)

TO_UNIT = 2.0 ** -53

# A batched draw holds at most this many uniforms (512 KB of float64), and
# one replica's worth at least.
BATCH_SITES = 1 << 16

# kcmkit.kernels, bound on first use: it imports lattice, which imports this
# module, so a module-level import would meet a half-initialised lattice
_kernels = None


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit word (python ints)."""
    z = (z + _GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & MASK64
    return z ^ (z >> 31)


def hash_key(seed: int, stream: int, replica: int, vkey: int, counter: int) -> int:
    # int() first: a NumPy int64 cannot hold MASK64, so `word & MASK64`
    # would overflow on one
    h = mix64(int(seed) & MASK64)
    h = mix64(h ^ (int(stream) & MASK64))
    h = mix64(h ^ (int(replica) & MASK64))
    h = mix64(h ^ (int(vkey) & MASK64))
    return mix64(h ^ (int(counter) & MASK64))


def uniform(seed: int, stream: int, replica: int, vkey: int, counter: int) -> float:
    """One uniform in (0, 1)."""
    return ((hash_key(seed, stream, replica, vkey, counter) >> 11) + 0.5) * TO_UNIT


# ---------------------------------------------------------------- numpy batch

def _mix64_np(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """mix64 of every word of z, a writable uint64 array, in place; returns
    z. The shifted words go to `scratch`, an array of z's shape and dtype,
    allocated when None, so the mix makes no other temporary."""
    if scratch is None:
        scratch = np.empty_like(z)
    z += np.uint64(_GAMMA)
    z ^= np.right_shift(z, np.uint64(30), out=scratch)
    z *= np.uint64(_MUL1)
    z ^= np.right_shift(z, np.uint64(27), out=scratch)
    z *= np.uint64(_MUL2)
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


def vertex_keys_np(coord_cols) -> np.ndarray:
    """Size-independent keys of sites, hashed from their coordinates: one
    integer array per axis, broadcast together, so a box may pass one
    arange per axis shaped along it. The keys are mixed in place, with one
    scratch array of their shape."""
    cols = [np.asarray(c).astype(np.uint64, copy=False) for c in coord_cols]
    h = np.full(np.broadcast_shapes(*(c.shape for c in cols)),
                mix64(_COORD_SALT), dtype=np.uint64)
    scratch = np.empty_like(h)
    for col in cols:
        h ^= col
        _mix64_np(h, scratch)
    return h


def replica_ids(replicas) -> np.ndarray:
    """uint64 replica ids, as hash_key reads them: an integer array is cast
    (int64 ids wrap), and any other sequence is read id by id as Python ints
    masked with MASK64. (NumPy would read a list mixing a negative id with
    one of 2**63 or more as float64.)"""
    if isinstance(replicas, np.ndarray) and replicas.dtype.kind in "iu":
        return replicas.astype(np.uint64, copy=False)
    return np.array([int(r) & MASK64 for r in replicas], dtype=np.uint64)


def uniforms_replicas_np(seed: int, stream: int, replicas,
                         vkeys: np.ndarray) -> np.ndarray:
    """(R, N) counter-0 uniforms for a batch of replica ids, read by
    replica_ids, from the selected `uniforms` kernel: row r, column i is
    uniform(seed, stream, replicas[r], vkeys[i], 0)."""
    global _kernels
    if _kernels is None:
        from . import kernels as _kernels
    head = mix64(mix64(int(seed) & MASK64) ^ (int(stream) & MASK64))
    return _kernels.uniforms(head, replicas, vkeys)
