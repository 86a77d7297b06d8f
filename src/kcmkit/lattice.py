"""Finite boxes of Z^d: geometry, site configurations, regions, grid files.

Conventions used everywhere in the package:

* coordinates are 0-based tuples, flat indices are C-order (last axis fastest);
* a configuration stores one byte per site, 1 = occupied, 0 = empty;
* the product measure at vacancy density q occupies a site iff its uniform
  (rng, keyed by replica and site) is >= q, so each site is empty with
  probability q and the empty set grows with q; only random_bits applies it;
* boundary handling is a property of the geometry: a torus wraps, a free box
  either treats the outside as permanently occupied (conservative default)
  or as permanently empty (``outside_empty=True``).
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from . import rng

# the largest site index, and so pad index, of an int32 neighbour table
_INDEX_MAX = (1 << 31) - 1


@dataclass(frozen=True)
class Geometry:
    """A finite axis-aligned box (or torus) in Z^d."""

    dims: tuple[int, ...]
    torus: bool = False
    outside_empty: bool = False

    def __post_init__(self):
        dims = as_ints(self.dims, "dimensions")
        if not dims or min(dims) <= 0:
            raise ValueError(f"dimensions must be positive, got {dims}")
        if self.torus and self.outside_empty:
            raise ValueError("a torus has no outside")
        object.__setattr__(self, "dims", dims)

    @property
    def d(self) -> int:
        return len(self.dims)

    @cached_property
    def n_sites(self) -> int:
        # cached in the instance __dict__; eq and hash still use the fields
        return math.prod(self.dims)

    def flat(self, coords: Sequence[int]) -> int:
        """Flat index of a coordinate tuple of d integers inside the box."""
        c = as_ints(coords, "coordinate")
        idx = 0
        for ci, n in zip(c, self.dims, strict=True):
            if not 0 <= ci < n:
                raise ValueError(f"coordinate {c} outside {self.dims}")
            idx = idx * n + ci
        return idx

    def site(self, v, name: str = "site") -> int:
        """The flat index of v, a flat index (see as_site) or coordinates."""
        if isinstance(v, (tuple, list)) or getattr(v, "ndim", 0):
            return self.flat(v)
        return as_site(v, self.n_sites, name)

    def coords(self, flat) -> tuple[int, ...]:
        """The coordinates of flat index `flat`, checked by as_site."""
        flat = as_site(flat, self.n_sites, "flat index")
        out = []
        for n in reversed(self.dims):
            out.append(flat % n)
            flat //= n
        return tuple(reversed(out))

    def vertex_keys(self) -> np.ndarray:
        """Coordinate-hash keys for every site (see rng.vertex_keys_np),
        read-only and computed once per shape: a torus and a free box of
        the same dims share them."""
        return _vertex_keys(self.dims)

    def neighbor_table(self, offsets: np.ndarray) -> np.ndarray:
        """(N, S) C-contiguous int32 table of flat indices of site +
        offset_s.

        Out-of-box targets (free boundary) get the pad index N; callers index
        an (N+1)-long state array whose last slot encodes the outside. N
        must fit int32, so a box of more than 2^31 - 1 sites is refused with
        ValueError before anything is allocated.
        """
        n = self.n_sites
        if n > _INDEX_MAX:
            raise ValueError(f"a box of {n} sites is too large: site indices "
                             f"and the pad index are int32, so a box holds "
                             f"at most 2^31 - 1 = {_INDEX_MAX} sites")
        grid = np.arange(n, dtype=np.int32).reshape(self.dims)
        table = np.empty((n, len(offsets)), dtype=np.int32)
        cols = table.reshape(*self.dims, len(offsets))
        for s, off in enumerate(offsets):
            col = cols[..., s]
            if not self.torus:
                col[...] = n
            # copy the grid block by block: per axis, the sites whose
            # target lies in the box, with the slice of targets they read
            for parts in itertools.product(*map(
                    self._shifted_slices, map(int, off), self.dims)):
                sites, targets = zip(*parts)
                col[sites] = grid[targets]
        return table

    def _shifted_slices(self, o: int, m: int) -> list[tuple[slice, slice]]:
        """(sites, targets) slice pairs along an axis of side m for offset
        o: x + o wraps on a torus (two pieces) and must stay in [0, m) on a
        free box (one piece, or none when |o| >= m)."""
        if self.torus:
            r = o % m
            return [(slice(0, m - r), slice(r, m)),
                    (slice(m - r, m), slice(0, r))]
        lo, hi = max(0, -o), min(m, m - o)
        return [(slice(lo, hi), slice(lo + o, hi + o))] if lo < hi else []


@lru_cache(maxsize=64)
def _vertex_keys(dims: tuple[int, ...]) -> np.ndarray:
    # one coordinate per axis, shaped along it, so the keys broadcast over
    # the box in C order
    axes = [np.arange(m, dtype=np.uint64).reshape(
        [-1 if b == a else 1 for b in range(len(dims))])
        for a, m in enumerate(dims)]
    keys = rng.vertex_keys_np(axes).reshape(-1)
    keys.flags.writeable = False   # shared by every caller
    return keys


def random_uniforms(geom: Geometry, seed: int, replicas,
                    stream: int = rng.STREAM_CONFIG, rows: int | None = None):
    """The site uniforms of a replica set, as (ids, u) blocks in id order:
    u[r, i] is the uniform of site i in replica ids[r]. `replicas` is a
    count R (ids 0..R-1, made block by block, so R is never allocated at
    once; at most rng.REPLICA_IDS) or a sequence of ids, read by
    rng.replica_ids. A block holds at most rng.BATCH_SITES uniforms, at
    most `rows` replicas, and at least one."""
    if np.ndim(replicas) == 0:
        count, ids = int(replicas), None
        if count > rng.REPLICA_IDS:
            raise ValueError(f"at most 2^64 replicas have distinct ids, got "
                             f"{count}")
    else:
        ids = rng.replica_ids(replicas)
        count = ids.size
    step = max(1, min(rng.BATCH_SITES // geom.n_sites,
                      rows or rng.BATCH_SITES))
    vkeys = geom.vertex_keys()
    for lo in range(0, count, step):
        block = (np.arange(lo, min(lo + step, count), dtype=np.uint64)
                 if ids is None else ids[lo:lo + step])
        yield block, rng.uniforms_replicas_np(seed, stream, block, vkeys)


def random_bits(geom: Geometry, q: float, seed: int, replicas,
                stream: int = rng.STREAM_CONFIG, rows: int | None = None):
    """Product-measure configurations of a replica set, as (ids, bits)
    blocks of random_uniforms: a site is empty where its uniform is < q."""
    for ids, u in random_uniforms(geom, seed, replicas, stream, rows):
        yield ids, (u >= q).astype(np.uint8)


def as_int(v, name: str = "value") -> int:
    """v as an int: anything operator.index takes but bool, so no cast
    truncates 4.7 or reads True as 1. Raises ValueError naming `name`."""
    if type(v) is not bool:
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {v!r}")


def as_ints(values, name: str = "values") -> tuple[int, ...]:
    """A sequence of as_int values, as a tuple of ints."""
    try:
        out = tuple(values)
    except TypeError:
        raise ValueError(f"{name} must hold integers, got {values!r}") from None
    for v in out:
        if type(v) is not int:
            return tuple(as_int(c, name) for c in out)
    return out


def as_site(v, n: int, name: str = "site") -> int:
    """The scalar form of as_sites: as_int(v), which must lie in [0, n)."""
    v = as_int(v, name)
    if not 0 <= v < n:
        raise ValueError(f"{name} {v} is outside the {n} sites")
    return v


def as_sites(a, n: int, name: str = "sites") -> np.ndarray:
    """a as int64 site indices in [0, n): the dtype must be an integer type
    (any dtype at size 0, as np.asarray([]) is float64), as in as_int."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{name} has dtype {a.dtype}, expected integers")
    out = a.astype(np.int64, copy=False)
    # one pass for both ends: as uint64, a negative (or wrapped) index >= 2^63
    if out.size and out.view(np.uint64).max() >= n:
        raise ValueError(f"{name} holds a site outside the {n} sites")
    return out


def as_bits(a, name: str = "bits") -> np.ndarray:
    """a as a C-contiguous uint8 array; raises ValueError unless every entry
    is exactly 0 (empty) or 1 (occupied), so no cast hides a 2, 256, 0.5 or
    -1. uint8 input costs one max()."""
    a = np.asarray(a)
    if not (a.max(initial=0) <= 1 if a.dtype == np.uint8 else
            a.dtype.kind in "biuf" and ((a == 0) | (a == 1)).all()):
        raise ValueError(f"{name} holds a value other than 0 and 1")
    return np.ascontiguousarray(a, dtype=np.uint8)


class Configuration:
    """Site configuration on a geometry; bits[i] = 1 occupied, 0 empty."""

    __slots__ = ("geom", "bits")

    def __init__(self, geom: Geometry, bits: np.ndarray):
        bits = as_bits(bits).reshape(-1)
        if bits.size != geom.n_sites:
            raise ValueError(f"expected {geom.n_sites} sites, got {bits.size}")
        self.geom = geom
        self.bits = bits

    # constructors -----------------------------------------------------------
    @classmethod
    def fully_empty(cls, geom: Geometry) -> "Configuration":
        return cls(geom, np.zeros(geom.n_sites, dtype=np.uint8))

    @classmethod
    def random(cls, geom: Geometry, q: float, seed: int,
               replica: int = 0) -> "Configuration":
        """Product measure: each site empty independently with probability q."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0,1], got {q}")
        return cls(geom, next(random_bits(geom, q, seed, [replica]))[1][0])

    # basic ops --------------------------------------------------------------
    def copy(self) -> "Configuration":
        return Configuration(self.geom, self.bits.copy())

    def count_empty(self) -> int:
        return int(self.bits.size - self.bits.sum())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Configuration)
                and self.geom == other.geom
                and bool(np.array_equal(self.bits, other.bits)))

    def __hash__(self):
        raise TypeError("Configuration is mutable; hash bits.tobytes() instead")


# ------------------------------------------------------------------- regions

@dataclass(frozen=True)
class Region:
    """A set of sites of a geometry, kept as sorted flat indices."""

    geom: Geometry
    indices: np.ndarray = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "indices", np.unique(as_sites(
            self.indices, self.geom.n_sites, "region index")))

    @classmethod
    def _trusted(cls, geom: Geometry, indices: np.ndarray) -> "Region":
        """A region over int64 indices the caller knows are sorted, unique
        and inside the geometry: skips __post_init__'s np.unique."""
        r = object.__new__(cls)
        object.__setattr__(r, "geom", geom)
        object.__setattr__(r, "indices", indices)
        return r

    @property
    def size(self) -> int:
        return int(self.indices.size)

    def mask(self) -> np.ndarray:
        m = np.zeros(self.geom.n_sites, dtype=bool)
        m[self.indices] = True
        return m

    def union(self, other: "Region") -> "Region":
        if self.geom != other.geom:
            raise ValueError("regions live on different geometries")
        return Region(self.geom, np.union1d(self.indices, other.indices))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Region) and self.geom == other.geom
                and bool(np.array_equal(self.indices, other.indices)))


@dataclass(frozen=True)
class Box:
    """Axis-aligned sub-box of a geometry: corner plus extents."""

    corner: tuple[int, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        corner = as_ints(self.corner, "box corner")
        dims = as_ints(self.dims, "box extents")
        if len(corner) != len(dims):
            raise ValueError("corner and dims must have the same length")
        if dims and min(dims) <= 0:
            raise ValueError("box extents must be positive")
        object.__setattr__(self, "corner", corner)
        object.__setattr__(self, "dims", dims)

    @property
    def d(self) -> int:
        return len(self.dims)

    def contains(self, coords: Sequence[int]) -> bool:
        return all(c0 <= c < c0 + n for c, c0, n in
                   zip(coords, self.corner, self.dims, strict=True))


def check_fit(geom: Geometry, box: Box) -> None:
    """Raises ValueError unless the box lies inside the geometry."""
    ends = map(operator.add, box.corner, box.dims)
    if (len(box.dims) != len(geom.dims) or min(box.corner) < 0
            or any(map(operator.gt, ends, geom.dims))):
        raise ValueError(f"box {box} does not fit in geometry {geom.dims}")


def box_region(geom: Geometry, box: Box) -> Region:
    """All sites of the box (which must lie inside the geometry), with
    read-only indices."""
    check_fit(geom, box)
    # C-order flats of the box: an outer sum of per-axis offsets times
    # strides, which is sorted and unique for a box inside the geometry
    idx = np.zeros((), dtype=np.int64)
    stride = 1
    for c0, n, ng in zip(reversed(box.corner), reversed(box.dims),
                         reversed(geom.dims)):
        idx = np.add.outer(np.arange(c0, c0 + n, dtype=np.int64) * stride, idx)
        stride *= ng
    idx = idx.reshape(-1)
    idx.flags.writeable = False
    return Region._trusted(geom, idx)


def slice_region(geom: Geometry, box: Box, axis: int, j: int) -> Region:
    """j-th hyperplane of the box orthogonal to `axis` (j is box-relative)."""
    if not 0 <= j < box.dims[axis]:
        raise ValueError(f"slice index {j} outside box extent {box.dims[axis]}")
    sub = Box(tuple(c0 + (j if a == axis else 0)
                    for a, c0 in enumerate(box.corner)),
              tuple(1 if a == axis else n for a, n in enumerate(box.dims)))
    return box_region(geom, sub)


def cross_region(geom: Geometry, box: Box, center: Sequence[int]) -> Region:
    """Union over axes of the full line of the box through `center`."""
    center = as_ints(center, "center")
    if not box.contains(center):
        raise ValueError(f"center {center} outside box {box}")
    out = None
    for a in range(box.d):
        sub = Box(tuple(center[i] if i != a else box.corner[i]
                        for i in range(box.d)),
                  tuple(1 if i != a else box.dims[i] for i in range(box.d)))
        r = box_region(geom, sub)
        out = r if out is None else out.union(r)
    return out


# ----------------------------------------------------------------- grid files

@contextlib.contextmanager
def _opened(fh, mode: str = "r"):
    """A path is opened in `mode` and closed afterwards; a handle is used as
    it is and left open."""
    if isinstance(fh, str):
        with open(fh, mode) as f:
            yield f
    else:
        yield fh


def write_grid(cfg: Configuration, fh) -> None:
    """Text grid: header `d n1 .. nd boundary`, then row-major 0/1 lines."""
    geom = cfg.geom
    boundary = ("torus" if geom.torus
                else "free-empty" if geom.outside_empty else "free")
    with _opened(fh, "w") as fh:
        fh.write(f"{geom.d} {' '.join(map(str, geom.dims))} {boundary}\n")
        last = geom.dims[-1]
        flat = cfg.bits
        for row_start in range(0, flat.size, last):
            fh.write("".join(map(str, flat[row_start:row_start + last])) + "\n")


def read_grid(fh) -> Configuration:
    with _opened(fh) as fh:
        header = fh.readline().split()
        if len(header) < 3:
            raise ValueError("grid header must be: d n1 .. nd boundary")
        d = int(header[0])
        if len(header) != d + 2:
            raise ValueError(f"grid header promises d={d} but has "
                             f"{len(header) - 2} extents")
        dims = tuple(int(x) for x in header[1:1 + d])
        boundary = header[1 + d]
        if boundary not in ("torus", "free", "free-empty"):
            raise ValueError(f"unknown boundary token {boundary!r}")
        geom = Geometry(dims, torus=(boundary == "torus"),
                        outside_empty=(boundary == "free-empty"))
        digits = []
        for line in fh:
            line = line.strip()
            if line:
                digits.append(line)
        flat = np.frombuffer("".join(digits).encode(), dtype=np.uint8) - ord("0")
        if flat.size != geom.n_sites:
            raise ValueError(f"grid body has {flat.size} sites, "
                             f"geometry needs {geom.n_sites}")
        return Configuration(geom, flat)
