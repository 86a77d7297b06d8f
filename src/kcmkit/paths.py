"""Legal single-flip paths: schedules, column moves, block paths, congestion.

Everything here produces or checks a LegalPath: a start configuration plus
an ordered list of single-site flips, each of which must satisfy some
update rule in the configuration right before it. Emptying schedules come
from restricted closures replayed in round order; restores are literal
reversals, which stay legal because no rule reads the flipped site itself,
so a reversed flip sees exactly the witnesses its forward twin saw.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

import numpy as np

from . import kernels, rng
from .blocks import BlockSpec, _classes, _seed_mask, _slice_family
from .families import UpdateFamily, make_family, tables_for
from .lattice import (Box, Configuration, Geometry, Region, as_bits, as_ints,
                      as_sites, box_region, check_fit, cross_region,
                      random_bits, slice_region)

_EXACT_CAP = 1 << 20

_ATTEMPTS = 1024       # a sampler gives up after this many layouts
_ATTEMPT_BITS = (_ATTEMPTS - 1).bit_length()   # bits of the attempt in an id
_ATTEMPT_BLOCK = 64    # layouts drawn and classified together, within
                       # rng.BATCH_SITES uniforms

_FA2 = make_family("fa_kf", 2, 2)
_GG = make_family("gg")


# ------------------------------------------------------------------ types


@dataclass(eq=False)
class LegalPath:
    """A start configuration plus an ordered list of single-site flips.

    vertices[i] is set to values[i] at step i. Builders guarantee every
    flip changes its site; legality and non-repetition are what
    verify_legal checks.
    """

    start: Configuration
    vertices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.vertices = as_sites(self.vertices, self.start.geom.n_sites,
                                 "flip vertex")
        self.values = as_bits(self.values, "values")
        if self.vertices.ndim != 1 or self.vertices.shape != self.values.shape:
            raise ValueError("vertices and values must be equal-length 1d arrays")

    @property
    def length(self) -> int:
        return int(self.vertices.size)

    def end(self) -> Configuration:
        bits = self.start.bits.copy()
        for v, val in zip(self.vertices.tolist(), self.values.tolist()):
            if bits[v] == val:
                raise ValueError("malformed path: flip does not change the site")
            bits[v] = val
        return Configuration(self.start.geom, bits)

    def _keys(self) -> list[bytes]:
        """bits.tobytes() of the start and of the configuration after each
        flip, in path order."""
        work = bytearray(self.start.bits.tobytes())
        keys = [bytes(work)]
        for v, val in zip(self.vertices.tolist(), self.values.tolist()):
            work[v] = val
            keys.append(bytes(work))
        return keys

    def loop_erased(self) -> "LegalPath":
        """Chronological loop erasure, read off last visits: from the last
        visit of the start, keep the flip that leaves it, jump to the last
        visit of the configuration it reaches, and repeat to the end."""
        keys = self._keys()
        last = {key: i for i, key in enumerate(keys)}
        kept = []
        i = last[keys[0]]
        while i < self.length:
            kept.append(i)
            i = last[keys[i + 1]]
        kept = np.array(kept, dtype=np.int64)
        return LegalPath(self.start, self.vertices[kept], self.values[kept])


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of a legality replay; falsy iff some flip failed."""

    ok: bool
    index: int | None = None
    vertex: int | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class CongestionReport:
    """Largest relative load over visited configurations, plus path stats."""

    rho: float
    n_max: int


# ------------------------------------------------------------ verification


def verify_legal(path: LegalPath, fam: UpdateFamily) -> VerifyResult:
    """Replay a path, checking every flip's constraint in the prior state.

    A flip fails when it does not change the site, when no update rule has
    all its neighbors empty right before the flip, or when the resulting
    configuration was already visited. O(length * m * rule size).
    """
    t = tables_for(path.start.geom, fam)
    n = t.n_sites
    rules = [slots.tolist() for slots in t.rules]
    # work[n] is the outside of a free box; the empty rule passes
    work = bytearray(path.start.bits.tobytes()) + bytes((t.pad_empty ^ 1,))
    seen = {bytes(work[:n])}
    for i, (v, val) in enumerate(zip(path.vertices.tolist(),
                                     path.values.tolist())):
        if work[v] == val:
            return VerifyResult(False, i, v, "flip does not change the site")
        row = t.nbr[v].tolist()
        if not any(all(not work[row[s]] for s in slots) for slots in rules):
            return VerifyResult(False, i, v, "no update rule satisfied at flip time")
        work[v] = val
        key = bytes(work[:n])
        if key in seen:
            return VerifyResult(False, i, v, "configuration revisited")
        seen.add(key)
    return VerifyResult(True)


# ------------------------------------------------------- schedule plumbing


def _ordered_schedule(bits, geom, fam, flippable):
    """Flips of the restricted closure: earliest round first, lex within."""
    t = tables_for(geom, fam)
    out, rounds = kernels.closure(bits, t, flippable=flippable)
    emptied = np.flatnonzero(rounds > 0)
    if emptied.size:
        emptied = emptied[np.lexsort((emptied, rounds[emptied]))]
    return emptied.astype(np.int64), out


class _Recorder:
    """Mutable flip log tracking the working configuration."""

    def __init__(self, cfg: Configuration):
        self.start = cfg.copy()
        self.bits = cfg.bits.copy()
        self.verts: list[int] = []
        self.vals: list[int] = []

    def flip(self, v: int, val: int) -> None:
        if self.bits[v] == val:
            raise RuntimeError("schedule bug: flip does not change the site")
        self.bits[v] = val
        self.verts.append(int(v))
        self.vals.append(int(val))

    def empty(self, fam: UpdateFamily, flippable: np.ndarray,
              visible=None) -> bool:
        """Record the restricted closure's flips on the working bits; True
        when every flippable site ended empty. Sites outside `visible` are
        occupied in the closure's copy of the bits; every caller's
        `flippable` lies inside `visible`, so no hidden site is emptied."""
        bits = self.bits if visible is None else np.where(
            visible, self.bits, np.uint8(1))
        flips, out = _ordered_schedule(bits, self.start.geom, fam, flippable)
        for v in flips.tolist():
            self.flip(v, 0)
        return not out[flippable].any()

    def reverse_tail(self, skip) -> None:
        """Undo every flip in reverse order, leaving `skip` sites alone."""
        for v, val in zip(self.verts[::-1], self.vals[::-1]):
            if v not in skip:
                self.flip(v, 1 - val)

    def path(self) -> LegalPath:
        return LegalPath(self.start, self.verts, self.vals)


def _sweep(rec: _Recorder, fam: UpdateFamily, r: Region, visible=None) -> None:
    if not rec.empty(fam, r.mask(), visible=visible):
        raise RuntimeError("sweep stalled: a block precondition was violated")


# --------------------------------------------------------------- schedules


def empty_region_schedule(cfg: Configuration, fam: UpdateFamily,
                          r: Region) -> LegalPath:
    """Decreasing path that empties an internally spanned region.

    Only the region's own empty sites (plus whatever the geometry's
    boundary convention grants) seed the schedule, and only region sites
    are flipped, in bootstrap-round order with lexicographic ties.
    Raises when the region is not internally spanned.
    """
    mask = r.mask()
    rec = _Recorder(cfg)
    if not rec.empty(fam, mask, visible=mask):
        raise ValueError("region is not internally spanned")
    p = rec.path()
    assert p.length <= r.size
    return p


def chain_schedule(cfg: Configuration, fam: UpdateFamily,
                   regions: Sequence[Region]) -> LegalPath:
    """Walk an empty region down a chain, restoring everything behind it.

    regions[0] must already be empty. Each step first empties the next
    region (flips confined to it), then re-occupies the previous one by
    replaying, backwards, the schedule that would have emptied it from the
    other side; both schedules are attempted constructively, and a failure
    raises naming the offending pair. The result ends at the start with
    regions[-1] emptied, uses at most 2 * sum sizes flips, and never
    differs from the start outside the active pair of regions.
    """
    if len(regions) == 0:
        raise ValueError("chain needs at least one region")
    geom = cfg.geom
    for r in regions:
        if r.geom != geom:
            raise ValueError("chain regions live on a different geometry")
    baseline = cfg.bits
    if (baseline[regions[0].indices] != 0).any():
        raise ValueError("chain region 0 is not empty at the start")
    rec = _Recorder(cfg)
    for j in range(len(regions) - 1):
        cur, nxt = regions[j], regions[j + 1]
        if not rec.empty(fam, nxt.mask()):
            raise ValueError(
                f"chain hypothesis fails forward between regions {j} and {j + 1}")
        virtual = baseline.copy()
        virtual[nxt.indices] = 0
        back, vout = _ordered_schedule(virtual, geom, fam, cur.mask())
        if (vout[cur.indices] != 0).any():
            raise ValueError(
                f"chain hypothesis fails backward between regions {j + 1} and {j}")
        if not np.array_equal(rec.bits, vout):
            raise RuntimeError("chain schedule bug: restore frames disagree")
        for v in back[::-1].tolist():
            rec.flip(v, 1)
    # regions already empty in the baseline make whole E/D rounds net-zero
    # (the walk returns to an earlier state), so splice those cycles out
    p = rec.path().loop_erased()
    expected = baseline.copy()
    expected[regions[-1].indices] = 0
    assert np.array_equal(rec.bits, expected)
    assert p.length <= 2 * sum(r.size for r in regions)
    return p


@lru_cache(maxsize=64)
def _fa_params(fam: UpdateFamily):
    """(d, k) when fam is the full k-of-2d isotropic family, else None."""
    sizes = {len(r) for r in fam.rules}
    k = sizes.pop() if len(sizes) == 1 else 0
    if not 1 <= k <= 2 * fam.d:
        return None
    full = set(make_family("fa_kf", fam.d, k).rules)
    return (fam.d, k) if set(fam.rules) == full else None


def slice_schedule(cfg: Configuration, fam: UpdateFamily, i: int, j: int,
                   direction: int) -> LegalPath:
    """Empty the slice next to an empty slice of a k-of-2d model.

    Slice j of the geometry along axis i must be empty; the slice at
    j+direction is emptied, flips confined to it. The order replays the
    reduced (k-1)-of-2(d-1) closure of the target slice on its own
    geometry, so every flip has k-1 in-slice witnesses plus the empty
    neighbor slice.
    Raises when the target slice is not spanned by the reduced model.
    """
    fa = _fa_params(fam)
    if fa is None:
        raise ValueError("slice moves need the k-of-2d family")
    d, k = fa
    if d < 2:
        raise ValueError("slice moves need d >= 2")
    if k == 2 * d:
        raise ValueError("slice moves need k <= 2d - 1")
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    geom = cfg.geom
    box = Box((0,) * geom.d, geom.dims)
    src = slice_region(geom, box, i, j)
    if (cfg.bits[src.indices] != 0).any():
        raise ValueError("source slice is not empty")
    tj = j + direction
    if not 0 <= tj < box.dims[i]:
        raise ValueError("target slice is outside the box")
    tgt = slice_region(geom, box, i, tj)
    sub_geom = Geometry(tuple(n for a, n in enumerate(box.dims) if a != i))
    emptied, out = _ordered_schedule(cfg.bits[tgt.indices], sub_geom,
                                     _slice_family(d, k), None)
    if out.any():
        raise ValueError("target slice is not spanned by the reduced model")
    rec = _Recorder(cfg)
    for v in tgt.indices[emptied].tolist():
        rec.flip(v, 0)
    p = rec.path()
    assert p.length <= tgt.size
    return p


def cross_schedule(cfg: Configuration, fam: UpdateFamily,
                   x: Sequence[int], y: Sequence[int],
                   box: Box | None = None) -> LegalPath:
    """Slide an empty axis cross to an adjacent center.

    x and y must differ by one unit step, and the cross through x inside
    `box` must be empty. Returns the decreasing path emptying the cross
    through y, flips confined to it, using only the two crosses' sites.
    """
    fa = _fa_params(fam)
    if fa is None or fa[1] != 2:
        raise ValueError("cross moves need the 2-of-2d family")
    geom = cfg.geom
    if box is None:
        box = Box((0,) * geom.d, geom.dims)
    x, y = as_ints(x, "cross center"), as_ints(y, "cross center")
    diff = sorted(abs(yc - xc) for xc, yc in zip(x, y))
    if diff != [0] * (geom.d - 1) + [1]:
        raise ValueError("cross centers must be adjacent")
    cx = cross_region(geom, box, x)
    cy = cross_region(geom, box, y)
    if (cfg.bits[cx.indices] != 0).any():
        raise ValueError("cross at x is not empty")
    rec = _Recorder(cfg)
    if not rec.empty(fam, cy.mask(), visible=cx.mask() | cy.mask()):
        raise ValueError("cross at y is not reachable from the cross at x")
    p = rec.path()
    assert p.length <= 2 * geom.d * max(box.dims)
    return p


def gg_column_moves(cfg: Configuration, variant: str,
                    columns: Sequence[int]) -> LegalPath:
    """The anisotropic model's two column moves.

    obs1: columns = (c1, c2, c3) with {c1, c2} an adjacent empty pair and
    c3 flanking it on either side; c3 must hold an empty site somewhere in
    the row window and gets emptied. obs2: columns = (c1, c2, c3, c4) with
    {c1, c2} the empty pair and {c3, c4} the adjacent target pair
    completing a run of four; the two sites just above the targets must be
    empty, and both target columns empty top-down. The row window is the
    whole height for obs1, and for obs2 every row below the top one, where
    obs2 reads its seed pair.
    """
    geom = cfg.geom
    if geom.d != 2:
        raise ValueError("column moves are two-dimensional")
    fam = _GG
    seeds: list[int] = []
    if variant == "obs1":
        if len(columns) != 3:
            raise ValueError("obs1 takes three columns")
        hi = geom.dims[1]
        c1, c2, c3 = as_ints(columns, "columns")
        pair = sorted((c1, c2))
        if pair[1] - pair[0] != 1:
            raise ValueError("context columns must be adjacent")
        if c3 not in (pair[1] + 1, pair[0] - 1):
            raise ValueError("target column must flank the context pair")
        targets = [c3]
    elif variant == "obs2":
        if len(columns) != 4:
            raise ValueError("obs2 takes four columns")
        hi = geom.dims[1] - 1
        c1, c2, c3, c4 = as_ints(columns, "columns")
        pair = sorted((c1, c2))
        tpair = sorted((c3, c4))
        if pair[1] - pair[0] != 1 or tpair[1] - tpair[0] != 1:
            raise ValueError("obs2 needs two adjacent column pairs")
        if tpair[0] != pair[1] + 1 and tpair[1] != pair[0] - 1:
            raise ValueError("obs2 pairs must form a run of four columns")
        seeds = [geom.flat((c3, hi)), geom.flat((c4, hi))]
        if any(cfg.bits[s] != 0 for s in seeds):
            raise ValueError("the two vertices above the target pair are not empty")
        targets = [c3, c4]
    else:
        raise ValueError("variant must be obs1 or obs2")

    def seg(c):
        return box_region(geom, Box((c, 0), (1, hi)))

    for c in pair:
        if (cfg.bits[seg(c).indices] != 0).any():
            raise ValueError("context pair is not empty over the window")
    tregions = [seg(c) for c in targets]
    if variant == "obs1" and (cfg.bits[tregions[0].indices] != 0).all():
        raise ValueError("target column has no empty site in the window")
    flippable = np.logical_or.reduce([tr.mask() for tr in tregions])
    vis = flippable | np.logical_or.reduce([seg(c).mask() for c in pair])
    vis[seeds] = True
    rec = _Recorder(cfg)
    if not rec.empty(fam, flippable, visible=vis):
        raise ValueError("column move cannot empty its targets")
    p = rec.path()
    assert p.length <= sum(tr.size for tr in tregions)
    return p


# ---------------------------------------------------------- block plumbing


@lru_cache(maxsize=64)
def _block_spec(model: str, dims: tuple) -> BlockSpec:
    # classification ignores q and A
    return BlockSpec(model, dims, 0.5, 1.0)


@lru_cache(maxsize=64)
def _seed_flat_mask(model: str, dims: tuple) -> np.ndarray:
    mask = _seed_mask(_block_spec(model, dims)).ravel()
    mask.flags.writeable = False
    return mask


def _seed_flats(geom: Geometry, model: str, bx: Box) -> np.ndarray:
    return box_region(geom, bx).indices[_seed_flat_mask(model, bx.dims)]


def _eligible(bits: np.ndarray, geom: Geometry, spec: BlockSpec,
              good=(), supergood=()) -> np.ndarray:
    """Per row of a (K, n_sites) stack of configurations: is every block in
    `good` good and every block in `supergood` super-good? The blocks have
    spec's dims and lie inside the geometry."""
    empty = (bits == 0).reshape(-1, *geom.dims)
    ok = np.ones(empty.shape[0], dtype=bool)
    for bx in (*good, *supergood):
        g, sg = _classes(empty[(slice(None),) + tuple(
            slice(c, c + n) for c, n in zip(bx.corner, bx.dims))], spec)
        ok &= sg if bx in supergood else g
    return ok


def _require_2d_block_model(model: str, geom: Geometry, x: Box,
                            kind: str) -> None:
    if model == "fakf":
        raise NotImplementedError(f"{kind} paths are built for fa2 and gg blocks")
    if model not in ("fa2", "gg"):
        raise ValueError(f"unknown block model {model!r}")
    if geom.d != 2 or len(x.dims) != 2:
        raise NotImplementedError(f"{kind} paths are two-dimensional")


def _block_step(x: Box, y: Box):
    """(axis, direction) when y sits exactly one block step from x."""
    deltas = [yc - xc for xc, yc in zip(x.corner, y.corner)]
    hits = [a for a, dlt in enumerate(deltas) if dlt != 0]
    if len(hits) != 1 or abs(deltas[hits[0]]) != x.dims[hits[0]]:
        raise ValueError("blocks are not adjacent")
    return hits[0], (1 if deltas[hits[0]] > 0 else -1)


def _reflect_box(geom: Geometry, bx: Box, axis: int) -> Box:
    corner = list(bx.corner)
    corner[axis] = geom.dims[axis] - bx.corner[axis] - bx.dims[axis]
    return Box(tuple(corner), bx.dims)


def _reflect_vertices(geom: Geometry, verts: np.ndarray, axis: int) -> np.ndarray:
    if verts.size == 0:
        return verts.astype(np.int64)
    coords = np.array(np.unravel_index(verts, geom.dims))
    coords[axis] = geom.dims[axis] - 1 - coords[axis]
    return np.ravel_multi_index(tuple(coords), geom.dims).astype(np.int64)


def _reflected(builder, cfg: Configuration, x: Box, y: Box,
               axis: int) -> LegalPath:
    geom = cfg.geom
    arr = cfg.bits.reshape(geom.dims)
    rbits = np.ascontiguousarray(np.flip(arr, axis=axis)).ravel()
    p = builder(Configuration(geom, rbits),
                _reflect_box(geom, x, axis), _reflect_box(geom, y, axis))
    return LegalPath(cfg.copy(), _reflect_vertices(geom, p.vertices, axis),
                     p.values.copy())


# ------------------------------------------------------------- block paths


def path_B(cfg: Configuration, model: str, x: Box, y: Box) -> LegalPath:
    """Promotion path between adjacent blocks.

    The start must make block x good and its neighbor y (one block step
    away along one axis) super-good. The result is a legal path from the
    start to the start with x's promotion seed set emptied, flips confined
    to the two blocks.
    """
    geom = cfg.geom
    _require_2d_block_model(model, geom, x, "promotion")
    if tuple(x.dims) != tuple(y.dims):
        raise ValueError("blocks must have equal dims")
    check_fit(geom, x)
    check_fit(geom, y)
    axis, direction = _block_step(x, y)
    spec = _block_spec(model, x.dims)
    if not _eligible(cfg.bits[None], geom, spec, good=(x,))[0]:
        raise ValueError("block x is not good")
    if not _eligible(cfg.bits[None], geom, spec, supergood=(y,))[0]:
        raise ValueError("block y is not super-good")
    if model == "fa2":
        p = _fa2_promotion(cfg, x, y, axis, direction)
    elif axis == 0:
        p = _gg_promotion_sideways(cfg, x, y)
    elif direction > 0:
        p = _gg_promotion_upward(cfg, x, y)
    else:
        p = _reflected(_gg_promotion_upward, cfg, x, y, axis=1)
    # seed sites already empty at the start shrink the sweep-and-restore
    # walk into retraced states; erase those loops
    p = p.loop_erased()
    expected = cfg.bits.copy()
    expected[_seed_flats(geom, model, x)] = 0
    assert np.array_equal(p.end().bits, expected)
    n1, n2 = x.dims
    assert p.length <= 16 * n1 * n2 * (n1 + n2)
    return p


def _fa2_promotion(cfg: Configuration, x: Box, y: Box,
                   axis: int, direction: int) -> LegalPath:
    geom = cfg.geom
    fam = _FA2
    n = x.dims[axis]
    rec = _Recorder(cfg)
    if direction < 0:
        # y's empty seed edges face away from x: march its emptiness over
        for t in range(1, n):
            _sweep(rec, fam, slice_region(geom, y, axis, t))
        order = range(n)
    else:
        order = range(n - 1, -1, -1)
    for t in order:
        _sweep(rec, fam, slice_region(geom, x, axis, t))
    skip = frozenset(int(v) for v in _seed_flats(geom, "fa2", x))
    rec.reverse_tail(skip)
    p = rec.path()
    assert p.length <= (4 if direction < 0 else 2) * int(np.prod(x.dims))
    return p


def _gg_promotion_sideways(cfg: Configuration, x: Box, y: Box) -> LegalPath:
    geom = cfg.geom
    n2 = x.dims[1]
    o1 = x.corner[1]
    xs0, ys0 = x.corner[0], y.corner[0]
    step = 1 if xs0 > ys0 else -1
    starts = list(range(ys0, xs0, step)) + [xs0]
    regions = [box_region(geom, Box((c, o1), (2, n2))) for c in starts]
    return chain_schedule(cfg, _GG, regions)


def _gg_promotion_upward(cfg: Configuration, x: Box, y: Box) -> LegalPath:
    geom = cfg.geom
    fam = _GG
    n1, n2 = x.dims
    o0, o1 = x.corner
    top = y.corner[1] + n2
    rec = _Recorder(cfg)
    for i in range(1, n2 + 1):
        r = o1 + n2 - i
        row = cfg.bits[[geom.flat((o0 + c, r)) for c in range(n1)]]
        a = next((c for c in range(n1 - 1)
                  if row[c] == 0 and row[c + 1] == 0), None)
        if a is None:
            raise RuntimeError("good block lost its adjacent empty pair")
        regions = [box_region(geom, Box((o0 + c, r + 1), (2, top - r - 1)))
                   for c in range(a + 1)]
        regions += [box_region(geom, Box((o0 + c, r), (2, top - r)))
                    for c in range(a, -1, -1)]
        stage = chain_schedule(Configuration(geom, rec.bits.copy()), fam, regions)
        for v, val in zip(stage.vertices.tolist(), stage.values.tolist()):
            rec.flip(v, val)
    return rec.path()


def path_A(cfg: Configuration, model: str, x: Box,
           z: Sequence[int]) -> LegalPath:
    """Flip one site of a block sitting between two super-good neighbors.

    The blocks one step up and one step right of x must be super-good; x
    itself is unconstrained. The path ends at the start with z's value
    flipped and nothing else changed. No flip ever uses z's own state as a
    witness, so the construction is legal for either flip direction.
    """
    geom = cfg.geom
    _require_2d_block_model(model, geom, x, "single-flip")
    n1, n2 = x.dims
    right = Box((x.corner[0] + n1, x.corner[1]), x.dims)
    upper = Box((x.corner[0], x.corner[1] + n2), x.dims)
    for bx in (x, right, upper):
        check_fit(geom, bx)
    z = as_ints(z, "z")
    if not x.contains(z):
        raise ValueError("target site is not in the block")
    spec = _block_spec(model, x.dims)
    for what, bx in (("right", right), ("upper", upper)):
        if not _eligible(cfg.bits[None], geom, spec, supergood=(bx,))[0]:
            raise ValueError(f"{what} neighbor block is not super-good")
    fam = _FA2 if model == "fa2" else _GG
    zf = geom.flat(z)
    visible = np.ones(geom.n_sites, dtype=bool)
    visible[zf] = False
    rec = _Recorder(cfg)
    o0, o1 = x.corner
    zx, zy = z[0] - o0, z[1] - o1
    if model == "gg":
        # extend the upper block's seed emptiness across its whole width
        for j in range(2, n1):
            col = box_region(geom, Box((o0 + j, upper.corner[1]), (1, n2)))
            _sweep(rec, fam, col, visible=visible)
    for c in range(n1 - 1, zx, -1):
        _sweep(rec, fam, box_region(geom, Box((o0 + c, o1), (1, n2))),
               visible=visible)
    if zy < n2 - 1:
        seg = box_region(geom, Box((o0 + zx, o1 + zy + 1), (1, n2 - 1 - zy)))
        _sweep(rec, fam, seg, visible=visible)
    rec.flip(zf, 1 - int(cfg.bits[zf]))
    rec.reverse_tail(frozenset((zf,)))
    p = rec.path()
    expected = cfg.bits.copy()
    expected[zf] = 1 - expected[zf]
    assert np.array_equal(rec.bits, expected)
    assert p.length <= 4 * n1 * n2 + 1
    return p


# ----------------------------------------------------------- input samplers


def _first_eligible(geom: Geometry, spec: BlockSpec, q: float, seed: int,
                    replica: int, forced: np.ndarray, good=(),
                    supergood=()) -> Configuration:
    """The first eligible layout among a replica's attempts.

    Attempt a is the product-measure layout of STREAM_AUX under the id
    (replica << _ATTEMPT_BITS) | a with the `forced` sites emptied; it is
    eligible when every block in `good` is good and every block in
    `supergood` super-good. Attempts are drawn and classified a block at a
    time, so the layout is the one a one-attempt loop would return.
    """
    ids = (np.uint64((int(replica) << _ATTEMPT_BITS) & rng.MASK64)
           | np.arange(_ATTEMPTS, dtype=np.uint64))
    for _, bits in random_bits(geom, q, seed, ids, stream=rng.STREAM_AUX,
                               rows=_ATTEMPT_BLOCK):
        bits[:, forced] = 0
        hit = np.flatnonzero(_eligible(bits, geom, spec, good, supergood))
        if hit.size:
            return Configuration(geom, bits[hit[0]].copy())
    raise RuntimeError("no eligible start found; q may be too extreme")


def sample_path_B_instance(model: str, dims, q: float, seed: int,
                           replica: int, axis: int = 0,
                           direction: int = 1):
    """Reproducible eligible start for path_B: returns (cfg, x, y).

    Lays two blocks one step apart on a tight geometry, forces y's
    promotion seed set empty, and redraws the whole layout until x is good
    and y super-good (the conditional product law).
    """
    dims = as_ints(dims, "dims")
    if axis not in (0, 1) or direction not in (-1, 1):
        raise ValueError("axis must be 0 or 1 and direction +1 or -1")
    full = list(dims)
    full[axis] *= 2
    geom = Geometry(full)
    lead = [0, 0]
    lead[axis] = dims[axis]
    if direction > 0:
        x, y = Box((0, 0), dims), Box(tuple(lead), dims)
    else:
        x, y = Box(tuple(lead), dims), Box((0, 0), dims)
    cfg = _first_eligible(geom, _block_spec(model, dims), q, seed, replica,
                          _seed_flats(geom, model, y), good=(x,),
                          supergood=(y,))
    return cfg, x, y


def sample_path_A_instance(model: str, dims, q: float, seed: int,
                           replica: int):
    """Reproducible eligible start for path_A: returns (cfg, x, z)."""
    n1, n2 = dims = as_ints(dims, "dims")
    geom = Geometry((2 * n1, 2 * n2))
    x = Box((0, 0), dims)
    right = Box((n1, 0), dims)
    upper = Box((0, n2), dims)
    forced = np.concatenate([_seed_flats(geom, model, right),
                             _seed_flats(geom, model, upper)])
    zu = float(rng.uniforms_replicas_np(
        seed, rng.STREAM_CLOCK, [int(replica) & rng.MASK64],
        geom.vertex_keys()[:1])[0, 0])
    zi = min(int(zu * n1 * n2), n1 * n2 - 1)
    z = (zi // n2, zi % n2)
    cfg = _first_eligible(geom, _block_spec(model, dims), q, seed, replica,
                          forced, supergood=(right, upper))
    return cfg, x, z


# --------------------------------------------------------------- congestion


def congestion_constant(paths: Sequence[LegalPath],
                        q: float) -> CongestionReport:
    """Congestion of a path family at vacancy density q: replay every path
    and accumulate mu(start)/mu(state) on each visited configuration,
    endpoints included; the constant is the largest accumulated load.
    congestion_bound_triple gives the product bound without enumeration.
    """
    paths = list(paths)
    n_max = max((p.length for p in paths), default=0)
    if not 0.0 < q < 1.0:
        raise ValueError("exact congestion needs 0 < q < 1")
    if len(paths) > _EXACT_CAP:
        raise ValueError("path family too large for exact enumeration")
    base = (1.0 - q) / q
    loads: dict[bytes, float] = {}
    for p in paths:
        deltas = accumulate((1 if val else -1 for val in p.values.tolist()),
                            initial=0)
        for key, delta in zip(p._keys(), deltas):
            loads[key] = loads.get(key, 0.0) + base ** (-delta)
    rho = max(loads.values(), default=0.0)
    return CongestionReport(float(rho), n_max)


def congestion_bound_triple(region_sizes: Sequence[int], q: float) -> float:
    """(2/q)^s with s the largest total of three consecutive region sizes."""
    sizes = [int(s) for s in region_sizes]
    if not sizes:
        return 1.0
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0,1]")
    worst = max(sum(sizes[max(0, i - 2):i + 1]) for i in range(len(sizes)))
    return (2.0 / q) ** worst


def poincare_path_bound(rho_a: float, n_a: float, rho_b: float, n_b: float,
                        lambda_phi_value: float, p2: float,
                        block_sites: int, d: int = 2) -> float:
    """Relaxation-time upper bound assembled from measured path statistics."""
    if not 0.0 < p2 <= 1.0:
        raise ValueError("p2 must be in (0,1]")
    lead = (lambda_phi_value / p2 ** 4) ** d
    return lead * max(rho_a * n_a * block_sites ** 2,
                      rho_b * n_b * block_sites)
