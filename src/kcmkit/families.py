"""Update families: the constraint side of bootstrap and constrained dynamics.

An update family is a finite list of rules; each rule is a finite set of
nonzero integer offsets. A site's constraint is satisfied when some rule,
translated to the site, lands entirely on empty sites. Boundary semantics
come from the geometry: wrapped on a torus, and on a free box an offset that
leaves the box counts as occupied (conservative default) or empty
(``outside_empty``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .lattice import Geometry, _opened, as_ints

Offset = tuple[int, ...]
Rule = frozenset

_SAT_SLOTS = 16   # the most slots a sat table covers: C holds masks in uint16


@dataclass(frozen=True)
class UpdateFamily:
    """Immutable family of update rules in dimension d."""

    d: int
    rules: tuple[Rule, ...]
    name: str = "custom"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if not self.rules:
            raise ValueError("family needs at least one rule")
        seen = set()
        for rule in self.rules:
            for off in rule:
                if len(off) != self.d:
                    raise ValueError(f"offset {off} has wrong dimension")
                if all(c == 0 for c in off):
                    raise ValueError("offsets must be nonzero")
            key = frozenset(rule)
            if key in seen:
                raise ValueError("duplicate rule in family")
            seen.add(key)

    def offsets(self) -> list[Offset]:
        """Distinct offsets used by any rule, in sorted order."""
        return sorted({off for rule in self.rules for off in rule})


def _unit(d: int, axis: int, sign: int) -> Offset:
    v = [0] * d
    v[axis] = sign
    return tuple(v)


def make_family(model: str, d: int | None = None, k: int | None = None,
                rules: Sequence[Sequence[Offset]] | None = None) -> UpdateFamily:
    """Construct a named family.

    Models: ``fa_kf`` (all k-subsets of the 2d unit vectors, needs d and k),
    ``gg`` (the 20 3-subsets of {+-e1, +-e2, +-2e1}, d=2), ``east`` (the d
    singletons {-e_i}), ``north_east`` (the single rule {e1, e2}, d=2),
    ``unconstrained`` (one empty rule: every site always updatable), and
    ``custom`` (explicit rules).
    """
    if model == "fa_kf":
        if d is None or k is None:
            raise ValueError("fa_kf needs d and k")
        if not 1 <= k <= 2 * d:
            raise ValueError(f"fa_kf needs 1 <= k <= 2d, got k={k}, d={d}")
        units = [_unit(d, a, s) for a in range(d) for s in (+1, -1)]
        rules_ = tuple(frozenset(c) for c in combinations(units, k))
        return UpdateFamily(d, rules_, name=f"fa_{k}f_d{d}")
    if model == "gg":
        if d not in (None, 2):
            raise ValueError("gg is a d=2 model")
        pool = [(1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (-2, 0)]
        rules_ = tuple(frozenset(c) for c in combinations(pool, 3))
        return UpdateFamily(2, rules_, name="gg")
    if model == "east":
        if d is None:
            raise ValueError("east needs d")
        rules_ = tuple(frozenset([_unit(d, a, -1)]) for a in range(d))
        return UpdateFamily(d, rules_, name=f"east_d{d}")
    if model == "north_east":
        if d not in (None, 2):
            raise ValueError("north_east is a d=2 model")
        return UpdateFamily(2, (frozenset([(1, 0), (0, 1)]),), name="north_east")
    if model == "unconstrained":
        dd = 1 if d is None else d
        return UpdateFamily(dd, (frozenset(),), name="unconstrained")
    if model == "custom":
        if rules is None:
            raise ValueError("custom needs explicit rules")
        rules_ = tuple(frozenset(as_ints(off, "offset") for off in rule)
                       for rule in rules)
        dd = d
        if dd is None:
            for rule in rules_:
                for off in rule:
                    dd = len(off)
                    break
                if dd is not None:
                    break
        if dd is None:
            raise ValueError("cannot infer dimension from fully empty rules")
        return UpdateFamily(dd, rules_, name="custom")
    raise ValueError(f"unknown model {model!r}")


# -------------------------------------------------------------- family files

def write_family(fam: UpdateFamily, fh) -> None:
    """One rule per line, offsets as `;`-separated integer tuples.

    The empty rule is written as a single `-` so that blank lines stay
    insignificant.
    """
    with _opened(fh, "w") as fh:
        fh.write(f"# d={fam.d}\n")
        for rule in fam.rules:
            if not rule:
                fh.write("-\n")
            else:
                fh.write("; ".join(f"({','.join(map(str, off))})"
                                   for off in sorted(rule)) + "\n")


def read_family(fh, name: str = "custom") -> UpdateFamily:
    with _opened(fh) as fh:
        rules: list[list[Offset]] = []
        d = None
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("d="):
                    d = int(body[2:])
                continue
            if line == "-":
                rules.append([])
                continue
            rule = []
            for piece in line.split(";"):
                piece = piece.strip().strip("()")
                if not piece:
                    raise ValueError(f"malformed rule line {line!r}")
                rule.append(tuple(int(tok) for tok in piece.split(",")))
            rules.append(rule)
        fam = make_family("custom", rules=rules, d=d)
        return UpdateFamily(fam.d, fam.rules, name=name)


# ------------------------------------------------ kernel-facing rule tables

@dataclass(frozen=True, eq=False)
class FamilyTables:
    """Precomputed adjacency for one (geometry, family) pair; compared and
    hashed by identity, so kernels can cache per object.

    Slot s is the family's s-th distinct offset (UpdateFamily.offsets).
    nbr[v, s] is the flat index of v + offset_s, with the pad index N for
    offsets leaving a free box. rev is the neighbour table of the negated
    offsets: rev[v, s] is v - offset_s, so nbr[rev[v, s], s] = v wherever
    rev[v, s] < N. Both come from Geometry.neighbor_table and are int32,
    4 bytes per slot and site, so N is at most 2^31 - 1 (larger boxes are
    refused there).
    rules[k] holds rule k's sorted slots. sat[mask] is 1 iff the slot set
    `mask` (bit s for slot s) contains some rule, i.e. a site whose empty
    slots are `mask` is satisfied; it has 2^S entries, and is None for more
    than _SAT_SLOTS slots. The C kernels read nbr, rev, sat and
    pad_empty: 1 when the pad slot, the outside of a free box, reads empty.
    Construction checks this layout, which the C code indexes unchecked,
    and makes every array read-only: tables_for shares one object.
    """

    geom: Geometry
    fam: UpdateFamily
    nbr: np.ndarray          # (N, S) int32
    rev: np.ndarray          # (N, S) int32
    rules: tuple[np.ndarray, ...]   # int32 slot ids of each rule, sorted
    sat: np.ndarray | None   # (2^S,) uint8, or None for S > _SAT_SLOTS
    pad_empty: int

    def __post_init__(self):
        n, S = self.n_sites, len(self.fam.offsets())
        layout = [("nbr", np.int32, (n, S), n), ("rev", np.int32, (n, S), n)]
        if S <= _SAT_SLOTS:
            layout.append(("sat", np.uint8, (1 << S,), 1))
        elif self.sat is not None:
            raise ValueError(f"sat must be None for {S} > {_SAT_SLOTS} slots")
        for name, dtype, shape, top in layout:
            a = getattr(self, name)
            if not (isinstance(a, np.ndarray) and a.dtype == dtype
                    and a.shape == shape and a.flags.c_contiguous
                    and (a.size == 0 or 0 <= a.min() and a.max() <= top)):
                raise ValueError(f"{name} must be a C-contiguous {shape} "
                                 f"{np.dtype(dtype)} array over [0, {top}]")
        slots = np.concatenate((np.zeros(0, np.int64), *self.rules))
        if slots.dtype.kind not in "iu" or ((slots < 0) | (slots >= S)).any():
            raise ValueError(f"rules must hold slot ids in [0, {S})")
        if self.pad_empty not in (0, 1):
            raise ValueError("pad_empty must be 0 or 1")
        for a in (self.nbr, self.rev, self.sat, *self.rules):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    @property
    def n_sites(self) -> int:
        return self.geom.n_sites


def _satisfiable(rules: Sequence[np.ndarray], S: int) -> np.ndarray | None:
    """sat[mask] = 1 iff some rule's slots all lie in mask: each rule's own
    mask is marked, then one upward-closure pass per slot bit."""
    if S > _SAT_SLOTS:
        return None
    sat = np.zeros(1 << S, dtype=np.uint8)
    sat[[sum(1 << int(s) for s in slots) for slots in rules]] = 1
    for b in range(S):
        halves = sat.reshape(-1, 2, 1 << b)   # [:, 1] has bit b set
        halves[:, 1] |= halves[:, 0]
    return sat


def build_tables(geom: Geometry, fam: UpdateFamily) -> FamilyTables:
    if fam.d != geom.d:
        raise ValueError("family dimension does not match geometry")
    offsets = fam.offsets()
    slot_of = {off: s for s, off in enumerate(offsets)}
    off_arr = np.asarray(offsets, dtype=np.int64).reshape(len(offsets), fam.d)
    rules = tuple(np.array(sorted(slot_of[off] for off in rule),
                           dtype=np.int32) for rule in fam.rules)
    return FamilyTables(
        geom=geom, fam=fam, nbr=geom.neighbor_table(off_arr),
        rev=geom.neighbor_table(-off_arr), rules=rules,
        sat=_satisfiable(rules, len(offsets)),
        pad_empty=1 if geom.outside_empty else 0,
    )


@lru_cache(maxsize=64)
def tables_for(geom: Geometry, fam: UpdateFamily) -> FamilyTables:
    """Cached build_tables; geometry and family are both hashable."""
    return build_tables(geom, fam)
