"""Kernel selection: compiled C kernels when built, numpy fallback otherwise.

Set KCMKIT_PURE=1 to force the fallback (used by the parity tests and the
benchmark). FALLBACK_REASON says why the fallback runs (None when the
compiled kernels do): the variable, a missing library, or one that
kcmkit._compiled refused because its source stamp is not that of the
_ckernels.c it binds.

Both implementations expose the entry points named in _pure.ENTRY_POINTS,
bound here by name, with identical semantics, bit-identical trajectories
for the event loop and byte-identical uniforms, matrix-vector products,
class generators and symmetrizations. The closure takes one row of bits,
shape (n,), or a block of rows, shape (R, n), with one flippable mask for
every row, and returns out and rounds of the same shape. Their argument
checks live in kcmkit._pure, which both call; a FamilyTables checks its own
layout when it is built, and csr_operator checks its matrix once. kcm_run
computes the trajectory only, with no window integrals (kcmkit.kcm takes
those from the event log), keys its clocks on the tables' geometry,
t.geom.vertex_keys(), runs to t_max or stops when its target first empties,
and returns its event log, when asked, as one array of _pure.EVENT records.
uniforms draws the counter-0 uniforms of a batch of replica ids.
class_generator returns the class of the all-empty configuration and its
generator as canonical CSR arrays, and symmetrized pairs every entry of
such a generator with its reverse, returning its symmetrization and its
largest detailed-balance error (kcmkit.spectral).

The compiled closure, threshold, kcm_run and class_generator read a
family's rules through one empty-slot bitmask per site (uint16) and its
satisfiability table FamilyTables.sat. A family with more than 16 distinct
offsets has no such table, and the compiled binding runs _pure's kernels
for it. Of the CLI's families that is fa_kf from d=9 (2d offsets) and east
from d=17 (d offsets); gg, north_east and unconstrained are never affected.
"""

from __future__ import annotations

import os

from . import _compiled, _pure

_impl = _pure
FALLBACK_REASON: str | None = "KCMKIT_PURE is set"
if os.environ.get("KCMKIT_PURE", "") in ("", "0"):
    try:
        _impl, FALLBACK_REASON = _compiled.open_kernels(), None
    except _compiled.LoadError as e:
        FALLBACK_REASON = str(e)

IMPLEMENTATION: str = _impl.IMPL_NAME

# kernels.closure, kernels.threshold, ...: every entry point, by name
globals().update({name: getattr(_impl, name) for name in _pure.ENTRY_POINTS})


def implementations():
    """All loadable kernel implementations, name -> object exposing every
    entry point of _pure.ENTRY_POINTS (for benchmarks/tests); raises
    AttributeError naming any that one lacks."""
    out = {"pure": _pure}
    try:
        out["compiled"] = _compiled.open_kernels()
    except _compiled.LoadError:
        pass
    for name, impl in out.items():
        missing = [e for e in _pure.ENTRY_POINTS
                   if not callable(getattr(impl, e, None))]
        if missing:
            raise AttributeError(f"the {name} kernels lack {missing}")
    return out
