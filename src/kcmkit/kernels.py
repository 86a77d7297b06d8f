"""Kernel selection: compiled C kernels when built, numpy fallback otherwise.

Set KCMKIT_PURE=1 to force the fallback (used by the parity tests and the
benchmark). FALLBACK_REASON says why the fallback runs (None when the
compiled kernels do): the variable, a missing library, or one that
kcmkit._compiled refused because its source stamp is not that of the
_ckernels.c it binds.

Both implementations expose the same six entry points (closure, threshold,
kcm_run, crossing_batch, uniforms, csr_operator) with identical semantics,
bit-identical trajectories for the event loop and byte-identical uniforms
and matrix-vector products. The closure takes one row of bits, shape (n,),
or a block of rows, shape (R, n), with one flippable mask for every row,
and returns out and rounds of the same shape. Their argument checks live
in kcmkit._pure, which both call; a FamilyTables checks its own layout when
it is built, and csr_operator checks its matrix once.

The compiled closure, threshold and kcm_run read a family's rules through
one empty-slot bitmask per site (uint16) and its satisfiability table
FamilyTables.sat. A family with more than 16 distinct offsets has no such
table, and the compiled binding runs _pure's kernels for it. Of the CLI's
families that is fa_kf from d=9 (2d offsets) and east from d=17 (d
offsets); gg, north_east and unconstrained are never affected.
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

closure = _impl.closure
threshold = _impl.threshold
kcm_run = _impl.kcm_run
crossing_batch = _impl.crossing_batch
uniforms = _impl.uniforms
csr_operator = _impl.csr_operator


def implementations():
    """All loadable kernel implementations, name -> object exposing the
    six entry points (for benchmarks/tests)."""
    out = {"pure": _pure}
    compiled = _compiled.load()
    if compiled is not None:
        out["compiled"] = compiled
    return out
