"""Kernel selection: compiled C kernels when built, numpy fallback otherwise.

Set KCMKIT_PURE=1 to force the fallback (used by the parity tests and the
benchmark). Both implementations expose the same five entry points
(closure, threshold, kcm_run, crossing_batch, uniforms) with identical
semantics, bit-identical trajectories for the event loop and byte-identical
uniforms. Their argument checks live in kcmkit._pure, which both call.

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

_impl = None
if os.environ.get("KCMKIT_PURE", "") in ("", "0"):
    _impl = _compiled.load()
if _impl is None:
    _impl = _pure

IMPLEMENTATION: str = _impl.IMPL_NAME

closure = _impl.closure
threshold = _impl.threshold
kcm_run = _impl.kcm_run
crossing_batch = _impl.crossing_batch
uniforms = _impl.uniforms


def implementations():
    """All loadable kernel implementations, name -> object exposing the
    five entry points (for benchmarks/tests)."""
    out = {"pure": _pure}
    compiled = _compiled.load()
    if compiled is not None:
        out["compiled"] = compiled
    return out
