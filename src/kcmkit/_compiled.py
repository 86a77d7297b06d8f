"""Compiled kernels: a ctypes binding of the C99 library built from _ckernels.c.

Same contract as kcmkit._pure and its five entry points, and the same
results (bit-identical trajectories for the event loop, byte-identical
uniforms). `python setup.py build_ext --inplace` puts the library next to
this file; `load` returns None when it is missing or cannot be loaded, and
kcmkit.kernels then falls back to _pure. Arguments are checked and
converted by _pure's *_args functions right before each C call; only the
family-table check and the mapping of C's error returns live here. The
converted family tables are cached per FamilyTables object, for as long as
that object lives. A family with more than 16 slots has no mask table
(FamilyTables.sat is None), so its closure, threshold and kcm_run calls go
to the _pure kernels.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import weakref
from pathlib import Path

import numpy as np

from . import _pure
from .families import FamilyTables

IMPL_NAME = "compiled"
LIBRARY = "_ckernels"

_STATUS = ("t_max", "target", "max_events")   # indexed by the KK_* codes
# initial event-log capacity; a longer log costs one deterministic rerun
_EVENT_CAP = 1 << 20

_i64, _u64, _dbl = ctypes.c_int64, ctypes.c_uint64, ctypes.c_double
_ptr = ctypes.c_void_p


class RunStats(ctypes.Structure):
    """Mirror of kk_run_stats in _ckernels.c."""

    _fields_ = [("t_end", _dbl), ("t_target_empty", _dbl),
                ("t_target_first_legal", _dbl), ("rings", _i64),
                ("legal_updates", _i64), ("flips", _i64),
                ("n_events", _i64), ("status", _i64)]


def _addr(a: np.ndarray | None):
    """Data address of a contiguous array, or None. ctypes' from_buffer
    fetches it about three times faster than ndarray.ctypes, which matters
    for kernel calls on small grids, but it takes only writable, non-empty
    arrays; the others go through ndarray.ctypes."""
    if a is None:
        return None
    if a.flags.writeable and a.nbytes:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    return a.ctypes.data


class _Tables:
    """Contiguous C-typed views of a FamilyTables and their addresses, held
    while C reads them."""

    def __init__(self, t: FamilyTables):
        n = t.n_sites
        nbr, rev = (np.ascontiguousarray(a, np.int64) for a in (t.nbr, t.rev))
        sat = np.ascontiguousarray(t.sat, np.uint8)
        S = nbr.shape[1]
        if (nbr.shape != (n, S) or rev.shape != nbr.shape
                or sat.shape != (1 << S,)):
            raise ValueError("family tables do not match the geometry")
        self.n = n
        self._arrays = (nbr, rev, sat)
        pad_empty = int(bool(t.pad_empty))
        self.closure_args = (n, S, _addr(nbr), _addr(rev), _addr(sat),
                             pad_empty)
        self.run_args = (n, S, _addr(nbr), _addr(sat), pad_empty)


class Kernels:
    """The five kernel entry points over one loaded library."""

    IMPL_NAME = IMPL_NAME

    def __init__(self, path: Path):
        lib = ctypes.CDLL(str(path))
        lib.kk_closure.argtypes = [_i64, _i64] + [_ptr] * 3 + [
            ctypes.c_int] + [_ptr] * 5
        lib.kk_threshold.argtypes = [_i64, _i64] + [_ptr] * 3 + [
            ctypes.c_int, _i64, _ptr, _ptr]
        lib.kk_kcm_run.argtypes = [
            _i64, _i64, _ptr, _ptr, ctypes.c_int, _ptr, _ptr,
            _u64, _u64, _dbl, _dbl, _i64, ctypes.c_int, _ptr, _i64, _ptr,
            _i64, _ptr, _ptr, _ptr, _i64, ctypes.POINTER(RunStats)]
        lib.kk_crossing_batch.argtypes = [_i64, _i64, _i64, _ptr,
                                          ctypes.c_int, _ptr]
        lib.kk_uniforms.argtypes = [_u64, _i64, _ptr, _i64, _ptr, _u64, _ptr]
        for fn in (lib.kk_closure, lib.kk_threshold, lib.kk_kcm_run,
                   lib.kk_crossing_batch, lib.kk_uniforms):
            fn.restype = ctypes.c_int
        self._lib = lib
        self._tables = weakref.WeakKeyDictionary()

    def _converted(self, t: FamilyTables) -> _Tables:
        """The _Tables of t, cached until t is collected (FamilyTables
        hashes by identity)."""
        hit = self._tables.get(t)
        if hit is None:
            hit = self._tables[t] = _Tables(t)
        return hit

    @staticmethod
    def _check(rc: int) -> None:
        if rc != 0:
            raise MemoryError("kcmkit compiled kernel: out of memory")

    def closure(self, bits, t: FamilyTables, flippable=None, visible=None):
        """Bootstrap closure with synchronous-round labels.

        Same contract as kcmkit._pure.closure: returns (out_bits, rounds)
        with rounds[v] = 0 for initially empty sites, r >= 1 for sites
        emptied in round r, -1 for sites never emptied.
        """
        if t.sat is None:
            return _pure.closure(bits, t, flippable, visible)
        tb = self._converted(t)
        b, flip, vis = _pure.closure_args(bits, tb.n, flippable, visible)
        out = np.empty(tb.n, dtype=np.uint8)
        rounds = np.empty(tb.n, dtype=np.int32)
        self._check(self._lib.kk_closure(
            *tb.closure_args, _addr(b), _addr(flip), _addr(vis), _addr(out),
            _addr(rounds)))
        return out, rounds

    def threshold(self, order, t: FamilyTables) -> np.ndarray:
        """Spanning thresholds by incremental closure; mirrors
        kcmkit._pure.threshold."""
        if t.sat is None:
            return _pure.threshold(order, t)
        tb = self._converted(t)
        o = _pure.threshold_args(order, tb.n)
        out = np.empty(o.shape[0], dtype=np.int64)
        rc = self._lib.kk_threshold(*tb.closure_args, o.shape[0], _addr(o),
                                    _addr(out))
        if rc == -2:
            raise ValueError("an order row does not empty every site")
        self._check(rc)
        return out

    def kcm_run(self, bits, t: FamilyTables, vkeys, seed, replica, q, t_max,
                target=-1, stop_when_target_empty=False, batch_edges=None,
                log_events=False, max_events=None):
        """Continuous-time constrained dynamics; mirrors kcmkit._pure.kcm_run."""
        if t.sat is None:
            return _pure.kcm_run(bits, t, vkeys, seed, replica, q, t_max,
                                 target, stop_when_target_empty, batch_edges,
                                 log_events, max_events)
        tb = self._converted(t)
        b, vk, seed, replica, q, t_max, target, stop, edges, me = \
            _pure.kcm_run_args(bits, tb.n, vkeys, seed, replica, q, t_max,
                               target, stop_when_target_empty, batch_edges,
                               max_events)
        cap = 0
        if log_events:
            # rings arrive at rate 1 per site, so this usually holds the log
            cap = int(min(me, _EVENT_CAP, 1.25 * tb.n * max(t_max, 0.0) + 64))
        vk_addr, edges_addr = _addr(vk), _addr(edges)
        while True:
            integrals = np.zeros(0 if edges is None else edges.size - 1)
            ev = (np.empty(cap), np.empty(cap, dtype=np.int32),
                  np.empty(cap, dtype=np.uint8)) if log_events else (None,) * 3
            out = b.copy()
            st = RunStats()
            # C reads integrals only with edges, and _addr takes the slow
            # ndarray.ctypes path (about 3 us) for the empty array
            self._check(self._lib.kk_kcm_run(
                *tb.run_args, _addr(out), vk_addr, seed, replica, q, t_max,
                target, stop, edges_addr, 0 if edges is None else edges.size,
                None if edges is None else _addr(integrals), me,
                *map(_addr, ev), cap, ctypes.byref(st)))
            if st.n_events <= cap:
                break
            cap = st.n_events
        events = None
        if log_events:
            k = st.n_events
            events = ev if k == cap else tuple(a[:k].copy() for a in ev)
        return {
            "bits": out,
            "t_end": st.t_end,
            "rings": st.rings,
            "legal_updates": st.legal_updates,
            "flips": st.flips,
            "t_target_empty": st.t_target_empty,
            "t_target_first_legal": st.t_target_first_legal,
            "batch_integrals": integrals,
            "events": events,
            "status": _STATUS[st.status],
        }

    def uniforms(self, head, replicas, vkeys, counter) -> np.ndarray:
        """(R, N) counter-based uniforms; mirrors kcmkit._pure.uniforms."""
        head, reps, vk, counter = _pure.uniforms_args(head, replicas, vkeys,
                                                      counter)
        out = np.empty((reps.size, vk.size))
        self._check(self._lib.kk_uniforms(
            head, reps.size, _addr(reps), vk.size, _addr(vk), counter,
            _addr(out)))
        return out

    def crossing_batch(self, empty_grids, axis: int) -> np.ndarray:
        """Which grids have a nearest-neighbor True path joining the two
        faces orthogonal to `axis`. empty_grids has shape (R, n0, n1)."""
        g, axis = _pure.crossing_args(empty_grids, axis)
        out = np.zeros(g.shape[0], dtype=bool)
        self._check(self._lib.kk_crossing_batch(
            *g.shape, _addr(g), axis, _addr(out)))
        return out


def load(directory: Path | None = None) -> Kernels | None:
    """Kernels over the library built in `directory` (default: this
    package), or None when it is not built or cannot be loaded."""
    directory = Path(__file__).parent if directory is None else directory
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / f"{LIBRARY}{suffix}"
        if path.is_file():
            try:
                return Kernels(path)
            except OSError:
                return None
    return None
