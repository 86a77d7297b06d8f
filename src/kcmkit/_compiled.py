"""Compiled kernels: a ctypes binding of the C99 library built from _ckernels.c.

Same contract as kcmkit._pure and the entry points in its ENTRY_POINTS,
and the same results (bit-identical trajectories and event logs for the
event loop, byte-identical uniforms and generators); the closure takes one
row of bits or a block of rows in one C call. kcm_run's event log (one
buffer of packed _pure.EVENT records) and class_generator's CSR come back
in buffers the library allocated and grew, as arrays with no copy, which
kk_free releases. SIGNATURES declares the argument types of every kk_*
function.
`python setup.py build_ext --inplace` puts the library next to this file.
`open_kernels` raises LoadError, saying why, when the library is missing,
cannot be loaded, or carries another source stamp than SOURCE_ID (the
first 8 bytes of the SHA-256 of the _ckernels.c this binding was written
for; setup.py stamps the library with the hash of the file it compiles),
and kcmkit.kernels then falls back to _pure.

Arguments are checked and converted by _pure's *_args functions right
before each C call, and a FamilyTables checks and freezes its layout when
it is built; only the mapping of C's error returns, and one cache of table
addresses per FamilyTables, live here. A family with more than 16 slots
has no mask table (FamilyTables.sat is None), so its closure, threshold,
kcm_run and class_generator calls go to the _pure kernels. kcm_run hands
C the vertex keys of t.geom and computes no window integrals.
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
# kk_source_id() of a library built from the shipped _ckernels.c; a test
# keeps it equal to the first 8 bytes of that file's SHA-256
SOURCE_ID = 0x48c3ef99a2dcb27b

_STATUS = ("t_max", "target")   # indexed by the KK_* codes

_i64, _u64, _dbl = ctypes.c_int64, ctypes.c_uint64, ctypes.c_double
_int, _ptr = ctypes.c_int, ctypes.c_void_p


class RunStats(ctypes.Structure):
    """Mirror of kk_run_stats in _ckernels.c: counters, and the event-log
    buffer the library allocates, released by kk_free."""

    _fields_ = [("t_end", _dbl), ("t_target_empty", _dbl),
                ("t_target_first_legal", _dbl), ("rings", _i64),
                ("legal_updates", _i64), ("flips", _i64),
                ("n_events", _i64), ("status", _i64), ("events", _ptr)]


class ClassCSR(ctypes.Structure):
    """Mirror of kk_class in _ckernels.c: four buffers the library
    allocates, each released by kk_free."""

    _fields_ = [("size", _i64), ("nnz", _i64), ("states", _ptr),
                ("indptr", _ptr), ("indices", _ptr), ("data", _ptr)]


_TABLE = [_i64, _i64, _ptr, _ptr, _ptr, _int]   # Kernels._table_args
# argtypes of every kk_* function but kk_source_id, each returning a C int
SIGNATURES = {
    "kk_closure": _TABLE + [_i64] + [_ptr] * 4,
    "kk_threshold": _TABLE + [_i64, _ptr, _ptr],
    "kk_kcm_run": [_i64, _i64, _ptr, _ptr, _int, _ptr, _ptr, _u64, _u64,
                   _dbl, _dbl, _i64, _int, _int, ctypes.POINTER(RunStats)],
    "kk_crossing_batch": [_i64, _i64, _i64, _ptr, _int, _ptr],
    "kk_uniforms": [_u64, _i64, _ptr, _i64, _ptr, _ptr],
    "kk_csr_matvec": [_i64] + [_ptr] * 5,
    "kk_class_generator": [_i64, _i64, _ptr, _ptr, _int, _dbl, _ptr],
    "kk_free": [_ptr],
}


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


class LoadError(OSError):
    """The compiled library is missing, cannot be loaded, or was built from
    another _ckernels.c; the message says which."""


_REBUILD = "rebuild it with `python setup.py build_ext --inplace`"


class Kernels:
    """The kernel entry points of _pure.ENTRY_POINTS over one loaded
    library."""

    IMPL_NAME = IMPL_NAME

    def __init__(self, path: Path):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError as e:
            raise LoadError(f"cannot load {path}: {e}") from None
        # the stamp is read before any other symbol: a stale library's
        # entry points may take other arguments than those declared below
        try:
            stamp = lib.kk_source_id
        except AttributeError:
            raise LoadError(f"{path} has no source stamp, so it was built "
                            f"from an older _ckernels.c; {_REBUILD}") from None
        stamp.argtypes, stamp.restype = [], _u64
        got = stamp()
        if got != SOURCE_ID:
            raise LoadError(f"{path} was built from another _ckernels.c "
                            f"(stamp {got:#018x}, expected "
                            f"{SOURCE_ID:#018x}); {_REBUILD}")
        for name, argtypes in SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, _int
        self._lib = lib
        self._tables = weakref.WeakKeyDictionary()

    def _table_args(self, t: FamilyTables) -> tuple:
        """(n, S, nbr, rev, sat, pad_empty), the leading C arguments of the
        closure and threshold calls, cached until t is collected; its
        read-only arrays live as long as t, which hashes by identity."""
        hit = self._tables.get(t)
        if hit is None:
            hit = self._tables[t] = (*t.nbr.shape, *map(
                _addr, (t.nbr, t.rev, t.sat)), int(t.pad_empty))
        return hit

    @staticmethod
    def _check(rc: int) -> None:
        if rc != 0:
            raise MemoryError("kcmkit compiled kernel: out of memory")

    def closure(self, bits, t: FamilyTables, flippable=None):
        """Bootstrap closure with synchronous-round labels of one row of
        bits or an (R, n) block of rows, in one C call; mirrors
        kcmkit._pure.closure."""
        if t.sat is None:
            return _pure.closure(bits, t, flippable)
        head = self._table_args(t)
        b, flip = _pure.closure_args(bits, head[0], flippable)
        out = np.empty(b.shape, dtype=np.uint8)
        rounds = np.empty(b.shape, dtype=np.int32)
        rows = 1 if b.ndim == 1 else b.shape[0]
        self._check(self._lib.kk_closure(
            *head, rows, _addr(b), _addr(flip), _addr(out), _addr(rounds)))
        return out, rounds

    def threshold(self, order, t: FamilyTables) -> np.ndarray:
        """Spanning thresholds by incremental closure; mirrors
        kcmkit._pure.threshold."""
        if t.sat is None:
            return _pure.threshold(order, t)
        head = self._table_args(t)
        o = _pure.threshold_args(order, head[0])
        out = np.empty(o.shape[0], dtype=np.int64)
        rc = self._lib.kk_threshold(*head, o.shape[0], _addr(o), _addr(out))
        if rc == -2:
            raise ValueError("an order row does not empty every site")
        self._check(rc)
        return out

    def kcm_run(self, bits, t: FamilyTables, seed, replica, q, t_max,
                target=-1, stop_when_target_empty=False, log_events=False):
        """Continuous-time constrained dynamics; mirrors kcmkit._pure.kcm_run."""
        if t.sat is None:
            return _pure.kcm_run(bits, t, seed, replica, q, t_max, target,
                                 stop_when_target_empty, log_events)
        n, S, nbr, _, sat, pad_empty = self._table_args(t)
        b, seed, replica, q, t_max, target, stop = _pure.kcm_run_args(
            bits, n, seed, replica, q, t_max, target, stop_when_target_empty)
        out = b.copy()
        st = RunStats()
        self._check(self._lib.kk_kcm_run(
            n, S, nbr, sat, pad_empty, _addr(out),
            _addr(t.geom.vertex_keys()), seed, replica, q, t_max, target,
            stop, bool(log_events), ctypes.byref(st)))
        events = None
        if log_events:
            events = self._adopted(st.events, ctypes.c_uint8, st.n_events
                                   * _pure.EVENT.itemsize).view(_pure.EVENT)
        return {
            "bits": out,
            "t_end": st.t_end,
            "rings": st.rings,
            "legal_updates": st.legal_updates,
            "flips": st.flips,
            "t_target_empty": st.t_target_empty,
            "t_target_first_legal": st.t_target_first_legal,
            "events": events,
            "status": _STATUS[st.status],
        }

    def uniforms(self, head, replicas, vkeys) -> np.ndarray:
        """(R, N) counter-0 uniforms; mirrors kcmkit._pure.uniforms."""
        head, reps, vk = _pure.uniforms_args(head, replicas, vkeys)
        out = np.empty((reps.size, vk.size))
        self._check(self._lib.kk_uniforms(
            head, reps.size, _addr(reps), vk.size, _addr(vk), _addr(out)))
        return out

    def csr_operator(self, indptr, indices, data):
        """mv(x, out) writing A x into out for a CSR matrix, which it reads
        in place where kcmkit._pure.csr_args borrows it; mirrors
        kcmkit._pure.csr_operator."""
        arrays = _pure.csr_args(indptr, indices, data)
        n = arrays[0].size - 1
        matvec = self._lib.kk_csr_matvec

        def mv(x, out):
            _pure.matvec_args(x, out, n)
            self._check(matvec(n, *map(_addr, (*arrays, x, out))))
            return out

        return mv

    def class_generator(self, t: FamilyTables, q):
        """The class of the all-empty configuration and its canonical CSR
        generator, searched and assembled in one C call; mirrors
        kcmkit._pure.class_generator."""
        if t.sat is None:
            return _pure.class_generator(t, q)
        q = _pure.class_generator_args(t, q)
        n, S, nbr, _, sat, pad_empty = self._table_args(t)
        c = ClassCSR()
        self._check(self._lib.kk_class_generator(
            n, S, nbr, sat, pad_empty, q, ctypes.byref(c)))
        return (self._adopted(c.states, _i64, c.size),
                self._adopted(c.indptr, ctypes.c_int32, c.size + 1),
                self._adopted(c.indices, ctypes.c_int32, c.nnz),
                self._adopted(c.data, _dbl, c.nnz))

    def _adopted(self, address: int, ctype, count: int) -> np.ndarray:
        """The `count` items of `ctype` the library allocated at `address`,
        as an array over that memory, with no copy. The ctypes object under
        the array, kept alive by the array and every view of it, frees the
        memory with kk_free when it is collected."""
        buf = (ctype * count).from_address(address)
        weakref.finalize(buf, self._lib.kk_free, address)
        return np.ctypeslib.as_array(buf)

    def crossing_batch(self, empty_grids, axis: int) -> np.ndarray:
        """Which grids have a nearest-neighbor True path joining the two
        faces orthogonal to `axis`. empty_grids has shape (R, n0, n1)."""
        g, axis = _pure.crossing_args(empty_grids, axis)
        out = np.zeros(g.shape[0], dtype=bool)
        self._check(self._lib.kk_crossing_batch(
            *g.shape, _addr(g), axis, _addr(out)))
        return out


def open_kernels(directory: Path | None = None) -> Kernels:
    """Kernels over the library built in `directory` (default: this
    package); raises LoadError when it is not built, cannot be loaded or
    carries another source stamp."""
    directory = Path(__file__).parent if directory is None else directory
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / f"{LIBRARY}{suffix}"
        if path.is_file():
            return Kernels(path)
    raise LoadError(f"no {LIBRARY} library in {directory}; build it with "
                    f"`python setup.py build_ext --inplace`")
