"""LU factorisation and the BLAS thread count, through numpy's own OpenBLAS.

numpy's wheels ship scipy-openblas64: OpenBLAS with 64-bit integers
(ILP64) and every symbol renamed scipy_<name>64_.  numpy.linalg has no
LU factor that can be kept and reused, so the LAPACK routines one needs
(?getrf to factor, ?getrs to solve with the factor) and OpenBLAS's
thread-count pair are bound here with ctypes.  The library is the copy
inside numpy's install, which numpy has already loaded, so binding it
loads no second library.  It is looked up once, on first use.  Where the library
or a routine is missing, LU falls back to numpy.linalg (slogdet and
solve, one factorisation per call) and the thread count is left alone.
"""

import contextlib
import ctypes
import functools
import os

import numpy as np

_INT = ctypes.POINTER(ctypes.c_int64)
_GETRF = (None, (_INT, _INT, ctypes.c_void_p, _INT, ctypes.c_void_p, _INT))
# the trailing size_t is the hidden length of the Fortran character argument
_GETRS = (None, (ctypes.c_char_p, _INT, _INT, ctypes.c_void_p, _INT, ctypes.c_void_p,
                 ctypes.c_void_p, _INT, _INT, ctypes.c_size_t))
_SIGNATURES = {
    "dgetrf_": _GETRF,
    "zgetrf_": _GETRF,
    "dgetrs_": _GETRS,
    "zgetrs_": _GETRS,
    "openblas_get_num_threads": (ctypes.c_int, ()),
    "openblas_set_num_threads": (None, (ctypes.c_int,)),
}


@functools.cache
def _routines():
    """{name: typed function} for each routine of _SIGNATURES that the
    scipy-openblas64 library in numpy's install exports."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(f for f in os.listdir(libdir) if f.startswith("libscipy_openblas64_"))
    except OSError:
        names = []
    lib = None
    for name in names:
        try:
            lib = ctypes.CDLL(os.path.join(libdir, name))
            break
        except OSError:
            continue
    found = {}
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, "scipy_%s64_" % name, None)
        if fn is not None:
            fn.restype, fn.argtypes = restype, argtypes
            found[name] = fn
    return found


def lu_path():
    """Which factorisation LU runs: "openblas-getrf", one LU per system,
    or "numpy-linalg", numpy's slogdet and solve."""
    have = _routines()
    return ("openblas-getrf" if all(n in have for n in ("dgetrf_", "zgetrf_",
                                                          "dgetrs_", "zgetrs_"))
            else "numpy-linalg")


def _int(value):
    return ctypes.byref(ctypes.c_int64(value))


class LU:
    """Pivoted LU of a square matrix A, factored once.

    slogdet() gives (sign, log|det A|) as numpy.linalg.slogdet does,
    solve(B) the X with A X = B, and solve_rows(B) the X with X A = B;
    plain transposes, never conjugate ones.  An exactly singular A has
    sign 0, and solving with it raises LinAlgError, as numpy.linalg.solve
    does.  A writeable C-ordered float64 or complex128 A is factored in
    place, so it holds the factor afterwards; any other A is copied first
    (and the numpy.linalg fallback leaves A as it is).

    A C-ordered array is the Fortran transpose of itself, so ?getrf
    factors F = A^T.  det F = det A; solve_rows is F X^T = B^T (trans N)
    and solve is F^T X = B (trans T), each right-hand side a C row.
    """

    def __init__(self, A):
        if np.ndim(A) != 2 or A.shape[0] != A.shape[1]:
            raise np.linalg.LinAlgError("LU needs a square matrix, got shape %r"
                                        % (np.shape(A),))
        self._path = lu_path()
        if self._path == "numpy-linalg":
            self._a = A
            return
        complex_ = np.iscomplexobj(A)
        self._code = "z" if complex_ else "d"
        self._f = np.require(A, complex if complex_ else float, ["C", "W"])
        k = self._f.shape[0]
        self._piv = np.empty(k, dtype=np.int64)
        info = ctypes.c_int64()
        _routines()[self._code + "getrf_"](_int(k), _int(k), self._f.ctypes.data, _int(k),
                                           self._piv.ctypes.data, ctypes.byref(info))
        if info.value < 0:
            raise ValueError("getrf rejected argument %d" % -info.value)
        self._singular = info.value > 0

    def slogdet(self):
        if self._path == "numpy-linalg":
            return np.linalg.slogdet(self._a)
        u = np.diagonal(self._f)
        if self._singular:
            return u.dtype.type(0), -np.inf
        size = np.abs(u)
        sign = np.prod(u / size)
        swaps = np.count_nonzero(self._piv != np.arange(1, u.size + 1))
        return (-sign if swaps % 2 else sign), np.sum(np.log(size))

    def _getrs(self, B, trans):
        """Solve op(F) Y = B^T for B given as C rows; Y^T as C rows."""
        if np.iscomplexobj(B) and self._code == "d":
            return self._getrs(B.real, trans) + 1j * self._getrs(B.imag, trans)
        if self._singular:
            raise np.linalg.LinAlgError("Singular matrix")
        Y = np.array(B, dtype=self._f.dtype, order="C")
        k = self._f.shape[0]
        if Y.ndim != 2 or Y.shape[1] != k:
            raise ValueError("right-hand sides do not fit a %d x %d system" % (k, k))
        info = ctypes.c_int64()
        _routines()[self._code + "getrs_"](trans, _int(k), _int(Y.shape[0]),
                                           self._f.ctypes.data, _int(k), self._piv.ctypes.data,
                                           Y.ctypes.data, _int(k), ctypes.byref(info), 1)
        if info.value != 0:
            raise ValueError("getrs rejected argument %d" % -info.value)
        return Y

    def solve(self, B):
        """X with A X = B, for B of shape (k, r)."""
        if self._path == "numpy-linalg":
            return np.linalg.solve(self._a, B)
        return self._getrs(B.T, b"T").T

    def solve_rows(self, B):
        """X with X A = B, for B of shape (r, k)."""
        if self._path == "numpy-linalg":
            return np.linalg.solve(self._a.T, B.T).T
        return self._getrs(B, b"N")


def cores():
    """CPUs this process may run on (what nproc reports)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS at one thread and restore the old count
    after.  Yields the count in effect: 1, or None where the count cannot
    be read or set, in which case nothing was changed."""
    have = _routines()
    if not all(n in have for n in ("openblas_get_num_threads", "openblas_set_num_threads")):
        yield None
        return
    old = have["openblas_get_num_threads"]()
    have["openblas_set_num_threads"](1)
    try:
        yield 1
    finally:
        have["openblas_set_num_threads"](old)
