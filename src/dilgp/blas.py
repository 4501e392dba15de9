"""The OpenBLAS that scipy ships: one thread for a call, and four LAPACK
routines called from it directly.

At dilgp's problem sizes OpenBLAS threads cost more than they save, and how
a solve is split over threads decides the last digits of its result. The
pin is process-wide, so pinned calls must not run from several Python
threads at once. With no OpenBLAS found it does nothing.

potrf, potrs, potri and trtrs are LAPACK's dpotrf, dpotrs, dpotri and
dtrtrs from scipy's bundled OpenBLAS, the library and routines that
scipy.linalg's cholesky, cho_solve, lapack.dpotri and solve_triangular call,
so they give the same bits without importing scipy.linalg. They take f2py's
arguments and return (array, info) as scipy.linalg.lapack's do: the result
is written in place when overwrite_* is set and the input is a
Fortran-ordered float64 array, and into a Fortran-ordered copy otherwise;
potrf zeroes the other triangle, as f2py's clean=1 does. Where that library
is not found, the four names are scipy.linalg.lapack's.
"""

import ctypes
from collections import namedtuple
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy

# Thread setter and getter of the scipy-openblas builds of numpy and of scipy.
_SYMBOLS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
            ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"))

OpenBLAS = namedtuple("OpenBLAS", "name set get")


def _find() -> tuple[list[OpenBLAS], ctypes.CDLL | None]:
    """Each OpenBLAS shipped with numpy or scipy that exports both functions,
    and scipy's, whose LAPACK scipy.linalg calls (None when not found)."""
    found, scipy_lib = [], None
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parents[1] / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for set_name, get_name in _SYMBOLS:
                if hasattr(lib, set_name) and hasattr(lib, get_name):
                    setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    found.append(OpenBLAS(path.name, setter, getter))
                    if pkg is scipy:
                        scipy_lib = lib
                    break
    return found, scipy_lib


LIBRARIES, _SCIPY_LIB = _find()


@contextmanager
def one_thread():
    """Every library in LIBRARIES at one thread inside the block or the
    decorated call, and back at its own count after it; nesting is safe."""
    libs = list(LIBRARIES)
    before = [lib.get() for lib in libs]
    for lib in libs:
        lib.set(1)
    try:
        yield
    finally:
        for lib, n in zip(libs, before):
            lib.set(n)


def _written(a, overwrite) -> np.ndarray:
    """An array for a routine to write: a itself when overwrite is set and a
    is a writeable Fortran-ordered float64 array, else such a copy."""
    a = np.array(a, dtype=np.float64, order="F", copy=None if overwrite else True)
    return a if a.flags.writeable else a.copy(order="F")


def _square(a: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _rhs(b, n: int, overwrite) -> tuple[np.ndarray, ctypes.c_int]:
    """The right-hand side as the routine writes it, and its column count."""
    b = _written(b, overwrite)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"right-hand side of shape {b.shape} does not fit order {n}")
    return b, ctypes.c_int(1 if b.ndim == 1 else b.shape[1])


@lru_cache(maxsize=4)
def _above_diagonal(n: int) -> np.ndarray:
    """Read-only Fortran-ordered n x n mask of the strict upper triangle, kept
    for the few orders in use: a fit factorizes many times at one n."""
    r = np.arange(n)
    mask = np.greater.outer(r, r).T
    mask.flags.writeable = False
    return mask


def _lapack(lib):
    """f2py-shaped potrf, potrs, potri and trtrs on the LP64 LAPACK of lib.
    Each integer goes by reference, and each character argument has a
    hidden length after the last argument."""
    INT, PTR, LEN = ctypes.POINTER(ctypes.c_int), ctypes.c_void_p, ctypes.c_size_t
    # name: (character arguments, the arguments after them)
    signatures = {"dpotrf": (1, (INT, PTR, INT, INT)),
                  "dpotrs": (1, (INT, INT, PTR, INT, PTR, INT, INT)),
                  "dpotri": (1, (INT, PTR, INT, INT)),
                  "dtrtrs": (3, (INT, INT, PTR, INT, PTR, INT, INT))}
    fns = []
    for name, (k, args) in signatures.items():
        fn = getattr(lib, f"scipy_{name}_")
        fn.argtypes, fn.restype = [ctypes.c_char_p] * k + list(args) + [LEN] * k, None
        fns.append(fn)
    dpotrf, dpotrs, dpotri, dtrtrs = fns

    def order(n):
        """N and the leading dimension of an n x n array."""
        return ctypes.c_int(n), ctypes.c_int(max(n, 1))

    def potrf(a, lower=0, overwrite_a=0):
        c = _square(_written(a, overwrite_a))
        (n, ld), info = order(c.shape[0]), ctypes.c_int()
        dpotrf(b"L" if lower else b"U", n, c.ctypes.data, ld, info, 1)
        mask = _above_diagonal(c.shape[0])
        np.copyto(c, 0.0, where=mask if lower else mask.T)
        return c, info.value

    def potrs(c, b, lower=0, overwrite_b=0):
        c = _square(np.asfortranarray(c, dtype=np.float64))
        (n, ld), info = order(c.shape[0]), ctypes.c_int()
        x, nrhs = _rhs(b, c.shape[0], overwrite_b)
        dpotrs(b"L" if lower else b"U", n, nrhs, c.ctypes.data, ld, x.ctypes.data, ld, info, 1)
        return x, info.value

    def potri(c, lower=0, overwrite_c=0):
        c = _square(_written(c, overwrite_c))
        (n, ld), info = order(c.shape[0]), ctypes.c_int()
        dpotri(b"L" if lower else b"U", n, c.ctypes.data, ld, info, 1)
        return c, info.value

    def trtrs(a, b, lower=0, overwrite_b=0):
        a = _square(np.asfortranarray(a, dtype=np.float64))
        (n, ld), info = order(a.shape[0]), ctypes.c_int()
        x, nrhs = _rhs(b, a.shape[0], overwrite_b)
        dtrtrs(b"L" if lower else b"U", b"N", b"N", n, nrhs, a.ctypes.data, ld,
               x.ctypes.data, ld, info, 1, 1, 1)
        return x, info.value

    return potrf, potrs, potri, trtrs


if _SCIPY_LIB is not None and hasattr(_SCIPY_LIB, "scipy_dpotrf_"):
    potrf, potrs, potri, trtrs = _lapack(_SCIPY_LIB)
else:
    from scipy.linalg.lapack import dpotrf as potrf, dpotri as potri, dpotrs as potrs, \
        dtrtrs as trtrs
