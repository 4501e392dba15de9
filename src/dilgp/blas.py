"""The OpenBLAS that numpy ships, at one thread for a call, with the build
string that names the kernels it picked, and the four LAPACK routines that
a fit calls.

At dilgp's problem sizes OpenBLAS threads cost more than they save, and how
a solve is split over threads decides the last digits of its result. The
pin sets a process-wide count and restores the count it found, so only one
Python thread at a time may enter or leave it. A BLAS call that another
thread makes while the pin is held, such as training's helper forming
A^-1 C, also runs at one thread. With no OpenBLAS found it does nothing.

potrf, potrs, potri and trtrs are LAPACK of the OpenBLAS that numpy ships
(libscipy_openblas64_, 64-bit integers), called through ctypes with the
call forms and results of scipy.linalg.lapack's dpotrf, dpotrs, dpotri and
dtrtrs: potrf(a, lower, overwrite_a) -> (c, info) with the factor's other
triangle zeroed, potrs(c, b, lower) -> (x, info), potri(c, lower,
overwrite_c) -> (inv, info) and trtrs(a, b, lower, overwrite_b) -> (x,
info). The first three are those routines; trtrs checks the diagonal as
dtrtrs does and solves with dtrsm, in a C-ordered x. So every product,
factor and solve comes from one library, whose build decides their bits,
and no fit loads scipy's OpenBLAS. Each thread passes integer arguments of
its own, so threads may call the routines at once. Where numpy's library
lacks these symbols, they are scipy.linalg.lapack's own wrappers instead,
from scipy's compiled module scipy.linalg._flapack loaded without running
scipy.linalg's __init__, and the pin covers scipy's OpenBLAS too.
"""

import ctypes
import importlib.machinery
import importlib.util
import sys
import threading
from collections import namedtuple
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy

# Thread setter and getter, and build-config getter, of the scipy-openblas
# builds of numpy and of scipy.
_SYMBOLS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_",
             "scipy_openblas_get_config64_"),
            ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads",
             "scipy_openblas_get_config"))

# The LAPACK routines bound from numpy's OpenBLAS, under the names its
# 64-bit-integer scipy-openblas build exports them.
_LAPACK = tuple(f"scipy_{name}_64_" for name in ("dpotrf", "dpotrs", "dpotri", "dtrsm",
                                                  "dlaset"))

# config is the library's build string, which names the kernels a DYNAMIC_ARCH
# build picked on this CPU (None when the library does not export it).
OpenBLAS = namedtuple("OpenBLAS", "name set get config")


def _find(*pkgs) -> list[tuple[ctypes.CDLL, OpenBLAS]]:
    """Each OpenBLAS shipped with the packages pkgs that exports both thread
    functions, as the loaded library and its OpenBLAS record."""
    found = []
    for pkg in pkgs:
        libdir = Path(pkg.__file__).resolve().parents[1] / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for set_name, get_name, config_name in _SYMBOLS:
                if hasattr(lib, set_name) and hasattr(lib, get_name):
                    setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    found.append((lib, OpenBLAS(path.name, setter, getter,
                                                _config(lib, config_name))))
                    break
    return found


def _config(lib: ctypes.CDLL, name: str) -> str | None:
    """The build string that lib's function name returns, if lib exports it."""
    if not hasattr(lib, name):
        return None
    get_config = getattr(lib, name)
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    return get_config().decode()


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


def _flapack():
    """scipy.linalg._flapack: the module already imported, or loaded from its
    file in scipy's linalg directory and registered in sys.modules."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    libdir = Path(scipy.__file__).parent / "linalg"
    paths = [libdir / f"_flapack{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"no scipy LAPACK wrappers: none of {', '.join(map(str, paths))}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# The calls pass only ctypes objects, which ctypes converts by their own type
# without argtypes: argtypes made a five-argument call 0.4 to 0.9 us dearer,
# where f2py's whole dpotrf at n = 1 takes about 0.6 us (Python 3.11,
# x86-64). The integers are one-element int64 arrays, which ctypes passes by
# reference, one set per thread, as the calls release the interpreter lock.
# An array is passed by its data pointer, read from its ndarray struct, where
# it is the first field after the object header (a.ctypes.data builds an
# object per call and costs about 1 us); _bind checks that place once. That
# pointer is a view of the field, so the array must stay referenced for the
# call.
class _Args(threading.local):
    def __init__(self):
        # n, the second order or nrhs, info, and a pointer
        self.held = (*((ctypes.c_int64 * 1)() for _ in range(3)), ctypes.c_void_p())


_args = _Args()
_ZERO, _ONE = ((ctypes.c_double * 1)(v) for v in (0.0, 1.0))
_UPLO = (b"U", b"L")
_F64 = np.dtype(np.float64)
_address = ctypes.c_void_p.from_address
_DATA = object.__basicsize__


def _own(a, overwrite, order="F") -> np.ndarray:
    """a itself where it may be overwritten and is a writeable float64 array
    contiguous in order ("F" or "C"), else a float64 copy of it in that
    order, as f2py gives."""
    flags = a.flags
    if (overwrite and a.dtype is _F64 and flags.writeable
            and (flags.f_contiguous if order == "F" else flags.c_contiguous)):
        return a
    return np.array(a, dtype=_F64, order=order)


def _order(a: np.ndarray, b: np.ndarray) -> int:
    """n, the length of b's first axis, where a is n x n; ValueError
    otherwise, as LAPACK would read or write past the end of an array."""
    n = b.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"expected a {n} x {n} matrix, got shape {a.shape}")
    return n


def _bind(lib):
    """potrf, potrs, potri and trtrs of the library lib, or None where lib
    lacks a symbol of _LAPACK or an ndarray's data pointer is not where
    _address reads it."""
    probe = np.zeros(1)
    if (not all(hasattr(lib, symbol) for symbol in _LAPACK)
            or _address(id(probe) + _DATA).value != probe.ctypes.data):
        return None
    dpotrf, dpotrs, dpotri, dtrsm, dlaset = (getattr(lib, s) for s in _LAPACK)
    for fn in (dpotrf, dpotrs, dpotri, dtrsm, dlaset):
        fn.restype = None

    def potrf(a, lower=0, overwrite_a=0):
        c = _own(a, overwrite_a)
        n = _order(c, c)
        N, M, info, at = _args.held
        N[0], at.value = n, _address(id(c) + _DATA).value
        dpotrf(_UPLO[lower], N, at, N, info)
        if n > 1:
            # f2py's clean: zero the strict other triangle, which is the
            # (n-1)-square block from the second column (lower) or row
            # (upper) with its diagonal
            M[0], at.value = n - 1, at.value + (8 * n if lower else 8)
            dlaset(_UPLO[not lower], M, M, _ZERO, _ZERO, at, N)
        return c, info[0]

    def potrs(c, b, lower=0):
        c, x = np.asarray(c, dtype=_F64, order="F"), np.array(b, dtype=_F64, order="F")
        N, NRHS, info, _ = _args.held
        N[0], NRHS[0] = _order(c, x), 1 if x.ndim == 1 else x.shape[1]
        dpotrs(_UPLO[lower], N, NRHS, _address(id(c) + _DATA), N,
               _address(id(x) + _DATA), N, info)
        return x, info[0]

    def potri(c, lower=0, overwrite_c=0):
        inv = _own(c, overwrite_c)
        N, _, info, _ = _args.held
        N[0] = _order(inv, inv)
        dpotri(_UPLO[lower], N, _address(id(inv) + _DATA), N, info)
        return inv, info[0]

    def trtrs(a, b, lower=0, overwrite_b=0):
        # dtrtrs's zero-diagonal check, then the solve as dtrsm from the
        # right: x, C-ordered, is the column-major nrhs x n matrix x^T, and
        # a x = b is x^T a^T = b^T. numpy's build solves BO's 1,088-column
        # predictions about twice as fast that way as with its dtrtrs.
        a, x = np.asarray(a, dtype=_F64, order="F"), _own(b, overwrite_b, "C")
        n, nrhs = _order(a, x), 1 if x.ndim == 1 else x.shape[1]
        zero = np.flatnonzero(a.diagonal() == 0.0)
        if zero.size:
            return x, int(zero[0]) + 1
        if x.size:
            N, NRHS, _, _ = _args.held
            N[0], NRHS[0] = n, nrhs
            dtrsm(b"R", _UPLO[lower], b"T", b"N", NRHS, N, _ONE, _address(id(a) + _DATA), N,
                  _address(id(x) + _DATA), NRHS)
        return x, 0

    return potrf, potrs, potri, trtrs


def _load():
    """LIBRARIES and the four routines: numpy's OpenBLAS and its own LAPACK,
    or, where numpy ships no OpenBLAS with that LAPACK, scipy's OpenBLAS as
    well and _flapack's routines."""
    found = _find(np)
    for lib, _ in found:
        routines = _bind(lib)
        if routines:
            return [blas for _, blas in found], routines
    lapack = _flapack()
    return ([blas for _, blas in found + _find(scipy)],
            (lapack.dpotrf, lapack.dpotrs, lapack.dpotri, lapack.dtrtrs))


LIBRARIES, (potrf, potrs, potri, trtrs) = _load()
