"""The OpenBLAS that numpy and scipy ship, at one thread for a call, with
the build string that names the kernels each picked, and the four LAPACK
routines that a fit calls.

At dilgp's problem sizes OpenBLAS threads cost more than they save, and how
a solve is split over threads decides the last digits of its result. The
pin sets a process-wide count and restores the count it found, so only one
Python thread at a time may enter or leave it. A BLAS call that another
thread makes while the pin is held, such as training's helper forming
A^-1 C, also runs at one thread. With no OpenBLAS found it does nothing.

potrf, potrs, potri and trtrs are scipy.linalg.lapack's own dpotrf, dpotrs,
dpotri and dtrtrs, the routines behind scipy.linalg's cholesky, cho_solve
and solve_triangular. They come from scipy's compiled wrapper module
scipy.linalg._flapack, loaded from its file without running scipy.linalg's
__init__, so no fit imports scipy.linalg and every scipy build gives the
bits that scipy.linalg gives. The module is registered under its own name:
a later import of scipy.linalg reuses it, and one already imported is used.
"""

import ctypes
import importlib.machinery
import importlib.util
import sys
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

# config is the library's build string, which names the kernels a DYNAMIC_ARCH
# build picked on this CPU (None when the library does not export it).
OpenBLAS = namedtuple("OpenBLAS", "name set get config")


def _find() -> list[OpenBLAS]:
    """Each OpenBLAS shipped with numpy or scipy that exports both thread
    functions."""
    found = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parents[1] / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for set_name, get_name, config_name in _SYMBOLS:
                if hasattr(lib, set_name) and hasattr(lib, get_name):
                    setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    found.append(OpenBLAS(path.name, setter, getter, _config(lib, config_name)))
                    break
    return found


def _config(lib: ctypes.CDLL, name: str) -> str | None:
    """The build string that lib's function name returns, if lib exports it."""
    if not hasattr(lib, name):
        return None
    get_config = getattr(lib, name)
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    return get_config().decode()


LIBRARIES = _find()


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


_lapack = _flapack()
potrf, potrs, potri, trtrs = _lapack.dpotrf, _lapack.dpotrs, _lapack.dpotri, _lapack.dtrtrs
