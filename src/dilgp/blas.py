"""One BLAS thread for the dense linear algebra of a call.

At dilgp's problem sizes OpenBLAS threads cost more than they save, and how
a solve is split over threads decides the last digits of its result. The
pin is process-wide, so pinned calls must not run from several Python
threads at once. With no OpenBLAS found it does nothing.
"""

import ctypes
from collections import namedtuple
from contextlib import contextmanager
from pathlib import Path

import numpy
import scipy
import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS before it is looked up)

# Thread setter and getter of the scipy-openblas builds of numpy and of scipy.
_SYMBOLS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
            ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"))

OpenBLAS = namedtuple("OpenBLAS", "name set get")


def _find() -> list[OpenBLAS]:
    """Each OpenBLAS shipped with numpy or scipy that exports both functions."""
    found = []
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parents[1] / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for set_name, get_name in _SYMBOLS:
                if hasattr(lib, set_name) and hasattr(lib, get_name):
                    setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    found.append(OpenBLAS(path.name, setter, getter))
                    break
    return found


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
