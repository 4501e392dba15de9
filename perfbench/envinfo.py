"""Environment fingerprint recorded with every result."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

import numpy
import scipy

# scipy-openblas exports its thread query with and without the 64-bit
# integer suffix; plain OpenBLAS builds use the unprefixed names.
THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                  "openblas_get_num_threads64_", "openblas_get_num_threads")
CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                  "openblas_get_config64_", "openblas_get_config")


def _first_symbol(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def blas_libraries() -> list[dict]:
    """Each OpenBLAS shipped with numpy or scipy, with the thread count it
    reports. Call after scipy.linalg is imported, so the libraries queried
    are the ones already loaded."""
    out = []
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            config = _first_symbol(lib, CONFIG_SYMBOLS, ctypes.c_char_p)
            out.append({"used_by": pkg.__name__, "library": path.name,
                        "threads": _first_symbol(lib, THREAD_SYMBOLS, ctypes.c_int),
                        "config": config.decode() if config else None})
    return out


def _git(root: Path, *args):
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                          timeout=30, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src" / "dilgp").glob("*.py"))


def fingerprint(root: Path) -> dict:
    blas = blas_libraries()
    status = _git(root, "status", "--porcelain", "--", "src")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": max((b["threads"] or 0 for b in blas), default=0),
        "git_commit": _git(root, "rev-parse", "HEAD"),
        "src_modified": None if status is None else bool(status),
        "src_dilgp_lines": src_lines(root),
    }
