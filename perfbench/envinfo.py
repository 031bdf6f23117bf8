"""The machine and library record written into every result file."""

import ctypes
import glob
import os
import platform

import numpy as np

from hydrosac import _kernels


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be read."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)  # already loaded by numpy: same handle
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    return None


def environment():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_effective": blas_threads(),
        "kernels_backend": _kernels.backend(),
        "numba_imported": _kernels.HAS_NUMBA,
    }
