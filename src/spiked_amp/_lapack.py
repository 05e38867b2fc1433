"""The BLAS and LAPACK routines the package calls, bound from scipy's
compiled modules without importing the `scipy.linalg` package.

`scipy.linalg`'s package init reaches scipy's array-API layer, which clones
numpy's namespace and so imports `numpy.f2py` and `numpy.testing`: most of
the time and memory of a CLI start.  The compiled modules need none of
that.  They are loaded here from their files, under their own names, so
these are the very routines `scipy.linalg.lapack` and
`scipy.linalg.cython_blas` export, on the same BLAS and LAPACK.

dsymv is taken from `cython_blas`'s C API, not from the f2py module
`_fblas`: f2py's dsymv refuses a leading dimension larger than n and would
copy a matrix stored with padded rows, as model.sample_wigner stores M, on
every call.  The C routine takes the leading dimension from M's strides.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os

import numpy as np
import scipy  # the top-level package only: cheap, and it runs scipy's distributor init

__all__ = ["dstevd", "symv", "tridiagonal_top"]


def _load(name: str):
    folder = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, name + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(f"scipy.linalg.{name}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy's compiled module {name} is missing from {folder}")


def _capi(module, name: str) -> int:
    """The address of the C function `name` that a Cython module exports."""
    capsule = module.__pyx_capi__[name]
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    return get_pointer(capsule, get_name(capsule))


_int_p, _double_p = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
# dsymv(uplo, n, alpha, a, lda, x, incx, beta, y, incy), Fortran calling convention
_dsymv = ctypes.CFUNCTYPE(None, ctypes.c_char_p, _int_p, _double_p, ctypes.c_void_p, _int_p,
                          ctypes.c_void_p, _int_p, _double_p, ctypes.c_void_p, _int_p)(
    _capi(_load("cython_blas"), "dsymv"))
_flapack = _load("_flapack")
dstevd = _flapack.dstevd


def symv(M: np.ndarray, y: np.ndarray) -> np.ndarray:
    """M y for a symmetric n x n M by BLAS dsymv, reading only M[i, j] with i <= j.

    M is passed in place when its rows are contiguous and lie at least n
    entries apart: a C-order array, or rows padded to a longer stride, as
    model.sample_wigner stores M.  dsymv reads it as the column-major M^T,
    with the row stride as its leading dimension, so M's upper triangle is
    the lower triangle (uplo "L") it is told to read.  Any other M, an
    F-order one included, is first copied to C order.
    """
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"M must be a square 2-D matrix, got shape {M.shape}")
    n = M.shape[0]
    x = np.ascontiguousarray(y, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"y has shape {np.shape(y)}, M has shape {M.shape}")
    rows, cols = M.strides
    usable = M.dtype == np.float64 and M.flags.aligned
    if usable and cols == 8 and rows % 8 == 0 and rows >= 8 * n:
        lda = rows // 8
    else:
        M = np.ascontiguousarray(M, dtype=np.float64)
        lda = n
    out = np.zeros(n)
    one, zero, step = ctypes.c_double(1.0), ctypes.c_double(0.0), ctypes.c_int(1)
    _dsymv(b"L", ctypes.c_int(n), one, M.ctypes.data, ctypes.c_int(max(lda, 1)),
           x.ctypes.data, step, zero, out.ctypes.data, step)
    return out


def tridiagonal_top(d, e) -> tuple[float, np.ndarray]:
    """The largest eigenvalue of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, and its unit eigenvector.

    The same LAPACK calls as `scipy.linalg.eigh_tridiagonal(d, e,
    select="i", select_range=(m - 1, m - 1))`, m = len(d): dstebz for the
    value, dstein for the vector.  A non-finite entry raises ValueError and
    a nonzero LAPACK info raises numpy.linalg.LinAlgError (a ValueError).
    """
    d = np.asarray(d, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("tridiagonal matrix has a non-finite entry")
    m = d.shape[0]
    if m == 1:
        return float(d[0]), np.ones(1)
    k, w, iblock, isplit, info = _flapack.dstebz(d, e, 2, 0.0, 1.0, m, m, 0.0, "B")
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dstebz failed (info={info})")
    z, info = _flapack.dstein(d, e, w[:k], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dstein failed (info={info})")
    return float(w[0]), z[:, 0]
