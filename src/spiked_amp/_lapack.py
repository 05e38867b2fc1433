"""The BLAS and LAPACK routines the package needs and numpy's API lacks,
bound through ctypes from the OpenBLAS that numpy itself links: dsymv with
a leading dimension, and dstevx for one eigenpair of a tridiagonal matrix.

numpy's wheels link scipy-openblas64, an ILP64 OpenBLAS whose symbols carry
a `scipy_` prefix and a `64_` suffix.  numpy's core extension has loaded it
by the time numpy is imported, so the symbols are looked up through that
extension's handle, no library path is searched, and the process holds one
BLAS.  The routines follow the Fortran calling convention: every argument
by reference, 64-bit integers, and one hidden length per character argument
after the others.

dsymv takes the leading dimension from its caller, so M stored with padded
rows, as model.sample_wigner stores it, is read in place on every call.

A numpy whose BLAS exports none of these symbols (one built on another BLAS,
or on Accelerate) is refused at import with an ImportError that names the
missing symbol and numpy's BLAS.
"""

from __future__ import annotations

import ctypes

import numpy as np

__all__ = ["symv", "tridiagonal_top"]

_int = ctypes.c_int64
_int_p, _double_p = ctypes.POINTER(_int), ctypes.POINTER(ctypes.c_double)
_char, _ptr, _len = ctypes.c_char_p, ctypes.c_void_p, ctypes.c_size_t
_numpy_core = ctypes.CDLL(np._core._multiarray_umath.__file__)


def _bind(routine: str, *argtypes):
    """numpy's BLAS routine `routine` as a ctypes function of `argtypes`."""
    symbol = f"scipy_{routine}_64_"
    try:
        return ctypes.CFUNCTYPE(None, *argtypes)((symbol, _numpy_core))
    except AttributeError:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        raise ImportError(f"numpy's BLAS ({blas.get('name')} {blas.get('version')}) does "
                          f"not export {symbol}; spiked_amp needs a numpy>=2.0 wheel "
                          "built on scipy-openblas64") from None


# dsymv(uplo, n, alpha, a, lda, x, incx, beta, y, incy)
_dsymv = _bind("dsymv", _char, _int_p, _double_p, _ptr, _int_p, _ptr, _int_p, _double_p,
               _ptr, _int_p, _len)
# dstevx(jobz, range, n, d, e, vl, vu, il, iu, abstol, m, w, z, ldz, work, iwork,
#        ifail, info)
_dstevx = _bind("dstevx", _char, _char, _int_p, _ptr, _ptr, _double_p, _double_p, _int_p,
                _int_p, _double_p, _int_p, _ptr, _ptr, _int_p, _ptr, _ptr, _ptr, _int_p,
                _len, _len)
_ONE, _ZERO, _STEP = ctypes.c_double(1.0), ctypes.c_double(0.0), _int(1)


def _at(a: np.ndarray) -> int:
    return a.ctypes.data


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
    _dsymv(b"L", _int(n), _ONE, _at(M), _int(max(lda, 1)), _at(x), _STEP, _ZERO, _at(out),
           _STEP, 1)
    return out


def tridiagonal_top(d, e) -> tuple[float, np.ndarray]:
    """The largest eigenvalue of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, and its unit eigenvector.

    One LAPACK dstevx call for the m-th of m eigenpairs, m = len(d).  For
    m >= 2 it makes the LAPACK calls of `scipy.linalg.eigh_tridiagonal(d, e,
    select="i", select_range=(m - 1, m - 1))`: bisection for the value and
    inverse iteration for the vector; for m = 1 it returns (d[0], [1]).  It
    rescales a matrix whose largest entry in magnitude lies outside about
    [1.5e-146, 8e76], which can move the result's last bits; amp's
    spectral_init divides its tridiagonal by ||M v||, so its entries are
    O(1).  An empty matrix, mismatched lengths or a non-finite entry raise
    ValueError, and a nonzero LAPACK info raises numpy.linalg.LinAlgError
    (a ValueError).
    """
    # copies: dstevx rescales d and e in place
    d = np.array(d, dtype=np.float64)
    e = np.array(e, dtype=np.float64)
    if d.ndim != 1 or e.shape != (max(d.size - 1, 0),):
        raise ValueError(f"a tridiagonal matrix needs d of length m and e of length m - 1, "
                         f"got shapes {d.shape} and {e.shape}")
    if d.size == 0:
        raise ValueError("the tridiagonal matrix is empty (m = 0): it has no eigenpair")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("tridiagonal matrix has a non-finite entry")
    m = d.shape[0]
    n, top, found, info = _int(m), _int(m), _int(), _int()
    w, z = np.empty(m), np.empty(m)
    work, iwork, ifail = np.empty(5 * m), np.empty(5 * m, np.int64), np.empty(m, np.int64)
    _dstevx(b"V", b"I", n, _at(d), _at(e), _ZERO, _ZERO, top, top, _ZERO, found, _at(w),
            _at(z), n, _at(work), _at(iwork), _at(ifail), info, 1, 1)
    if info.value != 0:
        raise np.linalg.LinAlgError(f"LAPACK dstevx failed (info={info.value})")
    return float(w[0]), z
