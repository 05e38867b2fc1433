"""The BLAS and LAPACK routines the package calls, bound from scipy's
compiled f2py modules without importing the `scipy.linalg` package.

`scipy.linalg`'s package init reaches scipy's array-API layer, which clones
numpy's namespace and so imports `numpy.f2py` and `numpy.testing`: most of
the time and memory of a CLI start.  The compiled modules `_fblas` and
`_flapack` need none of that.  They are loaded here from their files, under
their own names, so these are the very routines `scipy.linalg.blas` and
`scipy.linalg.lapack` export, on the same BLAS and LAPACK.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

import numpy as np
import scipy  # the top-level package only: cheap, and it runs scipy's distributor init

__all__ = ["dstevd", "dsymv", "tridiagonal_top"]


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


dsymv = _load("_fblas").dsymv
_flapack = _load("_flapack")
dstevd = _flapack.dstevd


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
