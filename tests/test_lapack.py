"""The BLAS/LAPACK bindings to numpy's OpenBLAS (dsymv, dstebz/dstein)
against scipy.linalg's own wrappers, bit for bit, and the Gauss-Hermite rule
numpy's eigh computes against the one scipy's dstevd gives."""

import ctypes
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import blas, eigh_tridiagonal, lapack

from spiked_amp import _lapack, model, se


def test_dsymv_is_scipys_bit_for_bit():
    rng = np.random.default_rng(11)
    M = np.triu(rng.standard_normal((60, 60)))
    y = rng.standard_normal(60)
    # a C-order upper triangle is the F-order lower triangle of its transpose
    want = blas.dsymv(1.0, M.T, y, lower=1)
    assert np.array_equal(_lapack.symv(M, y), want)
    # an F-order matrix, or one with no unit stride, is copied to C order
    assert np.array_equal(_lapack.symv(np.asfortranarray(M), y), want)
    wide = np.zeros((60, 120))
    wide[:, ::2] = M
    assert np.array_equal(_lapack.symv(wide[:, ::2], y), want)


def _padded(U, order):
    """U in rows (order "C") or columns (order "F") _row_stride(n) entries apart."""
    P = model._mapped_triangle(U.shape[0])
    if order == "F":
        P = P.T
    P[...] = U
    return P


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1, 2, 7, 511, 512, 513, 1000])
def test_symv_on_padded_rows_is_scipys_bit_for_bit(n, order):
    # the leading dimension dsymv reads from the strides changes no bit; an
    # F-order P is copied to C order, so it gives the C-order product
    rng = np.random.default_rng(n)
    U = np.triu(rng.standard_normal((n, n)))
    y = rng.standard_normal(n)
    P = _padded(U, order)
    assert max(P.strides) // 8 == model._row_stride(n) >= n
    want = blas.dsymv(1.0, np.ascontiguousarray(U).T, y, lower=1)
    assert np.array_equal(_lapack.symv(P, y), want)


def test_symv_never_copies_M():
    # beyond its n-entry result, symv allocates less than one row of M
    n = 1000
    P = _padded(np.triu(np.random.default_rng(3).standard_normal((n, n))), "C")
    y = np.ones(n)
    _lapack.symv(P, y)  # first-call allocations
    tracemalloc.start()
    try:
        out = _lapack.symv(P, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 8 * n


@pytest.mark.parametrize("M, y", [(np.eye(3), np.ones(2)), (np.ones((3, 2)), np.ones(3)),
                                  (np.ones(3), np.ones(3))])
def test_symv_refuses_mismatched_shapes(M, y):
    with pytest.raises(ValueError, match="shape"):
        _lapack.symv(M, y)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 80, 150])
def test_tridiagonal_top_is_eigh_tridiagonal_bit_for_bit(m):
    rng = np.random.default_rng(m)
    d = rng.standard_normal(m).tolist()
    e = rng.standard_normal(m - 1).tolist()
    theta, s = _lapack.tridiagonal_top(d, e)
    w, v = eigh_tridiagonal(d, e, select="i", select_range=(m - 1, m - 1))
    assert theta == w[0]
    assert np.array_equal(s, v[:, 0])


@pytest.mark.parametrize("where", ["d", "e"])
def test_tridiagonal_top_refuses_a_nonfinite_entry(where):
    d, e = [1.0, 2.0, 3.0], [0.5, 0.5]
    (d if where == "d" else e)[1] = np.nan
    with pytest.raises(ValueError, match="non-finite entry"):
        _lapack.tridiagonal_top(d, e)


@pytest.mark.parametrize("d, e", [([1.0, 2.0, 3.0], [0.5]), ([1.0, 2.0], [0.5, 0.5]),
                                  ([[1.0, 2.0]], [0.5])])
def test_tridiagonal_top_refuses_mismatched_lengths(d, e):
    # LAPACK reads m - 1 off-diagonal entries whatever e holds
    with pytest.raises(ValueError, match="shapes"):
        _lapack.tridiagonal_top(d, e)


@pytest.mark.parametrize("order", [5, 80, 201, 400, 402, 1000])
def test_gauss_hermite_is_scipys_dstevd_bit_for_bit(order):
    # the Golub-Welsch rule from the Jacobi matrix's tridiagonal solver,
    # made symmetric and normalised as se.gauss_hermite does
    x, z, info = lapack.dstevd(np.zeros(order), np.sqrt(np.arange(1.0, order)))
    assert info == 0
    w = z[0] ** 2
    weights = w + w[::-1]
    weights /= weights.sum()
    q = se.gauss_hermite(order)
    assert np.array_equal(q.nodes, (x - x[::-1]) / 2.0)
    assert np.array_equal(q.weights, weights)


@pytest.mark.parametrize("info", [-2, 3])
@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_tridiagonal_top_names_a_lapack_failure(monkeypatch, routine, info):
    real = getattr(_lapack, f"_{routine}")

    def failing(*args):
        real(*args)
        # INFO is the last integer argument, before any hidden string lengths
        next(a for a in reversed(args) if isinstance(a, ctypes.c_int64)).value = info

    monkeypatch.setattr(_lapack, f"_{routine}", failing)
    with pytest.raises(np.linalg.LinAlgError, match=rf"{routine} failed \(info={info}\)"):
        _lapack.tridiagonal_top([1.0, 2.0, 3.0], [0.5, 0.5])


def test_missing_symbol_is_named():
    # a numpy whose BLAS lacks a routine is refused at import, by name
    with pytest.raises(ImportError, match=r"does not export scipy_dnosuch_64_") as err:
        _lapack._bind("dnosuch")
    blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert str(blas_info["name"]) in str(err.value)
