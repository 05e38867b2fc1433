"""The BLAS/LAPACK bindings against scipy.linalg's own wrappers, bit for bit."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import blas, eigh_tridiagonal

from spiked_amp import _lapack


def test_dsymv_is_scipys_bit_for_bit():
    rng = np.random.default_rng(11)
    M = np.triu(rng.standard_normal((60, 60)))
    y = rng.standard_normal(60)
    F = np.asfortranarray(M)
    assert np.array_equal(_lapack.dsymv(1.0, F, y), blas.dsymv(1.0, F, y))
    # a C-order upper triangle is the F-order lower triangle of its transpose
    assert np.array_equal(_lapack.dsymv(1.0, M.T, y, lower=1), blas.dsymv(1.0, M.T, y, lower=1))


@pytest.mark.parametrize("m", [1, 2, 7, 80])
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


@pytest.mark.parametrize("info", [-2, 3])
@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_tridiagonal_top_names_a_lapack_failure(monkeypatch, routine, info):
    real = _lapack._flapack
    fake = SimpleNamespace(dstebz=real.dstebz, dstein=real.dstein)
    setattr(fake, routine, lambda *args: (*getattr(real, routine)(*args)[:-1], info))
    monkeypatch.setattr(_lapack, "_flapack", fake)
    with pytest.raises(np.linalg.LinAlgError, match=rf"{routine} failed \(info={info}\)"):
        _lapack.tridiagonal_top([1.0, 2.0, 3.0], [0.5, 0.5])


def test_missing_compiled_module_is_named():
    with pytest.raises(ImportError, match="_nosuchmodule"):
        _lapack._load("_nosuchmodule")
