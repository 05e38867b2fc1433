"""Denoiser families: fits, evaluation, Onsager averages, kink rules."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spiked_amp import denoise


def _fd_onsager(state, x, h=1e-6):
    """Centered finite-difference oracle for the Onsager average."""
    up = state.eta(x + h)
    dn = state.eta(x - h)
    return float(np.mean((up - dn) / (2.0 * h)))


def test_tanh_fit_pi_formula():
    x = np.array([1.2, -0.4, 0.9, 0.3])
    state = denoise.fit_tanh(x)
    want_pi = np.sqrt(4 * (float(x @ x) - 1.0))
    assert abs(state.pi - want_pi) < 1e-14
    assert abs(np.linalg.norm(state.eta(x)) - 1.0) < 1e-12


def test_tanh_fit_clamps_subunit_norm():
    x = np.full(4, 0.1)  # ||x||^2 = 0.04 < 1 triggers the clamp
    state = denoise.fit_tanh(x)
    assert state.pi == pytest.approx(np.sqrt(4 * 1e-12))


def test_tanh_fit_zero_vector_degenerate():
    with pytest.raises(denoise.DegenerateIterateError):
        denoise.fit_tanh(np.zeros(5))


def test_fits_normalize_tiny_iterates():
    # the squares of these entries underflow; the fitted map must still
    # normalize instead of calling the iterate degenerate
    x = np.full(4, 1e-200)
    for state in (denoise.fit_tanh(x), denoise.fit_soft_threshold(x, 0.0)):
        assert abs(np.linalg.norm(state.eta(x)) - 1.0) < 1e-12


def test_fits_reject_unnormalizable_iterate():
    # 1/||x|| is beyond the float range: a named failure, not gamma = inf
    x = np.full(2, 5e-324)
    with pytest.raises(denoise.DegenerateIterateError, match="too small"):
        denoise.fit_soft_threshold(x, 0.0)


def test_tanh_derivative_matches_finite_difference():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(200) * 1.3
    state = denoise.fit_tanh(x)
    assert abs(state.onsager(x) - _fd_onsager(state, x)) < 1e-6


def test_soft_threshold_piecewise_values():
    x = np.array([-2.0, -0.5, -0.5 + 1e-12, 0.0, 0.5, 0.5 + 1e-12, 2.0])
    out = denoise.soft_threshold(x, 0.5)
    np.testing.assert_allclose(
        out, [-1.5, 0.0, 0.0, 0.0, 0.0, 0.0, 1.5], rtol=0, atol=1e-11
    )


def test_soft_threshold_fit_normalizes():
    x = np.array([3.0, -2.0, 0.1, 0.0])
    state = denoise.fit_soft_threshold(x, 0.5)
    out = state.eta(x)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_soft_threshold_fit_all_below_tau():
    with pytest.raises(denoise.DegenerateIterateError):
        denoise.fit_soft_threshold(np.array([0.1, -0.2, 0.05]), 0.5)


def test_soft_threshold_derivative_counts_strict():
    # Entries exactly at the kink |x| = tau contribute zero, matching the
    # derivative convention; count is strict inequality.
    state = denoise.SoftThresholdDenoiser(tau=0.5, gamma=2.0)
    x = np.array([0.5, -0.5, 0.6, -0.7, 0.0])
    assert state.onsager(x) == pytest.approx(2.0 * 2 / 5)


def test_soft_threshold_derivative_matches_fd_off_kink():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(300)
    # keep every entry at least 1e-3 away from the kink so the FD is clean
    x = x[np.abs(np.abs(x) - 0.4) > 1e-3]
    state = denoise.fit_soft_threshold(x, 0.4)
    assert abs(state.onsager(x) - _fd_onsager(state, x)) < 1e-6


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, -0.1])
def test_soft_threshold_fit_rejects_bad_tau(tau):
    # a threshold that is not finite and nonnegative is the caller's error,
    # not a degenerate iterate the harness would record as a failed trial
    with pytest.raises(ValueError, match="tau must be finite and nonnegative") as info:
        denoise.fit_soft_threshold(np.array([3.0, -2.0, 0.1]), tau)
    assert not isinstance(info.value, denoise.DegenerateIterateError)


def test_default_tau_formula():
    n = 4000
    assert denoise.default_tau(n) == pytest.approx(2.0 * np.sqrt(np.log(n) / n))
    assert denoise.default_tau(4000) == pytest.approx(0.09107167309378932)
    assert denoise.default_tau(n, c_tau=3.0) == pytest.approx(
        1.5 * denoise.default_tau(n)
    )


@settings(max_examples=40, deadline=None)
@given(
    x=hnp.arrays(
        np.float64,
        st.integers(min_value=2, max_value=50),
        elements=st.floats(-5, 5, allow_nan=False),
    ),
    tau=st.floats(0.0, 2.0),
)
@example(x=np.array([2.23e-286, 2.23e-286]), tau=0.0)
@example(x=np.array([9.63e-247, 9.63e-247]), tau=0.0)
@example(x=np.array([5e-324, 5e-324]), tau=0.0)
def test_soft_threshold_fit_property(x, tau):
    try:
        state = denoise.fit_soft_threshold(x, tau)
    except denoise.DegenerateIterateError as exc:
        if "too small" in str(exc):
            # 1/||s|| can overflow only if every |s_i| < 1/max_float
            s = denoise.soft_threshold(x, tau)
            assert np.max(np.abs(s)) < 1.0 / np.finfo(np.float64).max
        else:
            assert np.all(np.abs(x) <= tau)
        return
    out = state.eta(x)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-9
    d = state.onsager(x)
    assert 0.0 <= d <= state.gamma + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    x=hnp.arrays(
        np.float64,
        st.integers(min_value=2, max_value=50),
        elements=st.floats(-4, 4, allow_nan=False),
    )
)
def test_tanh_apply_bounded_property(x):
    try:
        state = denoise.fit_tanh(x)
    except denoise.DegenerateIterateError:
        return
    out = state.eta(x)
    assert np.all(np.abs(out) <= state.gamma + 1e-12)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-9
