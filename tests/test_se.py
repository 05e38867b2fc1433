"""State evolution: quadrature, Z2 maps and bounds, sparse closed forms.

The dual routes here: brentq root finding against fixed-point iteration,
scipy adaptive quadrature against the closed-form soft-threshold moments,
and node-doubled Gauss-Hermite against the default order.
"""

import re

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

import spiked_amp as sa
from spiked_amp import se

Q = se.gauss_hermite()


# ---------------------------------------------------------------------------
# quadrature core


def test_gaussian_moments():
    assert se.gauss_expect(lambda z: np.ones_like(z), Q) == pytest.approx(1.0, abs=1e-13)
    assert se.gauss_expect(lambda z: z, Q) == pytest.approx(0.0, abs=1e-13)
    assert se.gauss_expect(lambda z: z * z, Q) == pytest.approx(1.0, abs=1e-12)
    assert se.gauss_expect(lambda z: z**4, Q) == pytest.approx(3.0, abs=1e-11)


def test_quadrature_node_count_and_cache():
    assert Q.nodes.shape == (201,)
    assert se.gauss_hermite() is Q  # lru cache returns the same object


def test_large_order_supported():
    # Orders past ~400 overflow in numpy's hermgauss; the Golub-Welsch
    # eigenproblem stays finite and must keep working for doubling checks.
    q2 = se.gauss_hermite(402)
    assert np.all(np.isfinite(q2.nodes)) and np.all(np.isfinite(q2.weights))
    assert se.gauss_expect(lambda z: z * z, q2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("order", [0, -1, 2.5, True])
def test_quadrature_refuses_a_bad_order(order):
    with pytest.raises(ValueError, match=rf"quadrature order .* got {order!r}$"):
        se.gauss_hermite(order)


@pytest.mark.parametrize("order", [201, 402])
def test_quadrature_matches_scipy_roots_hermite(order):
    q = se.gauss_hermite(order)
    x, w = special.roots_hermite(order)
    np.testing.assert_allclose(q.nodes, x * np.sqrt(2.0), rtol=0, atol=1e-13)
    np.testing.assert_allclose(q.weights, w / np.sqrt(np.pi), rtol=0, atol=1e-15)
    assert q.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_ndtr_matches_scipy():
    # Out to |x| = 15 scipy's ndtr is accurate to about 1e-14 and the two
    # agree to that; further left its erfc rounds exp(-x^2 / 2) and is off
    # by up to x^2 eps (see test_ndtr_far_left_tail).
    x = np.concatenate([np.linspace(-15.0, 38.0, 20001), [0.0, 1e-300, -1e-300]])
    np.testing.assert_allclose(se.ndtr(x), special.ndtr(x), rtol=1e-14, atol=0)
    assert se.ndtr(-np.inf) == 0.0 and se.ndtr(np.inf) == 1.0
    assert np.isnan(se.ndtr(np.nan))


def test_ndtr_far_left_tail():
    # Against 40-digit values at each float64 argument, from -15 down to
    # -37.5 (the last normal result): no further from them than scipy's ndtr.
    mpmath = pytest.importorskip("mpmath")
    x = np.linspace(-37.5, -15.0, 451)
    with mpmath.workdps(40):
        exact = np.array([float(mpmath.ncdf(a)) for a in x.tolist()])
    ours = np.max(np.abs(se.ndtr(x) / exact - 1.0))
    theirs = np.max(np.abs(special.ndtr(x) / exact - 1.0))
    assert ours <= theirs


def test_ndtr_keeps_the_shape():
    x = np.array([[0.5, -1.0, 0.5], [2.0, 0.5, -1.0]])
    out = se.ndtr(x)
    assert out.shape == x.shape
    np.testing.assert_array_equal(out, [[se.ndtr(a) for a in row] for row in x])


def test_gauss_expect_rejects_nonfinite():
    with pytest.raises(ValueError), np.errstate(divide="ignore"):
        se.gauss_expect(lambda z: 1.0 / z, Q)


# ---------------------------------------------------------------------------
# Z2 state evolution


def test_z2_step_frozen():
    assert se.se_z2_step(1.25, 1.5, Q) == pytest.approx(1.3991434657316049, abs=1e-14)


def test_z2_step_rejects_nonpositive_tau():
    with pytest.raises(ValueError):
        se.se_z2_step(0.0, 1.5, Q)


def test_z2_trajectory_frozen_prefix():
    traj = se.se_z2_trajectory(1.5, 5, Q)
    np.testing.assert_allclose(
        traj.values,
        [1.25, 1.3991434657316049, 1.480700246133907,
         1.5214569931743365, 1.540892777051143],
        rtol=0, atol=1e-13,
    )


def test_z2_trajectory_exact_length_and_padding():
    assert len(se.se_z2_trajectory(1.5, 1, Q).values) == 1
    long = se.se_z2_trajectory(1.2, 300, Q)
    assert len(long.values) == 300
    assert long.fixed_point is not None
    # after convergence the sequence is padded with the fixed point
    assert long.values[-1] == long.values[-2]


def test_z2_fixed_point_against_brentq():
    # Independent route: bracketed root finding on g(tau) - tau.
    for lam in (1.01, 1.05, 1.1, 1.2, 1.5):
        fp = se.se_z2_fixed_point(lam, Q)
        root = optimize.brentq(
            lambda t: se.se_z2_step(t, lam, Q) - t,
            lam * lam - 1.0 + 1e-12, lam * lam, xtol=1e-13,
        )
        assert fp.fixed_point is not None
        assert abs(fp.fixed_point - root) < 1e-9
        assert lam * lam - 1.0 < fp.fixed_point < lam * lam


def test_z2_fixed_point_names_lam_when_it_does_not_converge(monkeypatch):
    monkeypatch.setattr(se, "_MAX_ITER", 3)
    with pytest.raises(se.ConvergenceFailureError, match=r"within 3 iterations at lam=1\.1$"):
        se.se_z2_fixed_point(1.1, Q)


def test_z2_trajectory_monotone():
    for lam in (1.01, 1.05, 1.1, 1.2):
        vals = np.array(se.se_z2_trajectory(lam, 60, Q).values)
        assert np.all(np.diff(vals) >= -1e-13)


def test_z2_rejects_lam_at_most_one():
    with pytest.raises(ValueError):
        se.se_z2_trajectory(1.0, 5, Q)
    with pytest.raises(ValueError):
        se.se_z2_fixed_point(0.9, Q)


def test_kappa2_t2_frozen():
    assert se.kappa2_z2(1.1, 0.5, Q) == pytest.approx(0.8049754276354419, abs=1e-13)
    assert se.t2_z2(1.1, 0.5, Q) == pytest.approx(0.612327096925772, abs=1e-13)


def test_bound_formulas():
    assert se.kappa_bound_z2(1.12) == pytest.approx(1.0 - 0.01)
    assert se.t2_bound_z2(1.12) == pytest.approx(0.88)


def test_quad_identity_at_grid_sample():
    for lam in (1.05, 1.1, 1.2):
        for tau in np.linspace(lam * lam - 1.0, lam * lam, 7)[1:]:
            sq, lin = se.quad_identity_check(float(tau), lam, Q)
            assert abs(sq - lin) < 1e-10


def test_node_doubling_stability():
    q2 = se.gauss_hermite(402)
    for lam in (1.05, 1.2):
        for tau in (lam * lam - 0.5, lam * lam - 0.01):
            assert abs(se.se_z2_step(tau, lam, Q) - se.se_z2_step(tau, lam, q2)) < 1e-9
            assert abs(se.kappa2_z2(lam, tau, Q) - se.kappa2_z2(lam, tau, q2)) < 1e-9
            assert abs(se.t2_z2(lam, tau, Q) - se.t2_z2(lam, tau, q2)) < 1e-9


def test_lambda_grid_shape():
    g = se.lambda_grid_z2()
    assert len(g) == 40
    assert g[0] == pytest.approx(1.005, abs=1e-12)
    assert g[-1] == pytest.approx(1.2, abs=1e-12)
    assert np.allclose(np.diff(g), 0.005)


def test_tau_grid_endpoints():
    tg = se.tau_grid_z2(1.1)
    assert len(tg) == 200
    assert tg[0] == pytest.approx(1.1**2 - 1.0, abs=1e-14)
    assert tg[-1] == pytest.approx(1.1**2, abs=1e-14)


# ---------------------------------------------------------------------------
# soft-threshold Gaussian moments (closed form vs adaptive quadrature)

_MOMENT_POINTS = [
    (0.3, 0.5, 0.4),
    (-1.2, 0.2, 0.1),
    (0.0, 1.0, 1.0),
    (0.22, 0.0158, 0.09),   # the sparse pipeline's operating corner
    (2.5, 0.7, 3.2),        # threshold above the mean
]


@pytest.mark.parametrize("mu,sig,tau", _MOMENT_POINTS)
def test_soft_threshold_moments_vs_quad(mu, sig, tau):
    def st_fn(z):
        return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)

    pdf = stats.norm(mu, sig).pdf
    lo, hi = mu - 12 * sig, mu + 12 * sig
    pts = [p for p in (-tau, tau) if lo < p < hi]
    m1 = integrate.quad(lambda z: st_fn(z) * pdf(z), lo, hi, points=pts, limit=300)[0]
    m2 = integrate.quad(lambda z: st_fn(z) ** 2 * pdf(z), lo, hi, points=pts, limit=300)[0]
    tail = integrate.quad(lambda z: pdf(z) * (abs(z) > tau), lo, hi, points=pts, limit=300)[0]

    mu_arr = np.array([mu])
    assert se.soft_threshold_mean(mu_arr, sig, tau)[0] == pytest.approx(m1, abs=5e-9)
    assert se.soft_threshold_second_moment(mu_arr, sig, tau)[0] == pytest.approx(m2, abs=5e-9)
    assert se.soft_threshold_tail(mu_arr, sig, tau)[0] == pytest.approx(tail, abs=5e-9)


@pytest.mark.parametrize("mu,sig,tau", _MOMENT_POINTS)
def test_gauss_sq_indicator_vs_quad(mu, sig, tau):
    # E[X^2 1(|mu + sig X| > tau)] with X standard normal; the indicator is
    # on the shifted variable while the square is on X itself.
    pts = sorted(p for p in ((tau - mu) / sig, (-tau - mu) / sig) if -12 < p < 12)
    want = integrate.quad(
        lambda x: x * x * stats.norm.pdf(x) * (abs(mu + sig * x) > tau),
        -12, 12, points=pts, limit=300,
    )[0]
    got = se.gauss_sq_indicator_mean(np.array([mu]), sig, tau)[0]
    assert got == pytest.approx(want, abs=5e-9)


def test_moments_vectorize():
    mus = np.array([-0.5, 0.0, 0.7, 2.0])
    out = se.soft_threshold_mean(mus, 0.3, 0.25)
    assert out.shape == mus.shape
    singles = [se.soft_threshold_mean(np.array([m]), 0.3, 0.25)[0] for m in mus]
    np.testing.assert_allclose(out, singles, atol=1e-15)


def test_moment_odd_symmetry():
    # ST is odd, so the mean flips sign with mu and the even moments don't.
    m = se.soft_threshold_mean(np.array([0.8]), 0.4, 0.3)[0]
    m_neg = se.soft_threshold_mean(np.array([-0.8]), 0.4, 0.3)[0]
    assert m == pytest.approx(-m_neg, abs=1e-14)
    s = se.soft_threshold_second_moment(np.array([0.8]), 0.4, 0.3)[0]
    s_neg = se.soft_threshold_second_moment(np.array([-0.8]), 0.4, 0.3)[0]
    assert s == pytest.approx(s_neg, abs=1e-14)


# ---------------------------------------------------------------------------
# sparse state evolution


@pytest.fixture(scope="module")
def sparse_point():
    v = sa.make_signal(kind="sparse-dirac", n=4000, k=20, seed=0)
    tau = sa.default_tau(4000)
    return v, tau


def test_se_sparse_f_frozen(sparse_point):
    v, tau = sparse_point
    assert se.se_sparse_f(1.0, v, tau, 1.0) == pytest.approx(
        0.992958871830363, abs=1e-12
    )


def test_se_sparse_f_vs_quad_oracle(sparse_point):
    # Rebuild f from scipy quadrature: the dirac signal has one magnitude,
    # so only two distinct coordinate laws appear (support and off-support).
    v, tau = sparse_point
    alpha, lam = 0.9, 1.0
    n, k = v.size, 20
    mag = 1.0 / np.sqrt(k)
    sig = 1.0 / np.sqrt(n)

    def moments(mu):
        pdf = stats.norm(mu, sig).pdf
        lo, hi = mu - 12 * sig, mu + 12 * sig
        pts = [p for p in (-tau, tau) if lo < p < hi]
        st_fn = lambda z: np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)
        m1 = integrate.quad(lambda z: st_fn(z) * pdf(z), lo, hi, points=pts, limit=300)[0]
        m2 = integrate.quad(lambda z: st_fn(z) ** 2 * pdf(z), lo, hi, points=pts, limit=300)[0]
        return m1, m2

    m1_pos, m2_pos = moments(alpha * mag)
    _, m2_zero = moments(0.0)
    # signs distribute evenly in expectation; the closed form is sign-exact,
    # so sum per coordinate using the actual signs
    numer = lam * sum(v_i * (np.sign(v_i) * m1_pos) for v_i in v[v != 0])
    denom = np.sqrt(k * m2_pos + (n - k) * m2_zero)
    assert se.se_sparse_f(alpha, v, tau, lam) == pytest.approx(
        numer / denom, abs=1e-9
    )


def test_se_sparse_trajectory_frozen(sparse_point):
    v, tau = sparse_point
    traj = se.se_sparse_trajectory(1.0, v, tau, 1.0, 6)
    np.testing.assert_allclose(
        traj.values,
        [1.0, 0.992958871830363, 0.9927903910297118, 0.9927862860583592,
         0.9927861859986871, 0.9927861835596826],
        rtol=0, atol=1e-12,
    )
    assert len(traj.values) == 6


def test_se_sparse_f_rejects_bad_alpha(sparse_point):
    v, tau = sparse_point
    with pytest.raises(se.DegenerateSeError, match="alpha must be positive"):
        se.se_sparse_f(0.0, v, tau, 1.0)


def test_se_sparse_f_degenerate_when_threshold_huge(sparse_point):
    v, _ = sparse_point
    with pytest.raises(se.DegenerateSeError):
        se.se_sparse_f(1.0, v, 50.0, 1.0)


@pytest.mark.parametrize("tau", [1e150, 1e154, 1e200, 1e300, 1.7e308])
def test_sparse_se_past_every_tail_is_degenerate_not_nan(tau):
    # Far past max|mu| + 40 sigma both tails of every coordinate are empty:
    # the closed forms take their limit 0 without an overflow warning (a
    # RuntimeWarning fails the test), and the SE map names the degeneracy.
    v = sa.make_signal(kind="sparse-dirac", n=100, k=5, seed=1)
    with pytest.raises(se.DegenerateSeError, match=re.escape(f"alpha=1.0, tau={tau}")):
        se.se_sparse_f(1.0, v, tau, 1.0)
    assert se.kappa2_sparse(1.0, v, tau, 1.0, 100) == 0.0
    for f in (se.soft_threshold_tail, se.soft_threshold_mean,
              se.soft_threshold_second_moment, se.gauss_sq_indicator_mean):
        assert np.array_equal(f(1.0 * v, 0.1, tau), np.zeros(100))
        assert f(0.3, 0.2, tau) == 0.0


def test_kappa2_sparse_frozen_and_structure(sparse_point):
    v, tau = sparse_point
    val = se.kappa2_sparse(1.0, v, tau, 1.0, 4000)
    assert val == pytest.approx(0.005000294171584194, abs=1e-12)
    # consistency with the tested primitives it is built from
    mu = 1.0 * v
    sig = 1.0 / np.sqrt(4000)
    tails = se.soft_threshold_tail(mu, sig, tau)
    zsq = se.gauss_sq_indicator_mean(mu, sig, tau)
    want = 1.0 * max(float(np.mean(tails)), float(np.mean(zsq)))
    assert val == pytest.approx(want, abs=1e-14)


def test_step_slope_is_t2():
    # d/dtau of the update map equals the T2 coefficient; central
    # differences pin the two independently computed quantities together
    q = se.gauss_hermite()
    h = 1e-5
    for lam, tau in [(1.05, 0.2), (1.1, 0.5), (1.2, 1.0), (1.15, 0.35)]:
        fd = (se.se_z2_step(tau + h, lam, q) - se.se_z2_step(tau - h, lam, q)) / (2 * h)
        assert fd == pytest.approx(se.t2_z2(lam, tau, q), abs=1e-6)


def test_se_sparse_f_bounded_by_lam(sparse_point):
    # Cauchy-Schwarz: f = lam <v, m> / ||m|| <= lam ||v|| = lam
    v, tau = sparse_point
    for lam in (0.8, 1.0, 1.4):
        for alpha in (0.3, 0.7, 1.0, 1.5):
            assert se.se_sparse_f(alpha, v, tau, lam) <= lam * (1 + 1e-12)
