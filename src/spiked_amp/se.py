"""Deterministic state-evolution calculators.

Everything here is a pure scalar computation: Gauss-Hermite quadrature for
the tanh family, closed-form Gaussian soft-threshold moments for the sparse
family, fixed points, and the kappa/T2 scalar functions with their bound
scans.  No randomness, no matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "ConvergenceFailureError",
    "DegenerateSeError",
    "Quadrature",
    "SeTrajectory",
    "gauss_expect",
    "gauss_hermite",
    "gauss_sq_indicator_mean",
    "kappa2_sparse",
    "kappa2_z2",
    "kappa_bound_z2",
    "lambda_grid_z2",
    "quad_identity_check",
    "se_sparse_f",
    "se_sparse_trajectory",
    "se_z2_fixed_point",
    "se_z2_step",
    "se_z2_trajectory",
    "soft_threshold_mean",
    "soft_threshold_second_moment",
    "soft_threshold_tail",
    "t2_bound_z2",
    "t2_z2",
    "tau_grid_z2",
]

DEFAULT_ORDER = 201

_TOL = 1e-12  # an SE run has converged once |tau_{t+1} - tau_t| < _TOL
_MAX_ITER = 100_000  # steps before a fixed-point search gives up
# the bound scans' grids: lambda in (1, 1.2], 200 tau values per lambda
_LAMBDA_STEP = 0.005
_LAMBDA_STOP = 1.2
_TAU_POINTS = 200


class ConvergenceFailureError(RuntimeError):
    pass


class DegenerateSeError(ValueError):
    """The state-evolution map is undefined (e.g. all mass thresholded away)."""


@dataclass(frozen=True)
class Quadrature:
    """Gauss-Hermite rule rewritten against the standard normal measure.

    nodes/weights satisfy sum(w) = 1 and sum(w f(z)) ~= E[f(Z)], Z ~ N(0,1).
    """

    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=8)
def gauss_hermite(order: int = DEFAULT_ORDER) -> Quadrature:
    # Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    # probabilists' Hermite polynomials (zero diagonal, off-diagonal sqrt(k),
    # stored in the lower triangle np.linalg.eigh reads), and each weight is
    # the squared first entry of its unit eigenvector.  At the orders the
    # tests check, it is bit-equal to the rule from scipy's LAPACK
    # tridiagonal solver on the same diagonals.  It stays finite at any
    # order, unlike numpy.polynomial's hermgauss, which overflows beyond ~400
    # nodes.  The rule is made exactly symmetric.
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError(f"quadrature order must be an integer >= 1, got {order!r}")
    x, z = np.linalg.eigh(np.diag(np.sqrt(np.arange(1.0, order)), -1))
    w = z[0] ** 2
    nodes = (x - x[::-1]) / 2.0
    weights = w + w[::-1]
    weights /= weights.sum()
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return Quadrature(nodes=nodes, weights=weights)


def _weigh(vals, q: Quadrature) -> float:
    """The rule's weighted sum of an integrand's values at its nodes."""
    vals = np.asarray(vals, dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned a non-finite value at a node")
    return float(q.weights @ vals)


def gauss_expect(f: Callable[[np.ndarray], np.ndarray], q: Quadrature) -> float:
    """E[f(Z)] for standard normal Z via the rule; f must vectorize."""
    return _weigh(f(q.nodes), q)


@dataclass(frozen=True)
class SeTrajectory:
    values: tuple[float, ...]
    fixed_point: float | None


# ---------------------------------------------------------------------------
# tanh (Z2-synchronization) state evolution


def _tanh_at_nodes(tau: float, q: Quadrature) -> tuple[np.ndarray, float]:
    """tanh(tau + sqrt(tau) z) at the rule's nodes z, and sqrt(tau).

    Each Z2 integral below weighs an integrand built from these values, and
    tau > 0 is checked here for all of them.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    rt = np.sqrt(tau)
    return np.tanh(tau + rt * q.nodes), rt


def se_z2_step(tau: float, lam: float, q: Quadrature) -> float:
    """One SE update: lam^2 E[tanh(tau + sqrt(tau) Z)]."""
    th, _ = _tanh_at_nodes(tau, q)
    return lam * lam * _weigh(th, q)


def _iterate_se(step: Callable[[float], float], start: float, max_iter: int) -> SeTrajectory:
    values = [start]
    for _ in range(max_iter):
        cur = values[-1]
        # cur + (step - cur), not step(cur): the rounding the SE references keep
        values.append(cur + (step(cur) - cur))
        if abs(values[-1] - cur) < _TOL:
            return SeTrajectory(values=tuple(values), fixed_point=values[-1])
    return SeTrajectory(values=tuple(values), fixed_point=None)


def _se_prefix(step: Callable[[float], float], start: float, T: int) -> SeTrajectory:
    """Exactly T values from start; a run that converges early repeats its last value."""
    if T < 1:
        raise ValueError("T must be >= 1")
    traj = _iterate_se(step, start, max_iter=T - 1)
    values = traj.values + (traj.values[-1],) * (T - len(traj.values))
    return replace(traj, values=values)


def se_z2_trajectory(lam: float, T: int, q: Quadrature) -> SeTrajectory:
    """The sequence tau_1 .. tau_T from tau_1 = lam^2 - 1 (exactly T values)."""
    if lam <= 1.0:
        raise ValueError(f"need lam > 1 for a positive tau_1, got {lam}")
    return _se_prefix(lambda t: se_z2_step(t, lam, q), lam * lam - 1.0, T)


def se_z2_fixed_point(lam: float, q: Quadrature) -> SeTrajectory:
    """Iterate from tau_1 = lam^2 - 1 until |tau_{t+1} - tau_t| < 1e-12.

    The bound scans certify the map's contraction only for lam in (1, 1.2];
    larger lam still converges in practice and is accepted.
    """
    if lam <= 1.0:
        raise ValueError(f"need lam > 1, got {lam}")
    traj = _iterate_se(lambda t: se_z2_step(t, lam, q), lam * lam - 1.0, _MAX_ITER)
    if traj.fixed_point is None:
        raise ConvergenceFailureError(
            f"no fixed point within {_MAX_ITER} iterations at lam={lam}"
        )
    return traj


def t2_z2(lam: float, tau: float, q: Quadrature) -> float:
    """lam^2 E[(1 - tanh^2(tau + sqrt(tau) Z)) (1 + Z / (2 sqrt(tau)))]."""
    th, rt = _tanh_at_nodes(tau, q)
    return lam * lam * _weigh((1.0 - th * th) * (1.0 + q.nodes / (2.0 * rt)), q)


def kappa2_z2(lam: float, tau: float, q: Quadrature) -> float:
    """max of the two squared-integrand Gaussian moments, times lam^2."""
    th, rt = _tanh_at_nodes(tau, q)
    first = _weigh(((q.nodes + 2.0 * rt * th) * (1.0 - th * th)) ** 2, q)
    second = _weigh((1.0 - th * th) ** 2, q)
    return lam * lam * max(first, second)


def quad_identity_check(tau: float, lam: float, q: Quadrature) -> tuple[float, float]:
    """Return (lam^2 E[tanh^2], lam^2 E[tanh]) at mean tau, variance tau.

    The two agree for this particular mean/variance coupling; the pair is
    returned so callers can assert the gap.
    """
    th, _ = _tanh_at_nodes(tau, q)
    return lam * lam * _weigh(th**2, q), lam * lam * _weigh(th, q)


def kappa_bound_z2(lam: float) -> float:
    return 1.0 - (lam - 1.0) / 12.0


def t2_bound_z2(lam: float) -> float:
    return 1.0 - (lam - 1.0)


def lambda_grid_z2() -> np.ndarray:
    """Grid over (1, 1.2] used by the bound scans (endpoints included)."""
    count = int(round((_LAMBDA_STOP - 1.0) / _LAMBDA_STEP))
    return 1.0 + _LAMBDA_STEP * np.arange(1, count + 1)


def tau_grid_z2(lam: float) -> np.ndarray:
    return np.linspace(lam * lam - 1.0, lam * lam, _TAU_POINTS)


# ---------------------------------------------------------------------------
# Gaussian soft-threshold moments (closed forms; the kink rules out
# polynomial quadrature, and the truncated-normal algebra is exact)


def _pdf(x):
    """Standard normal density; ndtr is its CDF."""
    return np.exp(-x**2 / 2.0) / np.sqrt(2.0 * np.pi)


_SQRT1_2 = math.sqrt(0.5)


def _ndtr1(a: float) -> float:
    x = a * _SQRT1_2
    if abs(x) < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(abs(x))
    return 1.0 - y if x > 0.0 else y


def ndtr(x):
    """The standard normal CDF, elementwise, from math.erf and math.erfc.

    Each distinct value of x is evaluated once: the sparse SE's arguments
    have one value per distinct signal entry.
    """
    x = np.asarray(x, dtype=np.float64)
    values, inverse = np.unique(x, return_inverse=True)
    cdf = np.array([_ndtr1(a) for a in values.tolist()], dtype=np.float64)
    return cdf[inverse].reshape(x.shape)


# at |c| >= _Z_EMPTY the normal tail beyond c and the density at c are both 0
# in double precision (they underflow beyond about 38.6)
_Z_EMPTY = 40.0


def _tails(mu, sigma: float, tau: float):
    """The terms of the closed forms below for mu + sigma Z at thresholds +-tau.

    Returns tau, c1 = (tau - mu) / sigma, c2 = (-tau - mu) / sigma, the tail
    masses P(Z > c1) and P(Z < c2), and the densities at c1 and c2.  A tau
    past max|mu| + 40 sigma empties every coordinate's tails, so it is
    lowered to that bound, which the formulas' mu -+ tau terms then use:
    each term is the same signed zero as at the given tau, and no square
    overflows.
    """
    tau = min(tau, np.max(np.abs(mu), initial=0.0) + _Z_EMPTY * sigma)
    c1 = (tau - mu) / sigma
    c2 = (-tau - mu) / sigma
    return tau, c1, c2, ndtr(-c1), ndtr(c2), _pdf(c1), _pdf(c2)


def soft_threshold_tail(mu, sigma: float, tau: float):
    """P(|mu + sigma Z| > tau)."""
    _, _, _, p1, p2, _, _ = _tails(mu, sigma, tau)
    return p1 + p2


def soft_threshold_mean(mu, sigma: float, tau: float):
    """E[ soft_tau(mu + sigma Z) ]."""
    tau, _, _, p1, p2, d1, d2 = _tails(mu, sigma, tau)
    return (mu - tau) * p1 + sigma * d1 + (mu + tau) * p2 - sigma * d2


def soft_threshold_second_moment(mu, sigma: float, tau: float):
    """E[ soft_tau(mu + sigma Z)^2 ]."""
    tau, c1, c2, p1, p2, d1, d2 = _tails(mu, sigma, tau)
    upper = (mu - tau) ** 2 * p1 + 2.0 * (mu - tau) * sigma * d1 + sigma**2 * (p1 + c1 * d1)
    lower = (mu + tau) ** 2 * p2 - 2.0 * (mu + tau) * sigma * d2 + sigma**2 * (p2 - c2 * d2)
    return upper + lower


def gauss_sq_indicator_mean(mu, sigma: float, tau: float):
    """E[ Z^2 1(|mu + sigma Z| > tau) ]."""
    _, c1, c2, p1, p2, d1, d2 = _tails(mu, sigma, tau)
    return (p1 + c1 * d1) + (p2 - c2 * d2)


# ---------------------------------------------------------------------------
# sparse-PCA state evolution


def se_sparse_f(alpha: float, v_star: np.ndarray, tau_t: float, lam: float) -> float:
    """The scalar SE map f(alpha) for the normalized soft-threshold denoiser.

    Both Gaussian integrals decompose coordinatewise (mean alpha * v_i,
    std 1/sqrt(n)) and are evaluated in closed form.
    """
    if alpha <= 0:
        raise DegenerateSeError(f"alpha must be positive, got {alpha}")
    v = np.asarray(v_star, dtype=np.float64)
    n = v.shape[0]
    sigma = 1.0 / np.sqrt(n)
    mu = alpha * v
    numer = lam * float(v @ soft_threshold_mean(mu, sigma, tau_t))
    denom_sq = float(np.sum(soft_threshold_second_moment(mu, sigma, tau_t)))
    if denom_sq <= 0.0:
        raise DegenerateSeError(
            f"soft-threshold second moment vanished at alpha={alpha}, tau={tau_t}"
        )
    return numer / np.sqrt(denom_sq)


def se_sparse_trajectory(
    alpha_start: float, v_star: np.ndarray, tau_t: float, lam: float, T: int
) -> SeTrajectory:
    """Iterate f from the supplied starting value (exactly T values).

    The starting value is an input because the theory only pins it up to a
    constant factor of lam; callers couple it to their initialization.
    """
    return _se_prefix(lambda a: se_sparse_f(a, v_star, tau_t, lam), alpha_start, T)


def kappa2_sparse(
    alpha: float, v_star: np.ndarray, tau_t: float, gamma: float, n: int
) -> float:
    """max of the two coordinate-averaged squared-derivative moments.

    eta' = gamma * 1(|alpha v_i + x/sqrt(n)| > tau), and the second-derivative
    term of the general definition vanishes under the kink convention.
    """
    v = np.asarray(v_star, dtype=np.float64)
    sigma = 1.0 / np.sqrt(n)
    mu = alpha * v
    ind_avg = float(np.mean(soft_threshold_tail(mu, sigma, tau_t)))
    zsq_avg = float(np.mean(gauss_sq_indicator_mean(mu, sigma, tau_t)))
    return gamma * gamma * max(ind_avg, zsq_avg)
