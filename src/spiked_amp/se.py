"""Deterministic state-evolution calculators.

Everything here is a pure scalar computation: Gauss-Hermite quadrature for
the tanh family, closed-form Gaussian soft-threshold moments for the sparse
family, fixed points, and the kappa/T2 scalar functions with their bound
scans.  No randomness, no matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import ndtr, roots_hermite

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
    order: int


@lru_cache(maxsize=8)
def gauss_hermite(order: int = DEFAULT_ORDER) -> Quadrature:
    # scipy's Golub-Welsch nodes stay finite at high order, unlike the
    # numpy.polynomial version which overflows beyond ~400 nodes.
    x, w = roots_hermite(order)
    nodes = x * np.sqrt(2.0)
    weights = w / np.sqrt(np.pi)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return Quadrature(nodes=nodes, weights=weights, order=order)


def gauss_expect(f: Callable[[np.ndarray], np.ndarray], q: Quadrature) -> float:
    """E[f(Z)] for standard normal Z via the rule; f must vectorize."""
    vals = np.asarray(f(q.nodes), dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned a non-finite value at a node")
    return float(q.weights @ vals)


@dataclass(frozen=True)
class SeTrajectory:
    values: tuple[float, ...]
    fixed_point: float | None
    converged: bool


# ---------------------------------------------------------------------------
# tanh (Z2-synchronization) state evolution


def se_z2_step(tau: float, lam: float, q: Quadrature) -> float:
    """One SE update: lam^2 E[tanh(tau + sqrt(tau) Z)]."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    rt = np.sqrt(tau)
    return lam * lam * gauss_expect(lambda z: np.tanh(tau + rt * z), q)


def _iterate_se(step: Callable[[float], float], start: float, max_iter: int) -> SeTrajectory:
    values = [start]
    prev_delta = 0.0
    damp = 1.0
    for _ in range(max_iter):
        cur = values[-1]
        delta = step(cur) - cur
        # Plain iteration suffices for a monotone contraction; halve the step
        # defensively if the update direction flips back and forth.
        if delta * prev_delta < 0:
            damp = 0.5
        values.append(cur + damp * delta)
        if abs(values[-1] - cur) < _TOL:
            return SeTrajectory(values=tuple(values), fixed_point=values[-1], converged=True)
        prev_delta = delta
    return SeTrajectory(values=tuple(values), fixed_point=None, converged=False)


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
    if not traj.converged:
        raise ConvergenceFailureError(
            f"no fixed point within {_MAX_ITER} iterations at lam={lam}"
        )
    return traj


def t2_z2(lam: float, tau: float, q: Quadrature) -> float:
    """lam^2 E[(1 - tanh^2(tau + sqrt(tau) Z)) (1 + Z / (2 sqrt(tau)))]."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    rt = np.sqrt(tau)

    def integrand(z: np.ndarray) -> np.ndarray:
        th = np.tanh(tau + rt * z)
        return (1.0 - th * th) * (1.0 + z / (2.0 * rt))

    return lam * lam * gauss_expect(integrand, q)


def kappa2_z2(lam: float, tau: float, q: Quadrature) -> float:
    """max of the two squared-integrand Gaussian moments, times lam^2."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    rt = np.sqrt(tau)

    def first(z: np.ndarray) -> np.ndarray:
        th = np.tanh(tau + rt * z)
        return ((z + 2.0 * rt * th) * (1.0 - th * th)) ** 2

    def second(z: np.ndarray) -> np.ndarray:
        th = np.tanh(tau + rt * z)
        return (1.0 - th * th) ** 2

    return lam * lam * max(gauss_expect(first, q), gauss_expect(second, q))


def quad_identity_check(tau: float, lam: float, q: Quadrature) -> tuple[float, float]:
    """Return (lam^2 E[tanh^2], lam^2 E[tanh]) at mean tau, variance tau.

    The two agree for this particular mean/variance coupling; the pair is
    returned so callers can assert the gap.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    rt = np.sqrt(tau)
    sq = lam * lam * gauss_expect(lambda z: np.tanh(tau + rt * z) ** 2, q)
    lin = lam * lam * gauss_expect(lambda z: np.tanh(tau + rt * z), q)
    return sq, lin


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


def soft_threshold_tail(mu, sigma: float, tau: float):
    """P(|mu + sigma Z| > tau)."""
    c1 = (tau - mu) / sigma
    c2 = (-tau - mu) / sigma
    return ndtr(-c1) + ndtr(c2)


def soft_threshold_mean(mu, sigma: float, tau: float):
    """E[ soft_tau(mu + sigma Z) ]."""
    c1 = (tau - mu) / sigma
    c2 = (-tau - mu) / sigma
    return (
        (mu - tau) * ndtr(-c1)
        + sigma * _pdf(c1)
        + (mu + tau) * ndtr(c2)
        - sigma * _pdf(c2)
    )


def soft_threshold_second_moment(mu, sigma: float, tau: float):
    """E[ soft_tau(mu + sigma Z)^2 ]."""
    c1 = (tau - mu) / sigma
    c2 = (-tau - mu) / sigma
    upper = (
        (mu - tau) ** 2 * ndtr(-c1)
        + 2.0 * (mu - tau) * sigma * _pdf(c1)
        + sigma**2 * (ndtr(-c1) + c1 * _pdf(c1))
    )
    lower = (
        (mu + tau) ** 2 * ndtr(c2)
        - 2.0 * (mu + tau) * sigma * _pdf(c2)
        + sigma**2 * (ndtr(c2) - c2 * _pdf(c2))
    )
    return upper + lower


def gauss_sq_indicator_mean(mu, sigma: float, tau: float):
    """E[ Z^2 1(|mu + sigma Z| > tau) ]."""
    c1 = (tau - mu) / sigma
    c2 = (-tau - mu) / sigma
    return (ndtr(-c1) + c1 * _pdf(c1)) + (ndtr(c2) - c2 * _pdf(c2))


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
