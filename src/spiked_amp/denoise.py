"""Separable denoisers eta_t with data-driven per-iteration parameters.

Two families:

* "tanh-z2":        eta(x) = gamma * tanh(pi * x), with pi fitted from the
                    iterate's norm and gamma normalizing eta(x_t) to unit norm.
* "soft-threshold": eta(x) = gamma * sign(x) (|x| - tau)_+, gamma likewise.

The derivative convention at soft-threshold kinks is 0, and so is every
higher derivative there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EPS_CLAMP",
    "DegenerateIterateError",
    "DenoiserState",
    "apply",
    "derivative_avg",
    "fit_soft_threshold",
    "fit_tanh",
    "default_tau",
    "soft_threshold",
]

# Clamp for ||x_t||^2 - 1 under the square root in pi_t.  The quantity is
# positive with high probability in the regime of interest, but a finite
# sample can dip below zero; clamping keeps pi_t real and surfaces the
# problem as a near-zero-slope denoiser instead of a NaN.
EPS_CLAMP = 1e-12


class DegenerateIterateError(ValueError):
    """Raised when a fit would produce an all-zero denoised vector."""


@dataclass(frozen=True)
class DenoiserState:
    family: str  # "tanh-z2" | "soft-threshold"
    pi: float = 0.0
    gamma: float = 1.0
    tau: float = 0.0


def _scaled_norm(v: np.ndarray) -> float:
    """||v|| without letting the squares underflow or overflow.

    v is scaled by the power of two nearest max|v| before squaring.  That
    scaling is exact, so wherever the plain squares neither underflow nor
    overflow the result equals np.linalg.norm(v) bit for bit.  A norm beyond
    the float64 range comes out as inf, with numpy's overflow warning.
    """
    _, e = np.frexp(np.max(np.abs(v)))
    return float(np.ldexp(np.linalg.norm(np.ldexp(v, -e)), e))


def _inverse_norm(v: np.ndarray, fit: str) -> float:
    """1 / ||v|| for a nonzero v, through _scaled_norm."""
    gamma = 1.0 / _scaled_norm(v)
    if not np.isfinite(gamma):
        raise DegenerateIterateError(
            f"{fit}: 1/norm overflows, iterate too small to normalize"
        )
    return gamma


def fit_tanh(x_t: np.ndarray) -> DenoiserState:
    """Fit the tanh family on iterate x_t of length n: pi = sqrt(n (||x_t||^2 - 1))."""
    sq = float(x_t @ x_t)
    pi = float(np.sqrt(x_t.shape[0] * max(sq - 1.0, EPS_CLAMP)))
    th = np.tanh(pi * x_t)
    if not np.any(th):
        raise DegenerateIterateError("tanh fit: tanh(pi x_t) is identically 0")
    return DenoiserState(family="tanh-z2", pi=pi, gamma=_inverse_norm(th, "tanh fit"))


def fit_soft_threshold(x_t: np.ndarray, tau: float) -> DenoiserState:
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if not np.any(np.abs(x_t) > tau):
        raise DegenerateIterateError(
            f"soft-threshold fit: no entry above tau={tau:g} "
            "(signal too weak or threshold too large)"
        )
    gamma = _inverse_norm(soft_threshold(x_t, tau), "soft-threshold fit")
    return DenoiserState(family="soft-threshold", gamma=gamma, tau=tau)


def default_tau(n: int, c_tau: float = 2.0) -> float:
    """Per-run threshold tau = c_tau sqrt(log n / n); c_tau is a tunable."""
    return c_tau * np.sqrt(np.log(n) / n)


def soft_threshold(x: np.ndarray, tau: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def apply(state: DenoiserState, x: np.ndarray) -> np.ndarray:
    """Evaluate eta entrywise."""
    if state.family == "tanh-z2":
        return state.gamma * np.tanh(state.pi * x)
    if state.family == "soft-threshold":
        return state.gamma * soft_threshold(x, state.tau)
    raise ValueError(f"unknown denoiser family {state.family!r}")


def derivative_avg(state: DenoiserState, x: np.ndarray) -> float:
    """Return (1/n) sum_i eta'(x_i), the Onsager coefficient.

    Entries exactly at a soft-threshold kink contribute 0.
    """
    n = len(x)
    if state.family == "tanh-z2":
        th = np.tanh(state.pi * x)
        return float(np.mean(state.gamma * state.pi * (1.0 - th * th)))
    if state.family == "soft-threshold":
        # the fraction first: gamma * (count / n) cannot round above gamma
        return float(state.gamma * (np.count_nonzero(np.abs(x) > state.tau) / n))
    raise ValueError(f"unknown denoiser family {state.family!r}")
