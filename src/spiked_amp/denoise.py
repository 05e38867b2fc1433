"""Separable denoisers eta_t with data-driven per-iteration parameters.

Each fit maps an iterate x_t to a frozen denoiser that evaluates itself:

* fit_tanh -> TanhDenoiser:  eta(x) = gamma * tanh(pi * x), with pi fitted
  from the iterate's norm and gamma normalizing eta(x_t) to unit norm.
* fit_soft_threshold -> SoftThresholdDenoiser:  eta(x) = gamma * sign(x)
  (|x| - tau)_+, gamma likewise.

The derivative convention at soft-threshold kinks is 0, and so is every
higher derivative there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

__all__ = [
    "EPS_CLAMP",
    "DegenerateIterateError",
    "Denoiser",
    "SoftThresholdDenoiser",
    "TanhDenoiser",
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


class Denoiser(Protocol):
    """What the AMP engine asks of a fitted denoiser eta_t: eta(x) entrywise
    and onsager(x) = (1/n) sum_i eta'(x_i), the Onsager coefficient."""

    def eta(self, x: np.ndarray) -> np.ndarray: ...

    def onsager(self, x: np.ndarray) -> float: ...


@dataclass(frozen=True)
class TanhDenoiser:
    """eta(x) = gamma * tanh(pi * x)."""

    pi: float
    gamma: float

    def eta(self, x: np.ndarray) -> np.ndarray:
        return self.gamma * np.tanh(self.pi * x)

    def onsager(self, x: np.ndarray) -> float:
        th = np.tanh(self.pi * x)
        return float(np.mean(self.gamma * self.pi * (1.0 - th * th)))


@dataclass(frozen=True)
class SoftThresholdDenoiser:
    """eta(x) = gamma * sign(x) (|x| - tau)_+; entries exactly at a kink add 0 to onsager."""

    tau: float
    gamma: float

    def eta(self, x: np.ndarray) -> np.ndarray:
        return self.gamma * soft_threshold(x, self.tau)

    def onsager(self, x: np.ndarray) -> float:
        # the fraction first: gamma * (count / n) cannot round above gamma
        return float(self.gamma * (np.count_nonzero(np.abs(x) > self.tau) / len(x)))


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


def fit_tanh(x_t: np.ndarray) -> TanhDenoiser:
    """Fit the tanh family on iterate x_t of length n: pi = sqrt(n (||x_t||^2 - 1))."""
    sq = float(x_t @ x_t)
    pi = float(np.sqrt(x_t.shape[0] * max(sq - 1.0, EPS_CLAMP)))
    th = np.tanh(pi * x_t)
    if not np.any(th):
        raise DegenerateIterateError("tanh fit: tanh(pi x_t) is identically 0")
    return TanhDenoiser(pi, _inverse_norm(th, "tanh fit"))


def fit_soft_threshold(x_t: np.ndarray, tau: float) -> SoftThresholdDenoiser:
    """Fit the soft-threshold family on iterate x_t at a finite threshold tau >= 0."""
    if not 0.0 <= tau < np.inf:
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    if not np.any(np.abs(x_t) > tau):
        raise DegenerateIterateError(
            f"soft-threshold fit: no entry above tau={tau:g} "
            "(signal too weak or threshold too large)"
        )
    gamma = _inverse_norm(soft_threshold(x_t, tau), "soft-threshold fit")
    return SoftThresholdDenoiser(tau, gamma)


def default_tau(n: int, c_tau: float = 2.0) -> float:
    """Per-run threshold tau = c_tau sqrt(log n / n); c_tau is a tunable."""
    return c_tau * np.sqrt(np.log(n) / n)


def soft_threshold(x: np.ndarray, tau: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)
