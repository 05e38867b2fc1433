"""The AMP engine: single step, full runs, spectral initialization and
the top-eigenpair refinement that only eigenvalue experiments need.

Every product with the symmetric M goes through one BLAS kernel, `_symv`
(dsymv), which reads only M's upper triangle: M must be symmetric, and an
asymmetric M is not detected.

A run owns nothing random; the model, the starting point, and the step-0
convention eta_0(x_0) are all passed in, so the same trajectory is
reproducible from its inputs alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsymv

from . import denoise
from ._rng import substream
from .denoise import DegenerateIterateError, DenoiserState
from .model import SpikedModel

__all__ = [
    "AmpTrajectory",
    "SpectralInit",
    "TopEigenpair",
    "amp_step",
    "default_power_steps",
    "run_amp",
    "spectral_init",
    "top_eigenpair",
]


@dataclass(frozen=True)
class AmpTrajectory:
    """Iterates x_1..x_T with the per-iteration denoiser bookkeeping.

    denoised[t-1] = eta_t(x_t) and onsager[t-1] = <eta_t'(x_t)>, both fitted
    on iterates[t-1].  When a fit degenerates the run stops early and
    `failure` carries (t, message); all lists then end at the last good t.
    """

    iterates: list[np.ndarray]
    denoised: list[np.ndarray]
    states: list[DenoiserState]
    onsager: list[float]
    eta0_of_x0: np.ndarray
    failure: tuple[int, str] | None = None


def _symv(M: np.ndarray, y: np.ndarray) -> np.ndarray:
    """M y for a symmetric M via BLAS dsymv, reading only M[i, j] with i <= j.

    dsymv wants a Fortran-order matrix.  A C-order M is passed as its
    F-contiguous transpose M.T with the triangle flag flipped, so the matrix
    is never copied (f2py would copy a C-order argument on every call).
    """
    if M.flags.f_contiguous:
        return dsymv(1.0, M, y)
    return dsymv(1.0, M.T, y, lower=1)


def amp_step(
    M: np.ndarray, eta_xt: np.ndarray, eta_prev: np.ndarray, onsager: float
) -> np.ndarray:
    """x_{t+1} = M eta_t(x_t) - <eta_t'(x_t)> eta_{t-1}(x_{t-1}).

    M must be symmetric; only its upper triangle is read.
    """
    n = M.shape[0]
    if M.shape != (n, n) or eta_xt.shape != (n,) or eta_prev.shape != (n,):
        raise ValueError(
            f"dimension mismatch: M {M.shape}, eta {eta_xt.shape}, prev {eta_prev.shape}"
        )
    return _symv(M, eta_xt) - onsager * eta_prev


def _fit(family: str, x: np.ndarray, n: int, tau: float) -> DenoiserState:
    if family == "tanh-z2":
        return denoise.fit_tanh(x, n)
    if family == "soft-threshold":
        return denoise.fit_soft_threshold(x, tau)
    raise ValueError(f"unknown denoiser family {family!r}")


def run_amp(
    model: SpikedModel,
    family: str,
    x1: np.ndarray,
    eta0_of_x0: np.ndarray,
    T: int,
    tau: float = 0.0,
) -> AmpTrajectory:
    """Run T iterations from x1.

    eta0_of_x0 is the step-0 convention: x1/lam for the spectrally
    initialized tanh pipeline, zero for the sparse pipeline.  `tau` is only
    read by the soft-threshold family (constant across iterations).
    model.observed must be symmetric; only its upper triangle is read.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    M = model.observed
    n = model.n
    iterates = [np.asarray(x1, dtype=np.float64)]
    denoised: list[np.ndarray] = []
    states: list[DenoiserState] = []
    onsager: list[float] = []
    failure = None
    eta_prev = np.asarray(eta0_of_x0, dtype=np.float64)
    for t in range(1, T + 1):
        x = iterates[-1]
        try:
            state = _fit(family, x, n, tau)
        except DegenerateIterateError as exc:
            failure = (t, str(exc))
            break
        eta = denoise.apply(state, x)
        ons = denoise.derivative_avg(state, x)
        denoised.append(eta)
        states.append(state)
        onsager.append(ons)
        if t < T:
            iterates.append(amp_step(M, eta, eta_prev, ons))
            eta_prev = eta
    return AmpTrajectory(
        iterates=iterates,
        denoised=denoised,
        states=states,
        onsager=onsager,
        eta0_of_x0=np.asarray(eta0_of_x0, dtype=np.float64),
        failure=failure,
    )


@dataclass(frozen=True)
class SpectralInit:
    """Output of the power-iteration initializer.

    x1 is M^s v_tilde normalized to unit length, computed by s renormalized
    power steps from the random unit start v_tilde (any SNR rescaling is the
    caller's job).  The eigenvalue estimate is not part of the start;
    `top_eigenpair` refines x1 when it is needed.
    """

    x1: np.ndarray
    s: int
    v_tilde: np.ndarray


@dataclass(frozen=True)
class TopEigenpair:
    """Top-eigenpair estimate from s further power steps after x1.

    vhat is the unit-norm iterate and lambda_max = vhat . M vhat its Rayleigh
    quotient.
    """

    lambda_max: float
    vhat: np.ndarray


def default_power_steps(n: int, lam: float) -> int:
    """s = ceil(8 log n / (lam-1)^2), capped at n/4; defined for lam > 1."""
    if not lam > 1.0:
        raise ValueError(f"default_power_steps needs lam > 1 (spectral regime), got {lam!r}")
    # two divisions, not a square: a huge lam gives s = 1, not an OverflowError
    s = int(np.ceil(8.0 * np.log(n) / (lam - 1.0) / (lam - 1.0)))
    return max(1, min(s, n // 4))


def _power_steps(M: np.ndarray, y: np.ndarray, s: int) -> np.ndarray:
    """s power steps from y, renormalized every step to avoid overflow; the unit iterate."""
    if s < 1:
        raise ValueError("s must be >= 1")
    for step in range(1, s + 1):
        y = _symv(M, y)
        nrm = np.linalg.norm(y)
        if nrm == 0.0:
            raise ValueError(
                f"power step {step} gave ||M y|| = 0 "
                "(the start vector is in M's null space)"
            )
        y /= nrm
    return y


def _check_square(M: np.ndarray) -> None:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"M must be a square 2-D matrix, got shape {M.shape}")


def spectral_init(M: np.ndarray, s: int, seed: int) -> SpectralInit:
    """s power steps from a random unit start: s matvecs.

    M must be symmetric; only its upper triangle is read.
    """
    _check_square(M)
    n = M.shape[0]
    rng = substream(seed, "spectral-start")
    v_tilde = rng.standard_normal(n)
    v_tilde /= np.linalg.norm(v_tilde)
    return SpectralInit(x1=_power_steps(M, v_tilde, s), s=s, v_tilde=v_tilde)


def top_eigenpair(M: np.ndarray, x1: np.ndarray, s: int) -> TopEigenpair:
    """Refine a spectral start: s power steps from x1 and a Rayleigh quotient.

    That is s + 1 matvecs.  Called as top_eigenpair(M, init.x1, init.s), vhat
    is the unit iterate after 2s power steps from init.v_tilde.  x1 is not
    modified.  M must be symmetric; only its upper triangle is read.
    """
    _check_square(M)
    if np.shape(x1) != (M.shape[0],):
        raise ValueError(f"dimension mismatch: M {M.shape}, x1 {np.shape(x1)}")
    vhat = _power_steps(M, x1, s)
    return TopEigenpair(lambda_max=float(vhat @ _symv(M, vhat)), vhat=vhat)
