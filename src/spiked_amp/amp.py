"""The AMP engine: single step, the step generator and the full runs it
collects, spectral initialization and the top-eigenpair refinement that only
eigenvalue experiments need.

Every product with the symmetric M goes through one BLAS kernel, `_symv`
(dsymv), which reads only M's upper triangle: M must be symmetric, and an
asymmetric M is not detected.

A run owns nothing random and names no denoiser; the model, the denoiser's
fit, the starting point and the step-0 convention eta_0(x_0) are all passed
in, so the same trajectory is reproducible from its inputs alone.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dsymv

from ._rng import substream
from .denoise import DegenerateIterateError, Denoiser, _scaled_norm
from .model import SpikedModel

__all__ = [
    "AmpStep",
    "AmpTrajectory",
    "SpectralInit",
    "TopEigenpair",
    "amp_step",
    "amp_steps",
    "default_power_steps",
    "run_amp",
    "spectral_init",
    "top_eigenpair",
]


@dataclass(frozen=True)
class AmpTrajectory:
    """Iterates x_1..x_T with the per-iteration denoiser bookkeeping.

    states[t-1] = fit(x_t) is the fitted Denoiser eta_t, denoised[t-1] =
    eta_t.eta(x_t) and onsager[t-1] = eta_t.onsager(x_t), all on
    iterates[t-1].  When the fit of x_t degenerates the run stops early and
    `failure` carries (t, message); `iterates` then ends at that x_t, so
    len(iterates) == t, and the other lists end at t - 1.
    """

    iterates: list[np.ndarray]
    denoised: list[np.ndarray]
    states: list[Denoiser]
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


class AmpStep(NamedTuple):
    """Iterate x_t with its fit: the fitted Denoiser eta_t as `state`, then
    eta = state.eta(x) and onsager = state.onsager(x).

    When the fit of x_t degenerates, `failure` holds the message and the
    three fit fields are None.
    """

    t: int
    x: np.ndarray
    state: Denoiser | None
    eta: np.ndarray | None
    onsager: float | None
    failure: str | None = None


def amp_steps(
    model: SpikedModel,
    fit: Callable[[np.ndarray], Denoiser],
    x1: np.ndarray,
    eta0_of_x0: np.ndarray,
    T: int,
) -> Iterator[AmpStep]:
    """Yield the AmpStep of t = 1..T, holding only x_t, eta_t and eta_{t-1}.

    fit(x_t) runs once per step, on the x the step yields, and the step
    calls the returned denoiser's eta(x_t) and onsager(x_t) once each; a
    degenerate fit is yielded as that step's `failure` and ends the run.
    Arguments are those of run_amp, and T < 1 raises ValueError at the first
    step.  model.observed must be symmetric; only its upper triangle is read.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    M = model.observed
    x = np.asarray(x1, dtype=np.float64)
    eta_prev = np.asarray(eta0_of_x0, dtype=np.float64)
    for t in range(1, T + 1):
        try:
            state = fit(x)
        except DegenerateIterateError as exc:
            yield AmpStep(t, x, None, None, None, str(exc))
            return
        eta = state.eta(x)
        ons = state.onsager(x)
        yield AmpStep(t, x, state, eta, ons)
        if t < T:
            x = amp_step(M, eta, eta_prev, ons)
            eta_prev = eta


def run_amp(
    model: SpikedModel,
    fit: Callable[[np.ndarray], Denoiser],
    x1: np.ndarray,
    eta0_of_x0: np.ndarray,
    T: int,
) -> AmpTrajectory:
    """Run T iterations from x1 and keep every iterate and fit.

    fit maps x_t to the fitted denoiser eta_t, any object with the Denoiser
    methods eta and onsager, e.g. denoise.fit_tanh.  eta0_of_x0 is the
    step-0 convention: x1/lam for the spectrally initialized tanh pipeline,
    zero for the sparse pipeline.  model.observed must be symmetric; only its
    upper triangle is read.
    """
    steps = list(amp_steps(model, fit, x1, eta0_of_x0, T))
    fitted = [step for step in steps if step.failure is None]
    last = steps[-1]
    return AmpTrajectory(
        iterates=[step.x for step in steps],
        denoised=[step.eta for step in fitted],
        states=[step.state for step in fitted],
        onsager=[step.onsager for step in fitted],
        eta0_of_x0=np.asarray(eta0_of_x0, dtype=np.float64),
        failure=None if last.failure is None else (last.t, last.failure),
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
    """s power steps from y, renormalized every step to avoid overflow; the unit iterate.

    Only a non-finite ||M y|| searches M for a non-finite entry to name, so
    a finite run allocates no n x n mask.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    for step in range(1, s + 1):
        y = _symv(M, y)
        with np.errstate(over="ignore"):  # an overflowing norm is reported below
            nrm = _scaled_norm(y)
        if not np.isfinite(nrm):
            bad = np.argwhere(np.triu(~np.isfinite(M)))
            if bad.size:
                i, j = bad[0]
                raise ValueError(f"M[{i}, {j}] = {float(M[i, j])!r} is not finite")
            raise ValueError(f"power step {step} overflowed: ||M y|| = {nrm!r} is not finite")
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
