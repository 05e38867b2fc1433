"""The AMP engine: the step generator and the full runs it collects, and
the spectral start, a Lanczos run that gives the top eigenpair of M.

Every product with the symmetric M goes through one BLAS kernel, `_symv`
(`_lapack.symv`, dsymv of numpy's OpenBLAS), which reads only M's upper
triangle in place: M is stored as its upper triangle, in rows padded to
page-aligned diagonals (model.sample_wigner), and whatever lies below the
diagonal or in the padding is never read.

A run owns nothing random and names no denoiser; the model, the denoiser's
fit, the starting point and the step-0 convention eta_0(x_0) are all passed
in, so the same trajectory is reproducible from its inputs alone.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._lapack import symv as _symv, tridiagonal_top
from ._rng import substream
from .denoise import DegenerateIterateError, Denoiser, _scaled_norm
from .model import SpikedModel, _mapped_zeros

__all__ = [
    "AmpStep",
    "AmpTrajectory",
    "SpectralInit",
    "amp_steps",
    "run_amp",
    "spectral_init",
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
    Arguments are those of run_amp.  T < 1, or an x1 or eta0_of_x0 not of
    shape (n,), raises ValueError at the first step, before any fit.
    x_{t+1} = M eta_t - <eta_t'> eta_{t-1}; model.observed is stored as its
    upper triangle, and only that is read.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    M = model.observed
    x = np.asarray(x1, dtype=np.float64)
    eta_prev = np.asarray(eta0_of_x0, dtype=np.float64)
    n = M.shape[0]
    if x.shape != (n,) or eta_prev.shape != (n,):
        raise ValueError(f"x1 has shape {x.shape} and eta0_of_x0 {eta_prev.shape}, "
                         f"M has shape {M.shape}")
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
            x = _symv(M, eta) - ons * eta_prev
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
    zero for the sparse pipeline.  model.observed is stored as its upper
    triangle; only that is read.
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


# The Lanczos start stops once its Ritz residual is at most this times |theta|.
_RITZ_TOL = 1e-12


@dataclass(frozen=True)
class SpectralInit:
    """Output of the Lanczos initializer.

    x1 is the unit top Ritz vector of M, signed so that <x1, v> > 0 for the
    random unit start v (the sign that power steps from v converge to when
    the top eigenvalue is also the largest in magnitude), and lambda_max is
    its Ritz value.  s is the number of matvecs done: the run stops once the
    Ritz residual ||M x1 - lambda_max x1|| is at most 1e-12 |lambda_max|, or
    when the Krylov space fills R^n.  Any SNR rescaling is the caller's job.
    """

    x1: np.ndarray
    s: int
    lambda_max: float


def spectral_init(M: np.ndarray, seed: int) -> SpectralInit:
    """The top eigenpair of M (see SpectralInit) by Lanczos from the random
    unit vector v of substream(seed, "spectral-start").

    Every Lanczos vector is reorthogonalized against the stored basis by
    CGS2.  The run stops once the Ritz residual ||M x - theta x|| =
    beta_m |e_m^T s| is at most _RITZ_TOL |theta|, which includes an
    invariant Krylov space (beta_m = 0, an exact pair), or once the Krylov
    space fills R^n.  The tridiagonal is divided by ||M v|| before LAPACK
    sees it, so entries near the float64 limit do not overflow its squares.
    Only a non-finite ||M q|| searches M for a non-finite entry to name, so
    a finite run allocates no n x n mask.  Only M's upper triangle is read.
    The split oracle calls it on its block (sparse_init._block_top).
    """
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise ValueError(f"M must be a nonempty square 2-D matrix, got shape {M.shape}")
    n = M.shape[0]
    v = substream(seed, "spectral-start").standard_normal(n)
    v /= np.linalg.norm(v)
    # A mapped basis commits a row's pages only when the row is written.
    # np.empty advises huge pages from 4 MB on, which commit 2 MB at a time.
    Q = _mapped_zeros(n, n)
    Q[0] = v
    alpha: list[float] = []
    beta: list[float] = []
    for j in range(n):
        w = _symv(M, Q[j])
        with np.errstate(over="ignore"):  # an overflowing norm is reported below
            nrm = _scaled_norm(w)
        if not np.isfinite(nrm):
            bad = np.argwhere(np.triu(~np.isfinite(M)))
            if bad.size:
                i, k = bad[0]
                raise ValueError(f"M[{i}, {k}] = {float(M[i, k])!r} is not finite")
            raise ValueError(f"Lanczos step {j + 1} overflowed: ||M q|| = {nrm!r} is not finite")
        if j == 0:
            if nrm == 0.0:
                raise ValueError(
                    "Lanczos step 1 gave ||M v|| = 0 (the start vector is in M's null space)"
                )
            scale = nrm
        basis = Q[: j + 1]
        h = basis @ w
        w -= h @ basis
        h2 = basis @ w
        w -= h2 @ basis
        alpha.append((h[j] + h2[j]) / scale)
        w_norm = _scaled_norm(w)
        theta, s = tridiagonal_top(alpha, beta)
        b = w_norm / scale
        if b * abs(s[-1]) <= _RITZ_TOL * abs(theta) or j + 1 == n:
            break  # before the division: a vanishing w_norm always stops here
        beta.append(b)
        Q[j + 1] = w / w_norm
    x = s @ basis
    x /= np.linalg.norm(x)
    if x @ v < 0.0:
        x = -x
    return SpectralInit(x1=x, s=j + 1, lambda_max=theta * scale)
