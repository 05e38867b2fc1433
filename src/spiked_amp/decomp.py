"""Exact signal / Gaussian / residual bookkeeping for an AMP run.

Alongside a trajectory x_1..x_T this module maintains:

* an orthonormal basis z_k grown by Gram-Schmidt from the denoised iterates,
  stored as the rows of a (K, n) array `basis`,
* synthesized Gaussians phi_k = W_k z_k + zeta_k, the rows of `phis`, where
  W_k = P_k W P_k is the noise W = M - lam v* v*^T with the used directions
  projected out (P_k = I - U_k^T U_k, U_k = basis[:k], the rows z_0 .. z_{k-1})
  and zeta_k an augmentation vector; W_k z_k is one matvec with the model's M
  plus O(nk), never stored,
* and per-iteration coefficients so that

      x_{t+1} = alpha_{t+1} v* + sum_k beta_t^k phi_k + xi_t

holds exactly, with xi_t inside span(z_0.., z_t) up to float roundoff.

When the run's step-0 convention eta_0(x_0) is a multiple of x_1 (the
spectrally initialized pipeline), the basis is seeded with z_0 = x_1/||x_1||
before the loop; the exactness above then covers every recorded t, while
x_1's own expansion residual is only measured, not constructed.  The seeded
vector sits in the first row of `basis` and `offset` counts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import denoise
from ._rng import substream
from .amp import AmpTrajectory, _symv
from .model import SpikedModel

__all__ = [
    "BasisDegenerateError",
    "DecompositionLedger",
    "GaussianityReport",
    "LedgerInconsistencyError",
    "ResidualDiagnostics",
    "build_ledger",
    "coordinate_w1",
    "gaussianity_report",
    "residual_diagnostics",
]

# Coefficient of the z_k-direction variance correction in zeta_k.  The
# diagonal of W has twice the off-diagonal variance, so W_k z_k is inflated
# along z_k by exactly this factor's worth.
_DIAG_FIX = np.sqrt(2.0) / 2.0 - 1.0

_SPAN_TOL = 1e-8


class BasisDegenerateError(RuntimeError):
    """The next denoised iterate is numerically inside the current span."""


class LedgerInconsistencyError(RuntimeError):
    """The residual left the basis span: a bookkeeping bug, not statistics."""


@dataclass(frozen=True)
class DecompositionLedger:
    """A replayed run.  zeta_k's pieces, z_k . W_k z_k and the g drawn from
    substream(aux_seed, "phi-g", k), are folded into phis[k], not stored."""

    basis: np.ndarray  # (K, n), row k is z_k; K = offset + records
    phis: np.ndarray  # (K, n), row k is phi_k
    xis: np.ndarray  # (records, n), row t - 1 is xi_t
    alphas: list[float]  # alpha_{t+1} per record
    betas: list[np.ndarray]
    xi_norms: list[float]
    leaks: list[float]
    offset: int  # seeded basis vectors in front of z_1


def _apply_projected(model: SpikedModel, U: np.ndarray, z: np.ndarray) -> np.ndarray:
    """W_k z = P W P z with P = I - U^T U (orthonormal rows U), W z = M z - lam v* (v* . z).

    One matvec with M plus O(nk) work; neither W nor P W P is formed.
    """
    z = z - (U @ z) @ U
    w = _symv(model.observed, z) - model.lam * float(model.v_star @ z) * model.v_star
    return w - (U @ w) @ U


def build_ledger(
    model: SpikedModel, trajectory: AmpTrajectory, aux_seed: int
) -> DecompositionLedger:
    """Replay a finished run: one basis vector, one phi, one record per t.

    The basis is seeded with z_0 = x_1 / ||x_1|| exactly when the run's
    eta_0(x_0) is nonzero, which is when that direction is needed for the
    residuals to stay inside the span.
    """
    offset = int(np.any(trajectory.eta0_of_x0 != 0.0))
    n = model.n
    records = len(trajectory.iterates) - 1
    directions = trajectory.iterates[:offset] + trajectory.denoised[:records]
    basis = np.empty((offset + records, n))
    phis = np.empty_like(basis)
    xis = np.empty((records, n))
    alphas, betas, xi_norms, leaks = [], [], [], []
    for k, direction in enumerate(directions):
        # Gram-Schmidt against z_0..z_{k-1}; twice holds orthogonality at 1e-10
        U = basis[:k]
        r = np.array(direction, dtype=np.float64)
        for _ in range(2):
            for z in U:
                r -= (z @ r) * z
        nrm = float(np.linalg.norm(r))
        if nrm <= 1e-12:
            raise BasisDegenerateError(f"iterate is in the span of the current {k} basis vectors")
        z = basis[k] = r / nrm
        # phi_k = W_k z_k + zeta_k, with W_k projecting out z_0..z_{k-1}
        Wz = _apply_projected(model, U, z)
        q = float(z @ Wz)
        g = substream(aux_seed, "phi-g", k).normal(0.0, 1.0 / np.sqrt(n), size=k)
        phis[k] = Wz + _DIAG_FIX * q * z + g @ U

        # decompose x_{t+1} over the first offset + t = k + 1 basis vectors
        t = k + 1 - offset
        if t < 1:
            continue
        U = basis[: k + 1]
        eta_t = trajectory.denoised[t - 1]
        beta = U @ eta_t
        alpha_next = model.lam * float(model.v_star @ eta_t)
        xi = xis[t - 1] = trajectory.iterates[t] - alpha_next * model.v_star - beta @ phis[: k + 1]
        leak = float(np.linalg.norm(xi - (U @ xi) @ U))
        if leak > _SPAN_TOL:
            raise LedgerInconsistencyError(
                f"xi_{t} leaks {leak:.3e} outside the basis span (tolerance {_SPAN_TOL:g})"
            )
        alphas.append(alpha_next)
        betas.append(beta)
        xi_norms.append(float(np.linalg.norm(xi)))
        leaks.append(leak)
    return DecompositionLedger(
        basis=basis, phis=phis, xis=xis, alphas=alphas, betas=betas, xi_norms=xi_norms,
        leaks=leaks, offset=offset,
    )


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class GaussianityReport:
    max_phi_corr: float
    w1_mixed: float


def coordinate_w1(x: np.ndarray, var: float) -> float:
    """W1 distance of the empirical coordinate law to N(0, var).

    Sorted-quantile coupling: both laws are matched at the (i - 1/2)/n
    quantiles, which is the optimal transport plan in one dimension.
    """
    n = x.shape[0]
    q = ndtri((np.arange(1, n + 1) - 0.5) / n) * np.sqrt(var)
    return float(np.mean(np.abs(np.sort(x) - q)))


def gaussianity_report(ledger: DecompositionLedger, t: int) -> GaussianityReport:
    """Correlation and W1 summaries of the synthesized phis at iteration t.

    The report covers the ledger's state just after iteration t was recorded:
    the first offset + t phis, and beta_t for the mix.  t = len(ledger.betas)
    is the full ledger.
    """
    if t < 1 or t > len(ledger.betas):
        raise ValueError(f"no recorded iteration {t}")
    upto = ledger.offset + t
    if upto < 2:
        raise ValueError("need at least two phi vectors")
    Phi = ledger.phis[:upto]
    beta = ledger.betas[t - 1]
    gram = Phi @ Phi.T
    off = gram[~np.eye(upto, dtype=bool)]
    mixed = beta @ Phi / np.linalg.norm(beta)
    return GaussianityReport(
        max_phi_corr=float(np.max(np.abs(off))),
        w1_mixed=coordinate_w1(mixed, 1.0 / Phi.shape[1]),
    )


@dataclass(frozen=True)
class ResidualDiagnostics:
    delta_norm: float
    delta_prime_avg: float
    Delta_abs: float
    mu: np.ndarray


def residual_diagnostics(
    ledger: DecompositionLedger,
    model: SpikedModel,
    trajectory: AmpTrajectory,
    t: int,
) -> ResidualDiagnostics:
    """Size up the residual recursion's driving terms at iteration t.

    v_t is the iterate with its own residual removed; delta_t measures how
    far the denoiser moves when that residual is added back, and Delta_t is
    the centered cross term between the residual direction and the phis.
    """
    if t < 1 or t > len(ledger.xis):
        raise ValueError(f"no recorded decomposition for iteration {t}")
    eta_prev = trajectory.denoised[t - 2] if t >= 2 else trajectory.eta0_of_x0
    L_prev = ledger.offset + t - 1
    L = ledger.offset + t
    alpha_t = model.lam * float(model.v_star @ eta_prev)
    beta_prev = ledger.basis[:L_prev] @ eta_prev
    v_t = alpha_t * model.v_star + beta_prev @ ledger.phis[:L_prev]

    state = trajectory.states[t - 1]  # the state fitted on x_t
    eta_v = denoise.apply(state, v_t)
    delta = trajectory.denoised[t - 1] - eta_v
    eta_v_prime = denoise.derivative_avg(state, v_t)
    delta_prime = trajectory.onsager[t - 1] - eta_v_prime

    mu = ledger.basis[:L] @ ledger.xis[t - 1] / ledger.xi_norms[t - 1]
    Delta = mu[:L_prev] @ (ledger.phis[:L_prev] @ eta_v - eta_v_prime * beta_prev)
    return ResidualDiagnostics(
        delta_norm=float(np.linalg.norm(delta)),
        delta_prime_avg=float(delta_prime),
        Delta_abs=abs(float(Delta)),
        mu=mu,
    )
