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

The same pass records the audit of each t: the residual's drivers delta_t
and Delta_t, the largest phi correlation so far and the mixed iterate's W1
distance to N(0, 1/n) (see DecompositionLedger).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ._rng import substream
from .amp import AmpTrajectory, _symv
from .model import SpikedModel

__all__ = [
    "BasisDegenerateError",
    "DecompositionLedger",
    "LedgerInconsistencyError",
    "build_ledger",
    "coordinate_w1",
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
    """A replayed run and its audit, one entry per record t = 1..records.

    zeta_k's pieces, z_k . W_k z_k and the g drawn from
    substream(aux_seed, "phi-g", k), are folded into phis[k], not stored.
    The audit sizes up the residual's drivers at t with the denoiser fitted
    on x_t, trajectory.states[t - 1].  v_t = alpha_t v* + beta_{t-1} Phi is
    the iterate with its residual xi_{t-1} removed (alpha_1 and beta_0 come
    from eta_0(x_0)), and mu_t = U xi_t / ||xi_t|| is xi_t's direction in the
    basis:

    * delta_norms: ||eta_t(x_t) - eta_t(v_t)||, how far the denoiser moves
      when the residual is added back;
    * Delta_abs: |mu_t[:L-1] . (Phi eta_t(v_t) - eta_t'(v_t) beta_{t-1})|
      with L = offset + t, the centered cross term between the residual
      direction and the phis;
    * max_phi_corr: the largest |phi_j . phi_k| over j != k < offset + t;
      NaN while the ledger holds a single phi (offset 0, t = 1);
    * w1_mixed: coordinate_w1(beta_t Phi / ||beta_t||, 1/n), the mixed
      iterate against N(0, 1/n).
    """

    basis: np.ndarray  # (K, n), row k is z_k; K = offset + records
    phis: np.ndarray  # (K, n), row k is phi_k
    xis: np.ndarray  # (records, n), row t - 1 is xi_t
    alphas: list[float]  # alpha_{t+1} per record
    betas: list[np.ndarray]
    xi_norms: list[float]
    leaks: list[float]
    offset: int  # seeded basis vectors in front of z_1
    delta_norms: list[float]
    Delta_abs: list[float]
    max_phi_corr: list[float]
    w1_mixed: list[float]


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
    residuals to stay inside the span.  Each record also appends its audit
    entries, at O(t n) on top of the expansion: one new Gram row for the phi
    correlations, and v_{t+1} from the same alpha and beta_t Phi as xi_t.
    """
    offset = int(np.any(trajectory.eta0_of_x0 != 0.0))
    n = model.n
    records = len(trajectory.iterates) - 1
    directions = trajectory.iterates[:offset] + trajectory.denoised[:records]
    basis = np.empty((offset + records, n))
    phis = np.empty_like(basis)
    xis = np.empty((records, n))
    alphas, betas, xi_norms, leaks = [], [], [], []
    delta_norms, Delta_abs, max_phi_corr, w1_mixed = [], [], [], []
    corr = 0.0
    for k, direction in enumerate(directions):
        # Gram-Schmidt against z_0..z_{k-1} in two block passes (CGS2), which
        # hold orthogonality at 1e-10
        U = basis[:k]
        r = np.array(direction, dtype=np.float64)
        for _ in range(2):
            r -= (U @ r) @ U
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
        if t == 1:  # v_1 from eta_0(x_0); every later v_t is carried over
            eta0 = trajectory.eta0_of_x0
            beta_prev = U @ eta0
            v = model.lam * float(model.v_star @ eta0) * model.v_star + beta_prev @ phis[:k]
        state = trajectory.states[t - 1]  # the denoiser fitted on x_t
        eta_v = state.eta(v)
        eta_v_prime = state.onsager(v)
        eta_t = trajectory.denoised[t - 1]
        U = basis[: k + 1]
        beta = U @ eta_t
        alpha_next = model.lam * float(model.v_star @ eta_t)
        signal = alpha_next * model.v_star
        frame = beta @ phis[: k + 1]
        xi = xis[t - 1] = trajectory.iterates[t] - signal - frame
        coords = U @ xi
        leak = float(np.linalg.norm(xi - coords @ U))
        if leak > _SPAN_TOL:
            raise LedgerInconsistencyError(
                f"xi_{t} leaks {leak:.3e} outside the basis span (tolerance {_SPAN_TOL:g})"
            )
        xi_norm = float(np.linalg.norm(xi))
        mu = coords / xi_norm
        if k:
            corr = max(corr, float(np.max(np.abs(phis[:k] @ phis[k]))))
        alphas.append(alpha_next)
        betas.append(beta)
        xi_norms.append(xi_norm)
        leaks.append(leak)
        delta_norms.append(float(np.linalg.norm(eta_t - eta_v)))
        Delta_abs.append(abs(float(mu[:k] @ (phis[:k] @ eta_v - eta_v_prime * beta_prev))))
        max_phi_corr.append(corr if k else float("nan"))
        w1_mixed.append(coordinate_w1(frame / np.linalg.norm(beta), 1.0 / n))
        beta_prev, v = beta, signal + frame
    return DecompositionLedger(
        basis=basis, phis=phis, xis=xis, alphas=alphas, betas=betas, xi_norms=xi_norms,
        leaks=leaks, offset=offset, delta_norms=delta_norms, Delta_abs=Delta_abs,
        max_phi_corr=max_phi_corr, w1_mixed=w1_mixed,
    )


def coordinate_w1(x: np.ndarray, var: float) -> float:
    """W1 distance of the empirical coordinate law to N(0, var).

    Sorted-quantile coupling: both laws are matched at the (i - 1/2)/n
    quantiles, which is the optimal transport plan in one dimension.
    """
    n = x.shape[0]
    q = ndtri((np.arange(1, n + 1) - 0.5) / n) * np.sqrt(var)
    return float(np.mean(np.abs(np.sort(x) - q)))
