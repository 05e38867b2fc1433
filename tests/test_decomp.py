"""Decomposition ledger: exactness identities, projections, diagnostics.

The two strong oracles, both derived from the construction itself and
verified term by term:

* coordinate identity: xi_t's projection on each basis vector equals a
  closed-form combination of the stored phis, Onsager term, diagonal
  corrections and auxiliary Gaussians, at float precision;
* base case: a run with eta_0(x_0) = 0 has xi_1 = -beta_1^1 zeta_1 exactly.

Everything else (span containment, reconstruction, Gram-Schmidt posts)
follows the module contract directly.
"""

import numpy as np
import pytest
from scipy import stats

import spiked_amp as sa
from spiked_amp import decomp
from spiked_amp._rng import substream

from conftest import dense

SQ2H = np.sqrt(2.0) / 2.0 - 1.0

# the aux_seed each conftest fixture builds its ledger with
Z2_AUX, SPARSE_AUX = 4242, 777

_apply_projected = decomp._apply_projected


def _zeta_parts(model, ledger, aux_seed):
    """The raw pieces of every zeta_k, recomputed: g_k and q_k = z_k . W_k z_k."""
    gs, zwz = [], []
    for k, z in enumerate(ledger.basis):
        gs.append(substream(aux_seed, "phi-g", k).normal(0.0, 1.0 / np.sqrt(model.n), size=k))
        zwz.append(float(z @ _apply_projected(model, ledger.basis[:k], z)))
    return gs, zwz


def _leaky_projection(model, U, z):
    # adds a direction outside every basis span to each phi_k
    return _apply_projected(model, U, z) + 0.05 * np.ones(model.n)


def _coordinate_identity_err(ledger, traj, t, gs, zwz):
    """Worst |xi_t . z_j - predicted| over ledger entries j, from scratch."""
    L = ledger.offset + t
    eta_t = traj.denoised[t - 1]
    eta_prev = traj.denoised[t - 2] if t >= 2 else traj.eta0_of_x0
    b_t = traj.onsager[t - 1]
    xi = ledger.xis[t - 1]
    beta = ledger.betas[t - 1]
    worst = 0.0
    for j in range(L):
        z_j = ledger.basis[j]
        if j == L - 1:
            pred = -SQ2H * beta[j] * zwz[j]
        else:
            pred = (
                float(ledger.phis[j] @ eta_t)
                - b_t * float(z_j @ eta_prev)
                - (np.sqrt(2.0) - 1.0) * beta[j] * zwz[j]
                - sum(beta[i] * gs[j][i] for i in range(j))
                - sum(beta[i] * gs[i][j] for i in range(j + 1, L))
            )
        worst = max(worst, abs(float(xi @ z_j) - pred))
    return worst


# ---------------------------------------------------------------------------
# basis and projection mechanics


def test_extend_basis_orthonormal(z2_run):
    _, _, ledger = z2_run
    U = np.stack(ledger.basis, axis=1)
    gram = U.T @ U
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-12


def test_extend_basis_degenerate_error():
    # A spectral run needs T orthonormal vectors in R^n; at n = 6, T = 10
    # the seventh Gram-Schmidt residual is numerically zero.
    n, lam, T, seed = 6, 1.5, 10, 1
    v = sa.make_signal(kind="z2", n=n, seed=seed)
    model = sa.make_spiked(lam, v, sa.sample_wigner(n, seed))
    init = sa.spectral_init(model.observed, seed)
    traj = sa.run_amp(model, sa.fit_tanh, lam * init.x1, init.x1, T)
    assert traj.failure is None
    with pytest.raises(decomp.BasisDegenerateError):
        decomp.build_ledger(model, traj, aux_seed=0)


def test_projected_operator_annihilates_folded_directions(z2_run):
    model, _, ledger = z2_run
    for z in ledger.basis:
        assert np.linalg.norm(decomp._apply_projected(model, ledger.basis, z)) < 1e-12


def test_projection_with_basis_vector_e1():
    # z_1 = e_1 makes the projected matrix's first row and column vanish.
    v = sa.make_signal(kind="z2", n=12, seed=1)
    model = sa.make_spiked(1.5, v, sa.sample_wigner(12, 1))
    U = np.eye(12)[:1]
    W1 = np.column_stack([decomp._apply_projected(model, U, e) for e in np.eye(12)])
    assert np.max(np.abs(W1[0, :])) < 1e-14
    assert np.max(np.abs(W1[:, 0])) < 1e-14


def test_phi_recomputes_from_parts(z2_run):
    # phi_k = W_k z_k + zeta_k for every k, against a dense
    # W_k = (I - U U^T) W (I - U U^T) with U = [z_0 .. z_{k-1}], and zeta_k
    # from the recomputed q and g values.  W is resampled with the fixture's seed.
    model, _, ledger = z2_run
    n = model.n
    gs, zwz = _zeta_parts(model, ledger, Z2_AUX)
    W = dense(sa.sample_wigner(n, 7))
    np.testing.assert_array_equal(dense(model.observed),
                                  model.lam * np.outer(model.v_star, model.v_star) + W)
    for k, z in enumerate(ledger.basis):
        U = np.stack(ledger.basis[:k], axis=1) if k else np.zeros((n, 0))
        P = np.eye(n) - U @ U.T
        Wz = P @ W @ P @ z
        assert abs(zwz[k] - float(z @ Wz)) < 1e-12
        want = Wz + SQ2H * zwz[k] * z
        for i in range(k):
            want = want + gs[k][i] * ledger.basis[i]
        np.testing.assert_allclose(ledger.phis[k], want, atol=1e-12)


def test_aux_stream_reproducible(z2_run):
    # the last phi, rebuilt with its g drawn afresh from the aux substream,
    # is bit-identical to the stored one
    model, _, ledger = z2_run
    k = len(ledger.basis) - 1
    z, U = ledger.basis[k], ledger.basis[:k]
    g = substream(Z2_AUX, "phi-g", k).normal(0.0, 1.0 / np.sqrt(400), size=k)
    Wz = _apply_projected(model, U, z)
    np.testing.assert_array_equal(ledger.phis[k], Wz + SQ2H * float(z @ Wz) * z + g @ U)


# ---------------------------------------------------------------------------
# decomposition exactness


def test_reconstruction_exact(z2_run):
    model, traj, ledger = z2_run
    for t in range(1, len(ledger.xis) + 1):
        L = ledger.offset + t
        Phi = np.stack(ledger.phis[:L], axis=1)
        recon = (
            ledger.alphas[t - 1] * model.v_star
            + Phi @ ledger.betas[t - 1]
            + ledger.xis[t - 1]
        )
        rel = np.linalg.norm(recon - traj.iterates[t]) / np.linalg.norm(
            traj.iterates[t]
        )
        assert rel < 1e-12


def test_span_leak_machine_precision(z2_run):
    _, _, ledger = z2_run
    assert max(ledger.leaks) < 1e-12


def test_beta_norm_equals_denoised_norm(z2_run):
    _, traj, ledger = z2_run
    for t in range(1, len(ledger.betas) + 1):
        want = np.linalg.norm(traj.denoised[t - 1])
        assert abs(np.linalg.norm(ledger.betas[t - 1]) - want) < 1e-10


def test_offsets_by_pipeline(z2_run, sparse_run):
    assert z2_run[2].offset == 1   # eta_0 proportional to x_1 seeds z_0
    assert sparse_run[2].offset == 0
    # one row of basis and of phis per seeded vector and per record
    for model, _, ledger in (z2_run, sparse_run):
        assert ledger.basis.shape == ledger.phis.shape == (ledger.offset + len(ledger.xis), model.n)


def test_base_case_xi1_plain(sparse_run):
    # eta_0 = 0 run: xi_1 = -beta_1^1 zeta_1 with nothing else left over.
    model, _, ledger = sparse_run
    _, zwz = _zeta_parts(model, ledger, SPARSE_AUX)
    zeta0 = SQ2H * zwz[0] * ledger.basis[0]
    want = -ledger.betas[0][0] * zeta0
    assert np.linalg.norm(ledger.xis[0] - want) < 1e-12


def test_coordinate_identity_spectral(z2_run):
    model, traj, ledger = z2_run
    gs, zwz = _zeta_parts(model, ledger, Z2_AUX)
    worst = max(
        _coordinate_identity_err(ledger, traj, t, gs, zwz)
        for t in range(1, len(ledger.xis) + 1)
    )
    assert worst < 1e-12


def test_coordinate_identity_plain(sparse_run):
    model, traj, ledger = sparse_run
    gs, zwz = _zeta_parts(model, ledger, SPARSE_AUX)
    worst = max(
        _coordinate_identity_err(ledger, traj, t, gs, zwz)
        for t in range(1, len(ledger.xis) + 1)
    )
    assert worst < 1e-12


def test_inconsistency_detected(z2_run, monkeypatch):
    # Corrupting the synthesized phis breaks span containment and must raise.
    model, traj, _ = z2_run
    monkeypatch.setattr(decomp, "_apply_projected", _leaky_projection)
    with pytest.raises(decomp.LedgerInconsistencyError):
        decomp.build_ledger(model, traj, aux_seed=1)


# ---------------------------------------------------------------------------
# diagnostics


def test_residual_diagnostics_consistency(z2_run, sparse_run):
    # every recorded t of both pipelines: delta_t and Delta_t recomputed
    # from v_t, beta_{t-1} and mu_t built here term by term
    for model, traj, ledger in (z2_run, sparse_run):
        for t in range(1, len(ledger.xis) + 1):
            L_prev = ledger.offset + t - 1
            L = ledger.offset + t

            # mu recompute + unit norm (xi lies in the span, so projections
            # carry all of it)
            xi = ledger.xis[t - 1]
            mu = np.array([ledger.basis[j] @ xi for j in range(L)]) / ledger.xi_norms[t - 1]
            assert abs(np.linalg.norm(mu) - 1.0) < 1e-10

            # v_t / delta_t recompute with the trajectory's own fitted state
            eta_prev = traj.denoised[t - 2] if t >= 2 else traj.eta0_of_x0
            alpha_t = model.lam * float(model.v_star @ eta_prev)
            beta_prev = np.array([ledger.basis[j] @ eta_prev for j in range(L_prev)])
            v_t = alpha_t * model.v_star
            if L_prev:
                v_t = v_t + np.stack(ledger.phis[:L_prev], axis=1) @ beta_prev
            state = traj.states[t - 1]
            delta = traj.denoised[t - 1] - state.eta(v_t)
            assert ledger.delta_norms[t - 1] == pytest.approx(np.linalg.norm(delta), abs=1e-12)

            eta_v_prime = state.onsager(v_t)
            Delta = sum(
                mu[k] * (float(ledger.phis[k] @ state.eta(v_t)) - eta_v_prime * beta_prev[k])
                for k in range(L_prev)
            )
            assert ledger.Delta_abs[t - 1] == pytest.approx(abs(Delta), abs=1e-12)


def test_norm_identity_regrouped(z2_run, sparse_run):
    # ||xi_t|| equals the regrouped sum of its driving terms, exactly.
    # This exercises every stored object at once: phis, betas at two times,
    # the Onsager split and Delta_t, with zeta_k rebuilt from zwz and the g's.
    for (model, traj, ledger), aux_seed in ((z2_run, Z2_AUX), (sparse_run, SPARSE_AUX)):
        gs, zwz = _zeta_parts(model, ledger, aux_seed)
        for t in range(2, len(ledger.xis) + 1):
            L = ledger.offset + t
            L_prev = L - 1
            eta_t = traj.denoised[t - 1]
            eta_prev = traj.denoised[t - 2] if t >= 2 else traj.eta0_of_x0
            beta = ledger.betas[t - 1]
            xi = ledger.xis[t - 1]
            nrm = ledger.xi_norms[t - 1]
            mu = np.array([ledger.basis[j] @ xi for j in range(L)]) / nrm

            state = traj.states[t - 1]
            beta_prev = np.array(
                [ledger.basis[j] @ eta_prev for j in range(L_prev)]
            )
            alpha_t = model.lam * float(model.v_star @ eta_prev)
            v_t = alpha_t * model.v_star
            if L_prev:
                v_t = v_t + np.stack(ledger.phis[:L_prev], axis=1) @ beta_prev
            eta_v = state.eta(v_t)
            delta = eta_t - eta_v
            dp = traj.onsager[t - 1] - state.onsager(v_t)
            evp = state.onsager(v_t)

            Delta = sum(
                mu[k] * (float(ledger.phis[k] @ eta_v) - evp * beta_prev[k])
                for k in range(L_prev)
            )
            total = Delta - SQ2H * beta[L - 1] * mu[L - 1] * zwz[L - 1]
            for j in range(L_prev):
                total += mu[j] * (
                    float(ledger.phis[j] @ delta)
                    - dp * beta_prev[j]
                    - (np.sqrt(2.0) - 1.0) * beta[j] * zwz[j]
                    - sum(beta[i] * gs[j][i] for i in range(j))
                    - sum(beta[i] * gs[i][j] for i in range(j + 1, L))
                )
            assert abs(total - nrm) < 1e-12, f"t={t}: {abs(total - nrm):.2e}"


# ---------------------------------------------------------------------------
# gaussianity report


def test_coordinate_w1_shift_oracle():
    # For the optimal 1-d coupling, shifting a perfectly Gaussian sample by
    # c moves W1 by exactly |c|.
    n = 500
    exact = stats.norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    assert decomp.coordinate_w1(exact, 1.0) < 1e-12
    assert decomp.coordinate_w1(exact + 0.3, 1.0) == pytest.approx(0.3, abs=1e-12)
    # variance rescaling: same sample against the scaled reference
    assert decomp.coordinate_w1(2.0 * exact, 4.0) < 1e-12


def test_gaussianity_report_fields(z2_run):
    _, _, ledger = z2_run
    n = 400
    # healthy band for this fixture: fresh Gaussian coordinates sit near
    # 0.05/sqrt(n); the spectrally seeded phi_0 carries eigenvector
    # structure and reaches ~0.22/sqrt(n) here, so the band is generous
    assert all(decomp.coordinate_w1(phi, 1.0 / n) < 0.5 / np.sqrt(n) for phi in ledger.phis)
    assert ledger.w1_mixed[-1] < 0.4 / np.sqrt(n)
    assert ledger.max_phi_corr[-1] < 12.0 / np.sqrt(n)


def test_gaussianity_report_prefix(z2_run, sparse_run):
    # record t covers the first offset + t phis and beta_t, at every t
    for model, _, ledger in (z2_run, sparse_run):
        for t in range(1, len(ledger.betas) + 1):
            upto = ledger.offset + t
            Phi = np.stack(ledger.phis[:upto], axis=1)
            beta = ledger.betas[t - 1]
            w1 = decomp.coordinate_w1(Phi @ beta / np.linalg.norm(beta), 1.0 / model.n)
            assert ledger.w1_mixed[t - 1] == pytest.approx(w1, abs=1e-15)
            if upto < 2:
                continue
            gram = Phi.T @ Phi
            off = gram[~np.eye(upto, dtype=bool)]
            assert ledger.max_phi_corr[t - 1] == pytest.approx(np.max(np.abs(off)), abs=1e-15)


def test_gaussianity_report_needs_two(sparse_run):
    # a T = 2 run with eta_0 = 0 leaves a ledger with a single phi, which
    # has no pair to correlate
    model, traj, _ = sparse_run
    tau = traj.states[0].tau
    short = sa.run_amp(model, lambda x: sa.fit_soft_threshold(x, tau), traj.iterates[0],
                       traj.eta0_of_x0, 2)
    ledger = decomp.build_ledger(model, short, aux_seed=0)
    assert len(ledger.phis) == 1
    assert np.isnan(ledger.max_phi_corr[0])
    assert np.isfinite(ledger.w1_mixed[0])


def test_alpha_recompute_dual_route(z2_run):
    model, traj, ledger = z2_run
    for t in range(1, len(ledger.alphas) + 1):
        want = model.lam * float(model.v_star @ traj.denoised[t - 1])
        assert abs(ledger.alphas[t - 1] - want) < 1e-12


def test_delta_lipschitz_bound(z2_run):
    # x_t - v_t = xi_{t-1} exactly, and the fitted tanh map has Lipschitz
    # constant gamma * pi, so ||delta_t|| <= gamma_t pi_t ||xi_{t-1}||
    model, traj, ledger = z2_run
    for t in range(2, len(ledger.xis) + 1):
        state = traj.states[t - 1]
        cap = state.gamma * state.pi * ledger.xi_norms[t - 2]
        assert ledger.delta_norms[t - 1] <= cap + 1e-12
