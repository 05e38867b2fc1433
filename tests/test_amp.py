"""AMP recursion, trajectory invariants, spectral initializer and refinement."""

import re

import numpy as np
import pytest

import spiked_amp as sa
from spiked_amp import amp, denoise


def _z2_model(n, lam, seed):
    v = sa.make_signal(sa.SignalSpec(kind="z2", n=n, seed=seed))
    return sa.make_spiked(lam, v, sa.sample_wigner(n, seed))


def test_amp_step_hand_computed():
    M = np.array([[2.0, 1.0], [1.0, 0.0]])
    eta = np.array([1.0, -1.0])
    prev = np.array([0.5, 0.5])
    out = amp.amp_step(M, eta, prev, onsager=0.25)
    np.testing.assert_allclose(out, [1.0 - 0.125, 1.0 - 0.125])


def test_amp_step_shape_checks():
    M = np.eye(3)
    with pytest.raises(ValueError):
        amp.amp_step(M, np.ones(2), np.ones(3), 0.1)
    with pytest.raises(ValueError):
        amp.amp_step(np.ones((3, 2)), np.ones(2), np.ones(2), 0.1)


def test_trajectory_recurrence_invariant(z2_run):
    # Replay: iterates[t+1] must equal M eta_t - onsager_t eta_{t-1}
    # to 1e-10, with eta_0 the declared step-0 convention.
    model, traj, _ = z2_run
    eta_prev = traj.eta0_of_x0
    for t in range(1, len(traj.iterates)):
        want = model.observed @ traj.denoised[t - 1] - traj.onsager[t - 1] * eta_prev
        err = np.linalg.norm(traj.iterates[t] - want)
        assert err < 1e-10, f"recurrence broken at t={t}: {err:.2e}"
        eta_prev = traj.denoised[t - 1]


def test_trajectory_lengths_and_states(z2_run):
    _, traj, _ = z2_run
    assert len(traj.denoised) == len(traj.iterates) == 8
    assert len(traj.states) == len(traj.onsager) == 8
    assert traj.failure is None
    for x, state in zip(traj.iterates, traj.states):
        assert abs(np.linalg.norm(denoise.apply(state, x)) - 1.0) < 1e-10


def test_run_amp_deterministic():
    model = _z2_model(80, 1.5, 21)
    init = sa.spectral_init(model.observed, 10, 21)
    a = sa.run_amp(model, "tanh-z2", 1.5 * init.x1, init.x1, 5)
    b = sa.run_amp(model, "tanh-z2", 1.5 * init.x1, init.x1, 5)
    for xa, xb in zip(a.iterates, b.iterates):
        np.testing.assert_array_equal(xa, xb)


def test_run_amp_failure_capture():
    # A soft-threshold fit with an enormous tau dies at t=1; the trajectory
    # must record the failure instead of raising, with consistent lengths.
    model = _z2_model(50, 1.2, 3)
    x1 = model.observed[:, 0] * 0.01
    traj = sa.run_amp(model, "soft-threshold", x1, np.zeros(50), 4, tau=100.0)
    assert traj.failure is not None
    t_fail, msg = traj.failure
    assert t_fail == 1
    assert "tau" in msg
    assert len(traj.iterates) == 1
    assert len(traj.denoised) == 0


def test_run_amp_rejects_bad_T():
    model = _z2_model(20, 1.2, 3)
    with pytest.raises(ValueError):
        sa.run_amp(model, "tanh-z2", np.ones(20), np.ones(20), 0)


def test_spectral_init_reconstruction():
    # M^s v_tilde, normalized, must land back on x1; small s, direct matvec oracle.
    model = _z2_model(60, 1.5, 5)
    init = sa.spectral_init(model.observed, 7, 5)
    y = init.v_tilde.copy()
    for _ in range(7):
        y = model.observed @ y
    np.testing.assert_allclose(y / np.linalg.norm(y), init.x1, atol=1e-10)
    assert abs(np.linalg.norm(init.x1) - 1.0) < 1e-10


def test_spectral_lambda_max_vs_eigh():
    # Independent oracle: full symmetric eigendecomposition.
    model = _z2_model(300, 1.5, 0)
    s = amp.default_power_steps(300, 1.5)
    init = sa.spectral_init(model.observed, s, 0)
    eig = sa.top_eigenpair(model.observed, init.x1, init.s)
    top = np.linalg.eigvalsh(model.observed)[-1]
    assert abs(eig.lambda_max - top) < 1e-9


def test_power_start_and_refinement_matvec_counts(monkeypatch):
    # the start costs s matvecs; only the refinement pays the other s + 1
    model = _z2_model(60, 1.5, 5)
    s = 7
    calls = []
    symv = amp._symv

    def counting(M, y):
        calls.append(y.shape)
        return symv(M, y)

    monkeypatch.setattr(amp, "_symv", counting)
    init = sa.spectral_init(model.observed, s, 5)
    assert len(calls) == s
    x1 = init.x1.copy()
    calls.clear()
    eig = sa.top_eigenpair(model.observed, init.x1, s)
    assert len(calls) == s + 1
    np.testing.assert_array_equal(init.x1, x1)
    # the refinement continues the same power sequence: 2s steps from v_tilde
    np.testing.assert_array_equal(eig.vhat, sa.spectral_init(model.observed, 2 * s, 5).x1)


def test_symv_matches_matmul_without_copying_M(monkeypatch):
    # C order, F order and a split complement block; dsymv must get an
    # F-contiguous view of the caller's M, never a copy
    model = _z2_model(300, 1.5, 4)
    M = model.observed
    Ic = np.sort(np.random.default_rng(1).choice(300, size=170, replace=False))
    received = []
    dsymv = amp.dsymv

    def recording(alpha, a, x, **kw):
        received.append(a)
        return dsymv(alpha, a, x, **kw)

    monkeypatch.setattr(amp, "dsymv", recording)
    rng = np.random.default_rng(2)
    for A in (M, np.asfortranarray(M), M[np.ix_(Ic, Ic)]):
        received.clear()
        y = rng.standard_normal(A.shape[0])
        got = amp._symv(A, y)
        (a,) = received
        assert a.flags.f_contiguous and np.shares_memory(a, A)
        bound = 1e-13 * np.linalg.norm(A) * np.linalg.norm(y)
        assert np.max(np.abs(got - A @ y)) <= bound


def test_default_power_steps():
    assert amp.default_power_steps(2000, 1.5) == int(
        np.ceil(8 * np.log(2000) / 0.25)
    )
    # the n/4 cap engages for lam close to 1
    assert amp.default_power_steps(100, 1.01) == 25
    # a huge lam gives one step instead of overflowing (lam - 1)^2
    assert amp.default_power_steps(100, 1e155) == 1
    # below the spectral threshold the formula has no meaning
    for lam in (1.0, 0.5, float("nan")):
        with pytest.raises(ValueError, match="lam > 1"):
            amp.default_power_steps(100, lam)


def test_spectral_rejects_bad_s():
    with pytest.raises(ValueError):
        sa.spectral_init(np.eye(4), 0, 1)
    with pytest.raises(ValueError):
        sa.top_eigenpair(np.eye(4), np.ones(4) / 2.0, 0)


@pytest.mark.parametrize("shape", [(3, 2), (4,), (2, 2, 2)])
def test_spectral_rejects_non_square_M(shape):
    M = np.ones(shape)
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        sa.spectral_init(M, 3, 1)
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        sa.top_eigenpair(M, np.ones(shape[0]) / np.sqrt(shape[0]), 3)


def test_top_eigenpair_rejects_mismatched_x1():
    with pytest.raises(ValueError, match="x1"):
        sa.top_eigenpair(np.eye(4), np.ones(3), 3)


def test_spectral_rejects_vanishing_power_step():
    # M y = 0 cannot be renormalized; it is a named failure instead
    with pytest.raises(ValueError, match="power step 1"):
        sa.spectral_init(np.zeros((4, 4)), 3, 1)
