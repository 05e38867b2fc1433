"""AMP recursion, trajectory invariants and the Lanczos spectral initializer."""

import re
from dataclasses import dataclass

import numpy as np
import pytest

import spiked_amp as sa
from spiked_amp import amp, denoise
from spiked_amp._rng import substream

from conftest import dense


def _z2_model(n, lam, seed):
    v = sa.make_signal(kind="z2", n=n, seed=seed)
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
        want = dense(model.observed) @ traj.denoised[t - 1] - traj.onsager[t - 1] * eta_prev
        err = np.linalg.norm(traj.iterates[t] - want)
        assert err < 1e-10, f"recurrence broken at t={t}: {err:.2e}"
        eta_prev = traj.denoised[t - 1]


def test_trajectory_lengths_and_states(z2_run):
    _, traj, _ = z2_run
    assert len(traj.denoised) == len(traj.iterates) == 8
    assert len(traj.states) == len(traj.onsager) == 8
    assert traj.failure is None
    for x, state in zip(traj.iterates, traj.states):
        assert abs(np.linalg.norm(state.eta(x)) - 1.0) < 1e-10


def test_run_amp_deterministic():
    model = _z2_model(80, 1.5, 21)
    init = sa.spectral_init(model.observed, 21)
    a = sa.run_amp(model, sa.fit_tanh, 1.5 * init.x1, init.x1, 5)
    b = sa.run_amp(model, sa.fit_tanh, 1.5 * init.x1, init.x1, 5)
    for xa, xb in zip(a.iterates, b.iterates):
        np.testing.assert_array_equal(xa, xb)


def test_run_amp_failure_capture():
    # A soft-threshold fit with an enormous tau dies at t=1; the trajectory
    # must record the failure instead of raising, with consistent lengths.
    model = _z2_model(50, 1.2, 3)
    x1 = dense(model.observed)[:, 0] * 0.01
    traj = sa.run_amp(model, lambda x: sa.fit_soft_threshold(x, 100.0), x1, np.zeros(50), 4)
    assert traj.failure is not None
    t_fail, msg = traj.failure
    assert t_fail == 1
    assert "tau" in msg
    assert len(traj.iterates) == 1
    assert len(traj.denoised) == 0


def test_amp_steps_fits_each_iterate_once():
    # the engine calls the given fit once per x_t, in order, on the array it
    # yields, and the step carries the state that call returned
    model = _z2_model(80, 1.5, 21)
    init = sa.spectral_init(model.observed, 21)
    seen, states = [], []

    def fit(x):
        seen.append(x)
        states.append(denoise.fit_tanh(x))
        return states[-1]

    steps = sa.amp_steps(model, fit, 1.5 * init.x1, init.x1, 5)
    first = next(steps)
    assert len(seen) == 1 and first.x is seen[0]
    rest = list(steps)
    assert [s.t for s in rest] == [2, 3, 4, 5] and len(seen) == 5
    for step in (first, *rest):
        assert step.x is seen[step.t - 1]
        assert step.state is states[step.t - 1]
        np.testing.assert_array_equal(step.eta, step.state.eta(step.x))


@dataclass(frozen=True)
class _Arctan:
    """eta(x) = gamma arctan(c x), a denoiser the package does not ship."""

    c: float
    gamma: float

    def eta(self, x):
        return self.gamma * np.arctan(self.c * x)

    def onsager(self, x):
        return float(np.mean(self.gamma * self.c / (1.0 + (self.c * x) ** 2)))


def _fit_arctan(x):
    c = np.sqrt(x.size)
    return _Arctan(c, 1.0 / float(np.linalg.norm(np.arctan(c * x))))


def test_engine_runs_any_denoiser():
    # the loop, the ledger and the diagnostics use only the Denoiser methods
    # eta and onsager, so a denoiser defined outside the package runs through
    model = _z2_model(120, 1.5, 5)
    init = sa.spectral_init(model.observed, 5)
    steps = list(sa.amp_steps(model, _fit_arctan, 1.5 * init.x1, init.x1, 6))
    assert [s.failure for s in steps] == [None] * 6
    for step in steps:
        assert isinstance(step.state, _Arctan)
        np.testing.assert_array_equal(step.eta, step.state.eta(step.x))
        assert step.onsager == step.state.onsager(step.x)
    traj = sa.run_amp(model, _fit_arctan, 1.5 * init.x1, init.x1, 6)
    assert traj.failure is None and traj.states == [s.state for s in steps]
    for x, eta, step in zip(traj.iterates, traj.denoised, steps):
        np.testing.assert_array_equal(x, step.x)
        np.testing.assert_array_equal(eta, step.eta)
    ledger = sa.build_ledger(model, traj, aux_seed=9)
    assert len(ledger.delta_norms) == len(ledger.Delta_abs) == len(ledger.xis)
    assert np.isfinite([ledger.delta_norms, ledger.Delta_abs]).all()


def test_failing_fit_still_hands_out_its_iterate():
    # the fit of x_3 degenerates: the generator yields x_3 with the failure
    # and stops, and run_amp keeps x_3 but no fit of it
    model = _z2_model(80, 1.5, 21)
    init = sa.spectral_init(model.observed, 21)
    calls = []

    def failing(x):
        calls.append(x)
        if len(calls) == 3:
            raise denoise.DegenerateIterateError("synthetic degenerate fit")
        return denoise.fit_tanh(x)

    steps = list(sa.amp_steps(model, failing, 1.5 * init.x1, init.x1, 6))
    assert [s.t for s in steps] == [1, 2, 3]
    assert steps[-1].x is calls[2]
    assert steps[-1][2:] == (None, None, None, "synthetic degenerate fit")
    calls.clear()
    traj = sa.run_amp(model, failing, 1.5 * init.x1, init.x1, 6)
    assert traj.failure == (3, "synthetic degenerate fit")
    assert len(traj.iterates) == 3 and traj.iterates[2] is calls[2]
    assert len(traj.denoised) == len(traj.states) == len(traj.onsager) == 2


def test_run_amp_rejects_bad_T():
    model = _z2_model(20, 1.2, 3)
    with pytest.raises(ValueError):
        sa.run_amp(model, sa.fit_tanh, np.ones(20), np.ones(20), 0)


@pytest.mark.parametrize("n, lam", [pytest.param(1000, 1.2, id="1.2"),
                                    pytest.param(1000, 1.5, id="1.5"),
                                    pytest.param(100, 1.5, id="1.5-n100"),
                                    pytest.param(1000, 3.0, id="3.0")])
def test_spectral_init_is_the_top_eigenpair(n, lam):
    # Independent oracle: full symmetric eigendecomposition.  The last two
    # cases take more matvecs than the power-iteration count
    # min(8 log n / (lam-1)^2, n/4): the start must not stop on a step count.
    seed = 3
    model = _z2_model(n, lam, seed)
    init = sa.spectral_init(model.observed, seed)
    assert abs(np.linalg.norm(init.x1) - 1.0) < 1e-12
    w, V = np.linalg.eigh(dense(model.observed))
    top = V[:, -1] if V[:, -1] @ init.x1 > 0 else -V[:, -1]
    assert np.linalg.norm(init.x1 - top) < 1e-10
    assert abs(init.lambda_max - w[-1]) <= 1e-12 * abs(init.lambda_max)


def test_spectral_init_agrees_with_power_steps():
    # 444 power steps from the same substream start land on x1, sign included
    n, lam, seed = 1000, 1.5, 3
    model = _z2_model(n, lam, seed)
    init = sa.spectral_init(model.observed, seed)
    y = substream(seed, "spectral-start").standard_normal(n)
    assert init.x1 @ y > 0
    M = dense(model.observed)
    for _ in range(444):
        y = M @ y
        y /= np.linalg.norm(y)
    assert np.max(np.abs(y - init.x1)) < 1e-9


def test_spectral_lambda_max_vs_eigh():
    # Independent oracle: full symmetric eigendecomposition.
    model = _z2_model(300, 1.5, 0)
    init = sa.spectral_init(model.observed, 0)
    top = np.linalg.eigvalsh(dense(model.observed))[-1]
    assert abs(init.lambda_max - top) < 1e-9


def test_spectral_start_matvec_bound(monkeypatch):
    # Lanczos stops on its Ritz residual; 266 power steps used to do this job
    n, lam, seed = 4000, 1.5, 3
    model = _z2_model(n, lam, seed)
    calls = []
    symv = amp._symv

    def counting(M, y):
        calls.append(y.shape)
        return symv(M, y)

    monkeypatch.setattr(amp, "_symv", counting)
    init = sa.spectral_init(model.observed, seed)
    assert init.s == len(calls) <= 80


@pytest.mark.parametrize("diag, seed, steps", [([1.0, 1.0, 1.0, 1.0], 4, 1),
                                               ([2.0, 1.0, 1.0, 1.0], 1, 2)])
def test_spectral_init_returns_an_invariant_space_exactly(diag, seed, steps):
    # an invariant Krylov space (beta = 0; exactly 0.0 for the identity at
    # seed 4) ends the run with the exact pair, dividing by no vanishing
    # beta (RuntimeWarnings are errors here)
    M = np.diag(diag)
    init = sa.spectral_init(M, seed)
    assert init.s == steps
    assert init.lambda_max == pytest.approx(max(diag), abs=1e-14)
    np.testing.assert_allclose(M @ init.x1, init.lambda_max * init.x1, atol=1e-14)
    assert abs(np.linalg.norm(init.x1) - 1.0) < 1e-14


def test_symv_matches_matmul_without_copying_M(monkeypatch):
    # C order, F order and a split complement block, each holding its upper
    # triangle; dsymv must get an F-contiguous view of the caller's M, never
    # a copy
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
    # the block gives its M up, so it comes from a second build of the model
    block = sa.principal_block(_z2_model(300, 1.5, 4).observed, Ic)
    for A in (M, np.asfortranarray(M), block):
        received.clear()
        y = rng.standard_normal(A.shape[0])
        got = amp._symv(A, y)
        (a,) = received
        assert a.flags.f_contiguous and np.shares_memory(a, A)
        full = dense(A)
        bound = 1e-13 * np.linalg.norm(full) * np.linalg.norm(y)
        assert np.max(np.abs(got - full @ y)) <= bound


@pytest.mark.parametrize("shape", [(3, 2), (4,), (2, 2, 2)])
def test_spectral_rejects_non_square_M(shape):
    M = np.ones(shape)
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        sa.spectral_init(M, 1)


def test_spectral_rejects_vanishing_power_step():
    # M y = 0 cannot be renormalized; it is a named failure instead
    with pytest.raises(ValueError, match="Lanczos step 1"):
        sa.spectral_init(np.zeros((4, 4)), 1)


@pytest.mark.parametrize("scale", [1e155, 1e200])
def test_power_steps_normalize_huge_matrices(scale):
    # entries above ~1e154 overflow the plain sum of squares, not ||M y||
    M = np.eye(50) * scale
    init = sa.spectral_init(M, 1)
    assert np.linalg.norm(init.x1) == pytest.approx(1.0, abs=1e-12)
    assert init.lambda_max / scale == pytest.approx(1.0, abs=1e-12)
    # a run of many steps hands LAPACK a tridiagonal whose squares would overflow
    init = sa.spectral_init(np.diag(np.linspace(1.0, 2.0, 50)) * scale, 1)
    assert init.lambda_max / scale == pytest.approx(2.0, abs=1e-12)
    assert abs(init.x1[-1]) == pytest.approx(1.0, abs=1e-10)


def test_power_steps_name_overflow():
    with pytest.raises(ValueError, match="overflowed"):
        sa.spectral_init(np.full((50, 50), 1e308), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_power_steps_name_a_nonfinite_matrix(bad):
    # a NaN or inf in M is named as such, not reported as an overflow
    with pytest.raises(ValueError, match=rf"M\[0, 0\] = {bad!r} is not finite"):
        sa.spectral_init(np.full((6, 6), bad), 1)
    M = np.eye(6)
    M[2, 4] = M[4, 2] = bad
    with pytest.raises(ValueError, match=rf"M\[2, 4\] = {bad!r} is not finite"):
        sa.spectral_init(M, 1)
