"""Shared fixtures: one small spectral run and one sparse run, session-wide,
and `dense`, the full symmetric matrix of a stored upper triangle.

Worker pool defaults to 1 inside tests so every suite invocation is
byte-deterministic; the pool-merge test overrides it explicitly.
"""

import os

import numpy as np
import pytest

import spiked_amp as sa

os.environ.setdefault("SPIKED_AMP_WORKERS", "1")


def dense(M):
    """The symmetric matrix whose upper triangle M holds.

    The package stores M[i, j] for i <= j only; a test that multiplies by M
    or reads a column or its lower triangle goes through this.
    """
    return np.triu(M) + np.triu(M, 1).T


@pytest.fixture(scope="session")
def z2_run():
    """Spectral tanh pipeline at n=400 with its decomposition ledger."""
    n, lam, T, seed = 400, 1.5, 8, 7
    v = sa.make_signal(kind="z2", n=n, seed=seed)
    model = sa.make_spiked(lam, v, sa.sample_wigner(n, seed))
    init = sa.spectral_init(model.observed, seed)
    traj = sa.run_amp(model, sa.fit_tanh, lam * init.x1, init.x1, T)
    ledger = sa.build_ledger(model, traj, aux_seed=4242)
    return model, traj, ledger


@pytest.fixture(scope="session")
def sparse_run():
    """Soft-threshold pipeline (eta_0 = 0) at n=400 with its ledger."""
    n, k, lam, T, seed = 400, 10, 1.4, 6, 3
    v = sa.make_signal(kind="sparse-dirac", n=n, k=k, seed=seed)
    model = sa.make_spiked(lam, v, sa.sample_wigner(n, seed))
    rng = np.random.default_rng(99)
    x1 = lam * v + rng.standard_normal(n) / np.sqrt(n)
    tau = sa.default_tau(n)
    traj = sa.run_amp(model, lambda x: sa.fit_soft_threshold(x, tau), x1, np.zeros(n), T)
    ledger = sa.build_ledger(model, traj, aux_seed=777)
    return model, traj, ledger
