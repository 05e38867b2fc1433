"""Sparse initializers: diagonal argmax, restricted oracle, sample split.

The split procedure's audit log is load-bearing: scores may only be read
from the complement block after the candidate is built, so the events
tuple doubles as a no-peeking proof per round.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spiked_amp as sa
from spiked_amp import sparse_init
from spiked_amp.denoise import soft_threshold


def _sym_from(diag, off, n):
    A = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    A[iu] = off
    A = A + A.T
    A[np.diag_indices(n)] = diag
    return A


# ---------------------------------------------------------------------------
# diagonal argmax


def test_diag_max_worked_example():
    M = _sym_from([1.0, -5.0, 2.0], [0.3, -9.0, 0.7], 3)
    idx, e = sparse_init.diag_max_init(M)
    assert idx == 1
    np.testing.assert_array_equal(e, [0.0, 1.0, 0.0])


def test_diag_max_tie_takes_first():
    M = np.diag([3.0, -3.0])
    idx, _ = sparse_init.diag_max_init(M)
    assert idx == 0


@settings(max_examples=40, deadline=None)
@given(
    diag=st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=6),
    seed=st.integers(0, 2**20),
)
def test_diag_max_ignores_off_diagonal(diag, seed):
    n = len(diag)
    rng = np.random.default_rng(seed)
    off1 = rng.normal(size=n * (n - 1) // 2)
    off2 = 100.0 * rng.normal(size=n * (n - 1) // 2)
    i1, _ = sparse_init.diag_max_init(_sym_from(diag, off1, n))
    i2, _ = sparse_init.diag_max_init(_sym_from(diag, off2, n))
    assert i1 == i2 == int(np.argmax(np.abs(diag)))


# ---------------------------------------------------------------------------
# restricted-block power oracle


def test_oracle_noiseless_rank_one_mixed_signs():
    v = np.array([3.0, -4.0, 1.0, -2.0, 5.0])
    v /= np.linalg.norm(v)
    est = sparse_init.oracle_estimate(1.7 * np.outer(v, v), k_hint=5)
    assert not est.degenerate
    err = min(np.linalg.norm(est.vector - v), np.linalg.norm(est.vector + v))
    assert err < 1e-8
    assert np.linalg.norm(est.vector) == pytest.approx(1.0, abs=1e-12)


def test_oracle_zero_matrix_degenerate():
    est = sparse_init.oracle_estimate(np.zeros((4, 4)), k_hint=2)
    assert est.degenerate
    np.testing.assert_array_equal(est.vector, [1.0, 0.0, 0.0, 0.0])


def test_oracle_truncates_to_selected_block():
    # signal on coordinates {0, 3}; a huge unrelated diagonal at 2 draws
    # one selection slot, but 2 * k_hint = 2 slots keep the larger of the
    # two signal diagonals, so support outside the selection is zeroed
    v = np.zeros(5)
    v[0], v[3] = 0.6, 0.8
    M = 2.0 * np.outer(v, v)
    M[2, 2] = 50.0
    est = sparse_init.oracle_estimate(M, k_hint=1)
    outside = [1, 4]
    assert np.all(est.vector[outside] == 0.0)


def test_oracle_pure_noise_no_hallucinated_signal():
    m = 300
    v = sa.make_signal(sa.SignalSpec(kind="sparse-dirac", n=m, k=20, seed=1))
    hits = 0
    for seed in range(20):
        W = sa.sample_wigner(m, seed)
        est = sparse_init.oracle_estimate(W, k_hint=10)
        if abs(float(v @ est.vector)) <= 5.0 / np.sqrt(m):
            hits += 1
    assert hits >= 18


# ---------------------------------------------------------------------------
# split rounds: structure and audit log


@pytest.fixture(scope="module")
def split_model():
    n, k, seed = 400, 40, 11
    v = sa.make_signal(sa.SignalSpec(kind="sparse-dirac", n=n, k=k, seed=seed))
    lam = 2 * k / np.sqrt(n)
    return sa.make_spiked(lam, v, sa.sample_wigner(n, seed))


def test_rounds_partition_and_normalization(split_model):
    n = split_model.n
    rounds = sparse_init.sample_split_rounds(split_model, p=0.3, N=8, tau1=0.2, seed=5)
    assert len(rounds) == 8
    for r in rounds:
        merged = np.sort(np.concatenate([r.index_set, r.complement]))
        assert np.array_equal(merged, np.arange(n))
        assert not set(r.index_set) & set(r.complement)
        if not r.skipped:
            assert np.linalg.norm(r.x_j) == pytest.approx(1.0, abs=1e-10)
            assert len(r.x_j) == len(r.complement)


def test_rounds_resample_partition_each_time(split_model):
    # Bernoulli(p) per index: block sizes fluctuate round to round instead
    # of being pinned at round(p * n).
    rounds = sparse_init.sample_split_rounds(split_model, p=0.3, N=10, tau1=0.2, seed=5)
    sizes = [len(r.index_set) for r in rounds]
    assert len(set(sizes)) > 1
    assert abs(np.mean(sizes) - 0.3 * split_model.n) < 4 * np.sqrt(0.3 * 0.7 * split_model.n)


def test_audit_log_no_peeking(split_model):
    rounds = sparse_init.sample_split_rounds(split_model, p=0.3, N=8, tau1=0.2, seed=5)
    live = [r for r in rounds if not r.skipped]
    assert live
    for r in live:
        assert r.events == ("read:II", "oracle", "read:IcI", "xj_built", "read:score_IcIc")
        assert r.events.count("read:score_IcIc") == 1
        assert r.events.index("xj_built") < r.events.index("read:score_IcIc")
    for r in rounds:
        if r.skipped:
            assert "read:score_IcIc" not in r.events


def test_skipped_round_via_threshold(split_model):
    rounds = sparse_init.sample_split_rounds(split_model, p=0.3, N=3, tau1=1e6, seed=5)
    assert all(r.skipped for r in rounds)
    for r in rounds:
        assert r.score == float("-inf")
        assert r.events == ("read:II", "oracle", "read:IcI")
    with pytest.raises(sparse_init.InitializationFailureError):
        sparse_init.sample_split_init(split_model, p=0.3, N=3, tau1=1e6, seed=5)


def test_winner_is_argmax(split_model):
    rounds = sparse_init.sample_split_rounds(split_model, p=0.3, N=8, tau1=0.2, seed=5)
    best, x = sparse_init.sample_split_init(split_model, p=0.3, N=8, tau1=0.2, seed=5)
    live_scores = [r.score for r in rounds if not r.skipped]
    assert best.score == max(live_scores)
    np.testing.assert_array_equal(x, best.x_j)


def test_rounds_deterministic(split_model):
    a = sparse_init.sample_split_rounds(split_model, p=0.3, N=5, tau1=0.2, seed=9)
    b = sparse_init.sample_split_rounds(split_model, p=0.3, N=5, tau1=0.2, seed=9)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.index_set, rb.index_set)
        assert ra.score == rb.score
        if not ra.skipped:
            np.testing.assert_array_equal(ra.x_j, rb.x_j)


def test_noiseless_candidate_formula():
    # with W = 0 the whole pipeline collapses to one closed form:
    # x_j is proportional to the thresholded image of the complement part
    # of the signal, up to the oracle's sign
    n, k, lam = 200, 8, 5.0
    v = sa.make_signal(sa.SignalSpec(kind="sparse-dirac", n=n, k=k, seed=2))
    model = sa.make_spiked(lam, v, np.zeros((n, n)))
    rounds = sparse_init.sample_split_rounds(model, p=0.5, N=1, tau1=0.3, seed=4)
    r = rounds[0]
    assert not r.skipped
    I = np.array(r.index_set)
    Ic = np.array(r.complement)
    want = soft_threshold(lam * np.linalg.norm(v[I]) * v[Ic], 0.3)
    want = want / np.linalg.norm(want)
    err = min(np.linalg.norm(r.x_j - want), np.linalg.norm(r.x_j + want))
    assert err < 1e-10


def test_support_mass_matches_bernoulli_split(split_model):
    # ||v_Ic||^2 concentrates at 1 - p with variance p(1-p)/k
    v = split_model.v_star
    k = split_model.sparsity
    p = 0.3
    sigma = np.sqrt(p * (1 - p) / k)
    rounds = sparse_init.sample_split_rounds(split_model, p=p, N=6, tau1=0.2, seed=21)
    for r in rounds:
        mass = float(np.sum(v[np.array(r.complement)] ** 2))
        assert abs(mass - (1 - p)) < 3.5 * sigma


# ---------------------------------------------------------------------------
# parameters and validation


def test_default_split_params_formulas():
    n, k = 4000, 60
    p, N, tau1 = sparse_init.default_split_params(n, k)
    assert p == pytest.approx(4 * np.log(n) / k, rel=1e-12)
    assert N == int(np.ceil(np.log(n)))
    assert tau1 == pytest.approx(2 * np.sqrt(np.log(n) / n), rel=1e-12)


def test_default_split_params_clamps_p():
    p, _, _ = sparse_init.default_split_params(4000, 2)
    assert p == 0.9


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p=1.5, N=3, tau1=0.2),
        dict(p=0.0, N=3, tau1=0.2),
        dict(p=0.001, N=3, tau1=0.2),  # p * n < 2
        dict(p=0.3, N=0, tau1=0.2),
        dict(p=0.3, N=3, tau1=0.0),
    ],
)
def test_round_parameter_validation(split_model, kwargs):
    with pytest.raises(ValueError):
        sparse_init.sample_split_rounds(split_model, seed=0, **kwargs)


def test_k_hint_default(split_model, monkeypatch):
    seen = []
    real = sparse_init.oracle_estimate

    def spy(M_sub, k_hint):
        seen.append(k_hint)
        return real(M_sub, k_hint)

    monkeypatch.setattr(sparse_init, "oracle_estimate", spy)
    sparse_init.sample_split_rounds(split_model, p=0.3, N=2, tau1=0.2, seed=5)
    want = max(1, round(split_model.sparsity * 0.3))
    assert seen == [want, want]
