"""The sparse initializer: restricted oracle, sample split.

The split procedure's audit log is load-bearing: scores may only be read
from the complement block after the candidate is built, so the events
tuple doubles as a no-peeking proof per round.
"""

import numpy as np
import pytest

import spiked_amp as sa
from spiked_amp import sparse_init
from spiked_amp._rng import derive_seed, substream
from spiked_amp.denoise import soft_threshold
from spiked_amp.model import SpikedModel

from conftest import dense


# ---------------------------------------------------------------------------
# restricted-block oracle


def _oracle_estimate(M_sub, k_hint, seed):
    """The oracle on a whole block M_sub: the top eigenvector of the principal
    block of its 2 k_hint largest diagonal entries, from the oracle seed
    `seed`, zero-padded back to M_sub's index range; an all-zero block gives
    e_1.  The split rounds compute the same estimate but read only the
    selected block."""
    sel = sparse_init._oracle_selection(np.diagonal(M_sub), k_hint)
    y = sparse_init._block_top(M_sub[np.ix_(sel, sel)], seed)
    out = np.zeros(M_sub.shape[0])
    if y is None:
        out[0] = 1.0
    else:
        out[sel] = y
    return out


def test_oracle_noiseless_rank_one_mixed_signs():
    v = np.array([3.0, -4.0, 1.0, -2.0, 5.0])
    v /= np.linalg.norm(v)
    est = _oracle_estimate(1.7 * np.outer(v, v), k_hint=5, seed=0)
    err = min(np.linalg.norm(est - v), np.linalg.norm(est + v))
    assert err < 1e-8
    assert np.linalg.norm(est) == pytest.approx(1.0, abs=1e-12)


def test_oracle_zero_matrix_degenerate():
    est = _oracle_estimate(np.zeros((4, 4)), k_hint=2, seed=0)
    np.testing.assert_array_equal(est, [1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("scale", [1e155, 1e200])
def test_oracle_normalizes_huge_blocks(scale):
    # ||B q||^2 overflows here, ||B q|| does not: the Lanczos run divides by
    # the scaled norm, so the estimate is a finite unit eigenvector, not zero
    B = np.eye(6) * scale
    est = _oracle_estimate(B, 2, seed=0)
    assert np.all(np.isfinite(est))
    assert np.linalg.norm(est) == 1.0
    np.testing.assert_array_equal(B @ est, scale * est)


def test_oracle_reports_overflowing_block():
    # ||B y|| itself is beyond the float64 range: a named failure, not a
    # zero estimate from dividing by inf
    with pytest.raises(ValueError, match=r"Lanczos step \d+ overflowed"):
        _oracle_estimate(np.full((6, 6), 1e308), 2, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_oracle_names_a_nonfinite_entry(bad):
    # the products are BLAS calls, so numpy never warns on B q
    B = np.eye(4)
    B[1, 3] = B[3, 1] = bad
    with pytest.raises(ValueError, match=rf"M\[1, 3\] = {bad!r} is not finite"):
        sparse_init._block_top(B, 0)


def _rotated(ev):
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((len(ev), len(ev))))
    B = (Q * ev) @ Q.T
    return (B + B.T) / 2


@pytest.mark.parametrize("B", [
    _rotated([1.0, 0.999, 0.5, 0.2, 0.0, -0.1, -0.4, -0.9]),  # a top gap of 1e-3
    _rotated([1.0, 0.6, 0.3, 0.0, -0.2, -0.5, -1.0, -3.0]),  # |-3| beats the top eigenvalue
    # reducible: the basis vector of the largest |diagonal| spans an
    # invariant subspace that misses the top eigenvector
    np.diag([-5.0, 3.0]),
    np.array([[-5.0, 0.0, 0.0], [0.0, 3.0, 1.0], [0.0, 1.0, 2.0]]),
], ids=["ev0", "ev1", "diagonal", "reducible"])
def test_oracle_is_the_top_eigenvector(B):
    want = np.linalg.eigh(B)[1][:, -1]
    y = sparse_init._block_top(B, 0)
    assert min(np.linalg.norm(y - want), np.linalg.norm(y + want)) < 1e-10
    assert y[np.argmax(np.abs(np.diagonal(B)))] >= 0.0


def test_oracle_truncates_to_selected_block():
    # signal on coordinates {0, 3}; a huge unrelated diagonal at 2 draws
    # one selection slot, but 2 * k_hint = 2 slots keep the larger of the
    # two signal diagonals, so support outside the selection is zeroed
    v = np.zeros(5)
    v[0], v[3] = 0.6, 0.8
    M = 2.0 * np.outer(v, v)
    M[2, 2] = 50.0
    est = _oracle_estimate(M, k_hint=1, seed=0)
    outside = [1, 4]
    assert np.all(est[outside] == 0.0)


def test_oracle_pure_noise_no_hallucinated_signal():
    m = 300
    v = sa.make_signal(kind="sparse-dirac", n=m, k=20, seed=1)
    hits = 0
    for seed in range(20):
        W = sa.sample_wigner(m, seed)
        est = _oracle_estimate(W, k_hint=10, seed=seed)
        if abs(float(v @ est)) <= 5.0 / np.sqrt(m):
            hits += 1
    assert hits >= 18


# ---------------------------------------------------------------------------
# split rounds: structure and audit log


@pytest.fixture(scope="module")
def split_model():
    n, k, seed = 400, 40, 11
    v = sa.make_signal(kind="sparse-dirac", n=n, k=k, seed=seed)
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
    best = sparse_init.sample_split_init(split_model, p=0.3, N=8, tau1=0.2, seed=5)
    live = [r for r in rounds if not r.skipped]
    assert best.score == max(r.score for r in live)
    np.testing.assert_array_equal(best.x_j, max(live, key=lambda r: r.score).x_j)


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
    v = sa.make_signal(kind="sparse-dirac", n=n, k=k, seed=2)
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
    k = np.count_nonzero(v)
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


@pytest.mark.parametrize("k_hint", [0, -3])
def test_round_refuses_k_hint_below_one(split_model, k_hint):
    # 0 would select an empty block, -3 all but six diagonal entries
    with pytest.raises(ValueError, match=f"k_hint must be at least 1, got {k_hint}"):
        sparse_init.sample_split_rounds(split_model, p=0.3, N=2, tau1=0.2, seed=5,
                                        k_hint=k_hint)


def test_k_hint_default(split_model, monkeypatch):
    seen = []
    real = sparse_init._oracle_selection

    def spy(d, k_hint):
        seen.append(k_hint)
        return real(d, k_hint)

    monkeypatch.setattr(sparse_init, "_oracle_selection", spy)
    sparse_init.sample_split_rounds(split_model, p=0.3, N=2, tau1=0.2, seed=5)
    want = max(1, round(np.count_nonzero(split_model.v_star) * 0.3))
    assert seen == [want, want]


# ---------------------------------------------------------------------------
# split rounds read only the entries they use


def _dense_rounds(model, p, N, tau1, seed, k_hint):
    """The split rounds computed on whole blocks: the oracle on all of M_II,
    the propagation through all of M_IcI, the score on all of M_IcIc."""
    M, n = dense(model.observed), model.n
    out = []
    for j in range(N):
        mask = substream(seed, "split-round", j).random(n) < p
        I, Ic = np.flatnonzero(mask), np.flatnonzero(~mask)
        if I.size == 0 or Ic.size == 0:
            out.append((I, Ic, None, float("-inf"), True, ()))
            continue
        est = _oracle_estimate(M[np.ix_(I, I)], k_hint, derive_seed(seed, "split-oracle", j))
        x_raw = soft_threshold(M[np.ix_(Ic, I)] @ est, tau1)
        nrm = float(np.linalg.norm(x_raw))
        if nrm == 0.0:
            out.append((I, Ic, None, float("-inf"), True, ("read:II", "oracle", "read:IcI")))
            continue
        x_j = x_raw / nrm
        score = float(x_j @ M[np.ix_(Ic, Ic)] @ x_j)
        out.append((I, Ic, x_j, score, False,
                    ("read:II", "oracle", "read:IcI", "xj_built", "read:score_IcIc")))
    return out


def _zero_oracle_block_model(n=60, p=0.5, seed=3):
    # M_II = 0 for round 0, so the oracle falls back to e_1, column I[0]
    mask = substream(seed, "split-round", 0).random(n) < p
    I, Ic = np.flatnonzero(mask), np.flatnonzero(~mask)
    M = np.zeros((n, n))
    col = np.linspace(0.2, 1.0, Ic.size) * np.where(np.arange(Ic.size) % 2, 1.0, -1.0)
    M[Ic, I[0]] = col
    M[I[0], Ic] = col
    return SpikedModel(n, 1.0, np.eye(n)[0], M), p, seed


def test_split_rounds_match_dense_reference():
    n, k = 400, 20
    cases = []
    for seed in range(6):
        v = sa.make_signal(kind="sparse-dirac", n=n, k=k, seed=seed)
        model = sa.make_spiked(2 * k / np.sqrt(n), v, sa.sample_wigner(n, seed))
        cases.append((model, 0.3, 8, 0.15, seed, 6))
    model, p, seed = _zero_oracle_block_model()
    cases.append((model, p, 1, 0.1, seed, 2))
    live_rounds = 0
    for model, p, N, tau1, seed, k_hint in cases:
        rounds = sparse_init.sample_split_rounds(model, p, N, tau1, seed, k_hint=k_hint)
        want = _dense_rounds(model, p, N, tau1, seed, k_hint)
        for r, (I, Ic, x_j, score, skipped, events) in zip(rounds, want, strict=True):
            np.testing.assert_array_equal(r.index_set, I)
            np.testing.assert_array_equal(r.complement, Ic)
            assert r.events == events and r.skipped == skipped
            if skipped:
                assert r.x_j is None and r.score == float("-inf")
                continue
            live_rounds += 1
            np.testing.assert_allclose(r.x_j, x_j, rtol=0, atol=1e-14)
            assert r.score == pytest.approx(score, rel=1e-13, abs=0)
        live = [i for i, w in enumerate(want) if not w[4]]
        assert live
        best = max(live, key=lambda i: want[i][3])
        assert max(live, key=lambda i: rounds[i].score) == best
    assert live_rounds >= 30


class _CountingMatrix(np.ndarray):
    """Records the number of elements each indexing of the matrix gathers."""

    gathered: list[int] = []

    def __getitem__(self, index):
        out = np.asarray(super().__getitem__(index))
        _CountingMatrix.gathered.append(out.size)
        return out


def test_split_round_read_budget(split_model, monkeypatch):
    # each live round gathers at most diag(M)[I], the (2 k_hint)^2 oracle
    # block, the |Ic| x 2 k_hint propagation block and the |S|^2 score block
    model = SpikedModel(split_model.n, split_model.lam, split_model.v_star,
                        split_model.observed.view(_CountingMatrix))
    k_hint = 6
    live = 0
    for seed in range(6):
        monkeypatch.setattr(_CountingMatrix, "gathered", [])
        (r,) = sparse_init.sample_split_rounds(model, p=0.3, N=1, tau1=0.2, seed=seed,
                                               k_hint=k_hint)
        if r.skipped:
            continue
        live += 1
        S = np.flatnonzero(r.x_j).size
        budget = (r.index_set.size + (2 * k_hint) ** 2 + r.complement.size * 2 * k_hint
                  + S * S)
        assert sum(_CountingMatrix.gathered) <= budget
    assert live >= 4
