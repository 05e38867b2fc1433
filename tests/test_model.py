"""Instance construction: noise law, signal recipes, assembled model."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spiked_amp as sa
from spiked_amp import harness


def test_wigner_symmetric_bitwise():
    W = sa.sample_wigner(64, 0)
    assert np.array_equal(W, W.T)


def test_package_matrices_symmetric_bitwise():
    # _symv reads one triangle of M, so every matrix AMP runs on must be
    # exactly symmetric: the assembled model and the split complement block
    n, k = 300, 8
    for kind in ("z2", "sparse-dirac"):
        v = sa.make_signal(kind=kind, n=n, k=k, seed=3)
        M = sa.make_spiked(1.7, v, sa.sample_wigner(n, 3)).observed
        assert np.array_equal(M, M.T)
    model = sa.make_spiked(3.0, v, sa.sample_wigner(n, 3))
    p, N, tau1 = sa.default_split_params(n, k)
    chosen = sa.sample_split_init(model, p, N, tau1, 3)
    Ic = chosen.complement
    block = model.observed[np.ix_(Ic, Ic)]
    assert 0 < Ic.size < n
    assert np.array_equal(block, block.T)


def test_wigner_frozen_values():
    W = sa.sample_wigner(5, 11)
    np.testing.assert_allclose(
        W[0],
        [0.4714490064826056, 0.18629095705299598, 0.04752527697865727,
         0.14847881751631828, 0.04984706039404965],
        rtol=0, atol=1e-16,
    )
    np.testing.assert_allclose(
        np.diagonal(W),
        [0.4714490064826056, 0.15605140980946403, 0.7132579907922453,
         0.07204093840650089, -1.1931853818977416],
        rtol=0, atol=1e-16,
    )


def test_wigner_entry_variances():
    # Aggregate over 40 draws at n=60: off-diagonal variance 1/n, diagonal
    # 2/n.  The relative MC error at this sample count is about 1%, so the
    # 6% bands below sit at roughly five standard errors.
    n = 60
    offs, diags = [], []
    for seed in range(40):
        W = sa.sample_wigner(n, 1000 + seed)
        iu = np.triu_indices(n, k=1)
        offs.append(W[iu])
        diags.append(np.diagonal(W))
    off_var = np.var(np.concatenate(offs))
    diag_var = np.var(np.concatenate(diags))
    assert abs(off_var * n - 1.0) < 0.06
    assert abs(diag_var * n - 2.0) < 0.12


def test_wigner_operator_norm_near_two():
    W = sa.sample_wigner(1500, 5)
    top = np.linalg.eigvalsh(W)[-1]
    assert 1.9 < top < 2.15


def test_wigner_rejects_bad_n():
    with pytest.raises(ValueError):
        sa.sample_wigner(0, 1)


def test_wigner_determinism():
    np.testing.assert_array_equal(sa.sample_wigner(30, 9), sa.sample_wigner(30, 9))


def test_z2_signal_entries():
    v = sa.make_signal(kind="z2", n=100, seed=2)
    np.testing.assert_allclose(np.abs(v), 1.0 / np.sqrt(100), rtol=0, atol=1e-15)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert np.any(v > 0) and np.any(v < 0)


def test_sparse_dirac_signal():
    v = sa.make_signal(kind="sparse-dirac", n=200, k=12, seed=4)
    nz = v[v != 0]
    assert nz.size == 12
    np.testing.assert_allclose(np.abs(nz), 1.0 / np.sqrt(12), rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="nope", n=10),
        dict(kind="z2", n=0),
        dict(kind="sparse-dirac", n=10),            # k missing
        dict(kind="sparse-dirac", n=10, k=11),      # k > n
        dict(kind="sparse-dirac", n=10, k=0),       # k < 1
        dict(kind="sparse-gaussian", n=10, k=2),    # not a signal kind
    ],
)
def test_signal_spec_rejects(kwargs):
    with pytest.raises(ValueError):
        sa.make_signal(**kwargs)


def test_make_spiked_assembles_exactly():
    v = sa.make_signal(kind="z2", n=40, seed=8)
    W = sa.sample_wigner(40, 8)
    want = 1.3 * np.outer(v, v) + W
    m = sa.make_spiked(1.3, v, W)
    np.testing.assert_array_equal(m.observed, want)
    assert m.n == 40 and m.lam == 1.3
    assert m.sparsity is None  # dense signal


def test_assemble_adds_spike_in_place_bitwise():
    # n = 513 leaves a short last row block
    n = 513
    v = sa.make_signal(kind="sparse-dirac", n=n, k=40, seed=6)
    W = sa.sample_wigner(n, 6)
    want = 1.9 * np.outer(v, v) + W
    m = sa.make_spiked(1.9, v, W)
    assert m.observed is W
    np.testing.assert_array_equal(m.observed, want)


def test_make_spiked_keeps_noise_as_observed():
    # the caller gives the noise buffer up: it becomes M and is frozen
    v = sa.make_signal(kind="z2", n=300, seed=2)
    W = sa.sample_wigner(300, 2)
    m = sa.make_spiked(1.5, v, W)
    assert m.observed is W
    assert not W.flags.writeable


@pytest.mark.parametrize(
    "noise, prop",
    [
        (np.zeros((10, 10)), "writeable"),                 # frozen below
        (np.zeros((10, 10), dtype=np.float32), "float64"),
        (np.zeros((20, 20))[:10, :10], "C-contiguous"),
        (np.zeros(100).reshape(10, 10), "an array owning its data"),
    ],
)
def test_make_spiked_refuses_unusable_noise(noise, prop):
    if prop == "writeable":
        noise.flags.writeable = False
    v = sa.make_signal(kind="z2", n=10, seed=1)
    with pytest.raises(ValueError, match=f"noise must be {prop}"):
        sa.make_spiked(1.5, v, noise)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        tracemalloc.stop()


def test_wigner_peak_memory_one_buffer():
    # the normals, their scaling and the mirroring share the result's buffer
    n = 1000
    peak, W = _peak_bytes(lambda: sa.sample_wigner(n, 4))
    assert W.shape == (n, n)
    assert peak <= 1.1 * 8 * n * n


def test_make_spiked_peak_memory_few_rows():
    # the spike goes in through one buffer of a few rows, not a row block
    # of lam v v^T per step; numpy's own ufunc buffers add at most 128 KB
    n = 2000
    v = sa.make_signal(kind="z2", n=n, seed=4)
    W = sa.sample_wigner(n, 4)
    peak, m = _peak_bytes(lambda: sa.make_spiked(1.5, v, W))
    assert m.observed is W
    assert peak <= 24 * 8 * n


def test_harness_model_build_peak_memory():
    # the trial's model is assembled in its fresh Wigner buffer: one n x n
    # array plus a few rows
    n = 2000
    config = harness.build_config({"experiment": "Z2Pipeline", "n": n, "lambda": 1.5, "T": 1})
    peak, m = _peak_bytes(lambda: harness._build_model(config, 7, "z2"))
    assert m.observed.shape == (n, n)
    assert peak <= 8 * n * n + 32 * 8 * n


def test_make_spiked_sparsity_count():
    v = sa.make_signal(kind="sparse-dirac", n=40, k=5, seed=8)
    m = sa.make_spiked(2.0, v, np.zeros((40, 40)))
    assert m.sparsity == 5


def test_make_spiked_rejects_nonunit():
    with pytest.raises(ValueError):
        sa.make_spiked(1.0, np.ones(10), np.zeros((10, 10)))


def test_make_spiked_leaves_v_star_writeable():
    v = sa.make_signal(kind="z2", n=10, seed=1)
    m = sa.make_spiked(1.5, v, sa.sample_wigner(10, 1))
    assert v.flags.writeable
    assert m.v_star is not v


def test_model_arrays_read_only():
    v = sa.make_signal(kind="z2", n=10, seed=1)
    m = sa.make_spiked(1.5, v, sa.sample_wigner(10, 1))
    with pytest.raises(ValueError):
        m.observed[0, 0] = 99.0


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=40), seed=st.integers(0, 10**6))
def test_wigner_symmetry_property(n, seed):
    W = sa.sample_wigner(n, seed)
    assert np.array_equal(W, W.T)
    assert W.shape == (n, n)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=60),
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(["z2", "sparse-dirac"]),
    data=st.data(),
)
def test_signal_unit_norm_property(n, seed, kind, data):
    k = None
    if kind != "z2":
        k = data.draw(st.integers(min_value=1, max_value=n))
    v = sa.make_signal(kind=kind, n=n, k=k, seed=seed)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-10
