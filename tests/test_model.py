"""Instance construction: noise law, signal recipes, assembled model."""

import mmap
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spiked_amp as sa
from spiked_amp import sparse_init

from conftest import dense


def test_wigner_lower_triangle_is_zero():
    W = sa.sample_wigner(64, 0)
    assert not np.tril(W, -1).any()
    assert W[np.triu_indices(64)].all()


def test_package_matrices_symmetric_bitwise():
    # every matrix stores its upper triangle alone, and every block the split
    # rounds gather from it is exactly symmetric: the assembled model, the
    # blocks read by the rounds, and the complement block AMP runs on
    n, k = 300, 8
    for kind in ("z2", "sparse-dirac"):
        v = sa.make_signal(kind=kind, n=n, k=k, seed=3)
        M = sa.make_spiked(1.7, v, sa.sample_wigner(n, 3)).observed
        assert not np.tril(M, -1).any()
    model = sa.make_spiked(3.0, v, sa.sample_wigner(n, 3))
    p, N, tau1 = sa.default_split_params(n, k)
    chosen = sa.sample_split_init(model, p, N, tau1, 3)
    I, Ic = chosen.index_set, chosen.complement
    assert 0 < Ic.size < n
    full = dense(model.observed)
    for rows, cols in ((I, I), (Ic, Ic), (Ic[::7], Ic[::7])):
        block = sparse_init._read_block(model.observed, np.ix_(rows, cols), [], "read")
        assert np.array_equal(block, block.T)
        assert np.array_equal(block, full[np.ix_(rows, cols)])
    cross = sparse_init._read_block(model.observed, np.ix_(Ic, I), [], "read")
    assert np.array_equal(cross, full[np.ix_(Ic, I)])
    # a cross read of the rounds' own shape, M[I^c, J] for 2 k_hint columns J
    # of I, over a complement that spans several of _read_block's row panels
    I = np.flatnonzero(np.random.default_rng(3).random(n) < 0.1)
    Ic = np.setdiff1d(np.arange(n), I)
    J = I[sparse_init._oracle_selection(np.diagonal(full)[I], k)]
    assert J.size == 2 * k and Ic.size > 2 * sparse_init._READ_PANEL_ROWS
    cross = sparse_init._read_block(model.observed, np.ix_(Ic, J), [], "read")
    assert np.array_equal(cross, full[np.ix_(Ic, J)])
    # the complement, all of M, one index, a block row over its own source
    # row, the last row, and a block whose last rows lie far enough past its
    # first that the pages between are released mid-gather (over 1 MB at
    # n = 300, where each source row spans one 4 KB page); each gather gives
    # its M up, so each takes a fresh build of the same model
    for index in (Ic, np.arange(n), np.array([n // 2]), np.r_[0:4, 9:n:5], np.r_[2:n:7, n - 1],
                  np.r_[0:3, n - 3:n]):
        M = sa.make_spiked(3.0, v, sa.sample_wigner(n, 3)).observed
        block = sa.principal_block(M, index)
        assert np.shares_memory(block, M)
        assert np.array_equal(block, np.triu(full[np.ix_(index, index)]))


def test_principal_block_lower_part_is_zero():
    # whatever M holds below its diagonal, the block holds zeros there; the
    # pages of the map past the block are freed and read zero again
    n = 200
    M = sa.sample_wigner(n, 5)
    M[np.tril_indices(n, -1)] = np.nan
    want = dense(M.copy())
    index = np.sort(np.random.default_rng(5).choice(n, size=90, replace=False))
    block = sa.principal_block(M, index)
    assert np.shares_memory(block, M)
    assert np.array_equal(block, np.triu(want[np.ix_(index, index)]))
    # the block's rows lie block.strides[0] bytes apart
    past = -(-block.strides[0] * block.shape[0] // mmap.PAGESIZE) * mmap.PAGESIZE // 8
    assert past < len(M.base) // 8
    assert not np.frombuffer(M.base)[past:].any()


def _mapped(n: int, **kw) -> np.ndarray:
    buf = mmap.mmap(-1, n * n * 8 + 8)
    return np.ndarray((n, n), buffer=buf, **kw)


@pytest.mark.parametrize(
    "M, index, message",
    [
        (sa.sample_wigner(10, 1), [2, 0], "index must be strictly increasing"),
        (sa.sample_wigner(10, 1), [3, 3], "index must be strictly increasing"),
        (sa.sample_wigner(10, 1), [-1, 3], r"index must be within \[0, 10\)"),
        (sa.sample_wigner(10, 1), [3, 10], r"index must be within \[0, 10\)"),
        (sa.sample_wigner(10, 1), [[0, 1]], "index must be a one-dimensional integer array"),
        (sa.sample_wigner(10, 1), [0.0, 1.0], "index must be a one-dimensional integer array"),
        (np.zeros((3, 4)), [0, 1], "M must be square"),
        (_mapped(10, dtype=np.float32), [0, 1], "M must be float64"),
        (_mapped(10, order="F"), [0, 1], "M must be C-contiguous"),
        (np.zeros((10, 10)), [0, 1], "M must be backed directly by a map"),
        (sa.sample_wigner(10, 1).view(), [0, 1], "M must be backed directly by a map"),
        (_mapped(10, offset=8), [0, 1], "M must be backed directly by a map"),
        (_mapped(10), [0, 1], r"M must be C-contiguous in rows \d+ entries apart"),
    ],
)
def test_principal_block_refuses(M, index, message):
    with pytest.raises(ValueError, match=message):
        sa.principal_block(M, np.array(index))


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
    top = np.linalg.eigvalsh(dense(W))[-1]
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
    # the spike goes into the upper triangle alone
    v = sa.make_signal(kind="z2", n=40, seed=8)
    W = sa.sample_wigner(40, 8)
    want = np.triu(1.3 * np.outer(v, v) + W)
    m = sa.make_spiked(1.3, v, W)
    np.testing.assert_array_equal(m.observed, want)
    assert m.n == 40 and m.lam == 1.3


def test_assemble_adds_spike_in_place_bitwise():
    # n = 513 leaves a short last row block
    n = 513
    v = sa.make_signal(kind="sparse-dirac", n=n, k=40, seed=6)
    W = sa.sample_wigner(n, 6)
    want = np.triu(1.9 * np.outer(v, v) + W)
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
        (np.zeros((10, 10), order="F"), "C-contiguous"),
        (np.zeros(100).reshape(10, 10), "an array owning its data"),
        (sa.sample_wigner(10, 1).view(), "an array owning its data"),  # view of a mapped one
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


_RSS_PROBE = """
    import numpy as np
    import spiked_amp as sa
    from spiked_amp import harness

    def kib(field):
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith(field))

    # first-call allocations: the code, the numpy and LAPACK routines and the
    # allocator arenas that a z2 build and a split build touch first
    small = harness.build_config({{"experiment": "Z2Pipeline", "n": 64, "lambda": 1.5, "T": 1}})
    harness._build_model(small, 1, "z2")
    small = harness.build_config({{"experiment": "SparsePipeline", "n": 128, "k": 8,
                                  "lambda": 3.0, "T": 1}})
    m = harness._build_model(small, 1, "sparse-dirac")
    sa.principal_block(m.observed,
                       sa.sample_split_init(m, *sa.default_split_params(128, 8), 1).complement)
    n = {n}
    config = harness.build_config({config!r})
    before = kib("VmRSS:")
    out = {build}
    print((kib("VmHWM:") - before) * 1024)
"""


def _build_rss_bytes(n: int, build: str, config: dict | None = None) -> int:
    # tracemalloc does not see an anonymous map, so a fresh interpreter reads
    # the growth of its peak resident set over the resident set just before
    # the build; a peak left from the imports can only raise the figure
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status")
    src = Path(sa.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    config = {**(config or {"experiment": "Z2Pipeline", "lambda": 1.5}), "n": n, "T": 1}
    code = textwrap.dedent(_RSS_PROBE).format(n=n, build=build, config=config)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return int(proc.stdout)


def _upper_bound_bytes(n: int) -> float:
    # the upper triangle, 4 n^2 bytes, is within 0.6 * 8 n^2; each row adds
    # at most one part-written 4 KB page, the draw one scratch row and the
    # spike one row
    return 0.6 * 8 * n * n + 4096 * n + 64 * 8 * n


def test_wigner_peak_memory_one_buffer():
    # the normals go through one scratch row into one mapped buffer whose
    # pages below the diagonal are never committed
    n = 3000
    assert _build_rss_bytes(n, f"sa.sample_wigner({n}, 4)") <= _upper_bound_bytes(n)


def test_wigner_commits_the_pages_of_its_upper_rows():
    # every diagonal entry starts a page, so row i's upper part commits
    # ceil((n - i) / 512) pages and nothing else is committed; the draw
    # adds a scratch row and the diagonal's few rows
    n = 3000
    per_page = mmap.PAGESIZE // 8
    pages = sum(-(-(n - i) // per_page) for i in range(n))
    assert _build_rss_bytes(n, f"sa.sample_wigner({n}, 4)") <= pages * mmap.PAGESIZE + 65536


def test_make_spiked_peak_memory_few_rows():
    # the spike goes in one row of lam v v^T at a time, over v's support,
    # not a row block per step; numpy's own ufunc buffers add at most 128 KB
    n = 2000
    v = sa.make_signal(kind="z2", n=n, seed=4)
    W = sa.sample_wigner(n, 4)
    peak, m = _peak_bytes(lambda: sa.make_spiked(1.5, v, W))
    assert m.observed is W
    assert peak <= 24 * 8 * n


def test_harness_model_build_peak_memory():
    # the trial's model is assembled in its fresh Wigner buffer: the upper
    # triangle of one n x n array plus a few rows
    n = 3000
    build = 'harness._build_model(config, 7, "z2")'
    assert _build_rss_bytes(n, build) <= _upper_bound_bytes(n)


_SPLIT_K = 60
# a split trial's build: the model, its split rounds, and the complement block
_SPLIT_BUILD = ('sa.principal_block((m := harness._build_model(config, 7, "sparse-dirac")).observed, '
                f'sa.sample_split_init(m, *sa.default_split_params(n, {_SPLIT_K}), 7).complement)')
_SPLIT_CONFIG = {"experiment": "SparsePipeline", "k": _SPLIT_K, "lambda": 3.0}


def test_split_block_peak_memory_in_place():
    # the complement block is gathered into the map of the M it comes from,
    # so a split trial's build holds M's upper triangle alone, not M plus
    # a second map for the block
    n = 3000
    assert _build_rss_bytes(n, _SPLIT_BUILD, _SPLIT_CONFIG) <= _upper_bound_bytes(n)


def test_split_build_peak_memory_pages():
    # beyond the triangle's own pages a split trial's build holds one cross
    # block M[I^c, J] at a time, |I^c| < n rows by |J| <= 2 k_hint columns,
    # and the block gather releases the pages it has passed, so its writes
    # below the source rows' diagonals do not add to M's whole tail.  The
    # rest is the rounds' own data: each of the N rounds keeps I and I^c (n
    # indices together) and x_j (under n doubles), and a round draws, masks
    # and thresholds in four more n-length arrays.  The probe has run a
    # small split build first, so the code and the allocator arenas the
    # split path touches first are not counted: the same build at n = 300
    # grows -0.11 to +0.01 MiB beyond its triangle
    n = 3000
    p, N, _ = sa.default_split_params(n, _SPLIT_K)
    k_hint = round(_SPLIT_K * p)
    per_page = mmap.PAGESIZE // 8
    pages = sum(-(-(n - i) // per_page) for i in range(n))
    bound = pages * mmap.PAGESIZE + 8 * n * 2 * k_hint + 8 * n * (2 * N + 4)
    assert _build_rss_bytes(n, _SPLIT_BUILD, _SPLIT_CONFIG) <= bound


def test_make_spiked_rejects_nonunit():
    with pytest.raises(ValueError):
        sa.make_spiked(1.0, np.ones(10), np.zeros((10, 10)))


def test_make_spiked_rejects_a_nan_v_star():
    v = np.eye(10)[0]
    v[3] = np.nan
    with pytest.raises(ValueError, match=r"unit norm, got .*nan"):
        sa.make_spiked(1.0, v, np.zeros((10, 10)))


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
def test_make_spiked_rejects_nonfinite_lam(lam):
    v = sa.make_signal(kind="z2", n=10, seed=1)
    with pytest.raises(ValueError, match="lam must be finite"):
        sa.make_spiked(lam, v, np.zeros((10, 10)))


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
def test_wigner_upper_triangle_property(n, seed):
    W = sa.sample_wigner(n, seed)
    assert not np.tril(W, -1).any()
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
