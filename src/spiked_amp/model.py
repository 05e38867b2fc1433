"""Spiked Wigner instances: M = lam * v v^T + W with exact variance conventions.

A model holds one n x n array, of which only the upper triangle (i <= j) is
written: every product with M reads that triangle alone, and the entries
below the diagonal are zero and never read.  sample_wigner writes the
triangle into a buffer backed by an anonymous map, so the pages that would
hold only lower entries are never committed, and the spike is added into
that buffer a few rows at a time through one reused buffer, so building a
model never holds a second n x n temporary.  principal_block gathers a
principal block into the map of the M it is given, so taking a block does
not hold a second map either.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from ._rng import substream

__all__ = [
    "SpikedModel",
    "make_signal",
    "make_spiked",
    "principal_block",
    "sample_wigner",
]

_SIGNAL_KINDS = ("z2", "sparse-dirac")

# rows of normals drawn at once into the reused panel of sample_wigner
_PANEL_ROWS = 32
# rows of the outer product lam v v^T held at once while adding the spike
_SPIKE_ROWS = 8


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _mapped_zeros(rows: int, cols: int) -> np.ndarray:
    """A zero float64 (rows, cols) array backed by a private anonymous map.

    A page is committed only when it is first written.  Huge pages are
    declined, so a page is 4 KB and an unwritten stretch of a row costs
    nothing once it spans a page.  The map is private because MADV_DONTNEED
    frees the pages of a private map, where on a shared one it would only
    drop them from this process's resident set.
    """
    size = max(rows * cols, 1) * 8  # a map cannot be empty
    buf = (mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE) if hasattr(mmap, "MAP_PRIVATE")
           else mmap.mmap(-1, size))
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.ndarray((rows, cols), dtype=np.float64, buffer=buf)


@dataclass(frozen=True)
class SpikedModel:
    """Observed M = lam v* v*^T + W, stored alone; `lam` is the SNR (lambda is reserved).

    `observed` holds M's upper triangle, M[i, j] for i <= j; the entries
    below the diagonal are zero and are never read.
    """

    n: int
    lam: float
    v_star: np.ndarray
    observed: np.ndarray
    sparsity: int | None = None


def sample_wigner(n: int, seed: int) -> np.ndarray:
    """Sample the upper triangle of a symmetric noise matrix W.

    Off-diagonal entries are N(0, 1/n), diagonal entries N(0, 2/n), all
    independent up to symmetry.  The result holds W[i, j] for i <= j; the
    entries below the diagonal are zero, and W[j, i] is W[i, j].  The
    buffer is an anonymous map, so pages holding only lower entries are
    never committed: about 4 n^2 bytes are resident, not 8 n^2.

    Parameters
    ----------
    n : int
        Dimension, at least 1.
    seed : int
        Stream seed; the same seed reproduces the same matrix exactly.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    rng = substream(seed, "wigner")
    w = _mapped_zeros(n, n)
    # the row-major stream of an n x n draw, a few rows at a time; row i
    # keeps its entries from the diagonal on
    scale = np.sqrt(n)
    panel = np.empty((min(_PANEL_ROWS, n), n))
    for b in range(0, n, _PANEL_ROWS):
        rows = panel[:min(_PANEL_ROWS, n - b)]
        rng.standard_normal(out=rows)
        rows /= scale
        for i, row in enumerate(rows, start=b):
            w[i, i:] = row[i:]
    w[np.diag_indices(n)] = rng.standard_normal(n) * np.sqrt(2.0 / n)
    return w


def make_signal(kind: str, n: int, k: int | None = None, seed: int = 0) -> np.ndarray:
    """Build a unit-norm ground-truth signal.

    kind is "z2" (entries +-1/sqrt(n)) or "sparse-dirac" (k nonzeros of equal
    magnitude 1/sqrt(k) with random signs, on a uniform random support).
    """
    if kind not in _SIGNAL_KINDS:
        raise ValueError(f"unknown signal kind {kind!r}")
    if n < 1:
        raise ValueError("n must be positive")
    rng = substream(seed, "signal")
    if kind == "z2":
        return rng.choice([-1.0, 1.0], size=n) / np.sqrt(n)
    if k is None:
        raise ValueError(f"kind {kind!r} requires k")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    support = np.sort(rng.choice(n, size=k, replace=False))
    v = np.zeros(n)
    v[support] = rng.choice([-1.0, 1.0], size=k) / np.sqrt(k)
    return v


def make_spiked(lam: float, v_star: np.ndarray, noise: np.ndarray) -> SpikedModel:
    """observed = lam * v v^T + noise on the upper triangle, built in `noise` and frozen.

    `noise` holds the upper triangle of a symmetric matrix, as sample_wigner
    returns; the spike is added to the entries (i, j) with i <= j and the
    entries below the diagonal are left as they are.  The caller gives
    `noise` up, so it must be a writeable, C-contiguous float64 array owning
    its data or backed directly by a map, not a view of another array.
    lam must be finite.  v_star is copied; its all-zero 8-row blocks add
    nothing and are skipped.
    """
    v_star = np.array(v_star, dtype=np.float64)
    n = v_star.shape[0]
    if v_star.ndim != 1:
        raise ValueError("v_star must be a vector")
    if noise.shape != (n, n):
        raise ValueError(f"noise shape {noise.shape} does not match n={n}")
    needs = {"float64": noise.dtype == np.float64, "writeable": noise.flags.writeable,
             "C-contiguous": noise.flags.c_contiguous,
             "an array owning its data": (noise.flags.owndata
                                          or isinstance(noise.base, mmap.mmap))}
    for prop, ok in needs.items():
        if not ok:
            raise ValueError(f"noise must be {prop}: make_spiked adds the spike into it")
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam!r}")
    nrm = np.linalg.norm(v_star)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"v_star must be unit norm, got ||v|| = {nrm!r}")
    buf = np.empty((min(_SPIKE_ROWS, n), n))
    for b in range(0, n, _SPIKE_ROWS):
        if not v_star[b:b + _SPIKE_ROWS].any():
            continue  # the block would add +-0.0 alone
        rows = buf[:min(_SPIKE_ROWS, n - b)]
        np.multiply(v_star[b:b + _SPIKE_ROWS, None], v_star, out=rows)
        rows *= lam
        for i, row in enumerate(rows, start=b):
            noise[i, i:] += row[i:]
    sparsity = int(np.count_nonzero(v_star))
    return SpikedModel(
        n=n,
        lam=float(lam),
        v_star=_freeze(v_star),
        observed=_freeze(noise),
        sparsity=sparsity if sparsity < n else None,
    )


def principal_block(M: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The upper triangle of M[index, index], gathered into M's own map.

    M holds the upper triangle of a symmetric matrix, as make_spiked's
    `observed` does, and must be a square, C-contiguous float64 array backed
    directly by a map of its own size, as sample_wigner returns.  M is
    given up: block row a is written at offset a * m of M's map, with
    zeros below its diagonal, and the pages past the block's m * m entries
    are returned to the OS, so M must not be read afterwards.  The map is
    written through an alias, so M's read-only flag is never changed.

    index must be a one-dimensional integer array, strictly increasing and
    within [0, n), so that the block's entries (a, b) with a <= b lie in
    M's upper triangle.  The result is the (m, m) block, read-only, as a
    view of the same map.
    """
    needs = {"square": M.ndim == 2 and M.shape[0] == M.shape[1],
             "float64": M.dtype == np.float64, "C-contiguous": M.flags.c_contiguous,
             "backed directly by a map": (isinstance(M.base, mmap.mmap)
                                          and len(M.base) == M.nbytes)}
    for prop, ok in needs.items():
        if not ok:
            raise ValueError(f"M must be {prop}: principal_block gathers the block into M's map")
    index = np.asarray(index)
    n, m = M.shape[0], index.size
    # each test below needs the ones before it to hold
    if index.ndim != 1 or index.dtype.kind not in "iu":
        prop = "a one-dimensional integer array"
    elif np.any(index[1:] <= index[:-1]):
        prop = "strictly increasing"
    elif m and (index[0] < 0 or index[-1] >= n):
        prop = f"within [0, {n})"
    else:
        prop = None
    if prop is not None:
        raise ValueError(f"index must be {prop}: principal_block reads M's upper triangle")
    buf = M.base
    B = np.ndarray((m, m), dtype=np.float64, buffer=buf)  # a writeable alias
    # Block row a ends at entry (a+1) m <= (a+1) n <= index[a+1] n of the
    # map, where source row index[a+1] begins, so no write lands on an
    # entry still to be read.  Block row a may overlap its own source row,
    # hence the scratch row; its entries left of a are zero, and one more
    # is zeroed after each row.
    row = np.zeros(m)
    for a, i in enumerate(index):
        row[a:] = M[i, index[a:]]
        B[a] = row
        row[a] = 0.0
    start = -(-B.nbytes // mmap.PAGESIZE) * mmap.PAGESIZE
    if hasattr(mmap, "MADV_DONTNEED") and start < len(buf):
        buf.madvise(mmap.MADV_DONTNEED, start)
    return _freeze(B)
