"""Spiked Wigner instances: M = lam * v v^T + W with exact variance conventions.

A model holds one n x n array, of which only the upper triangle (i <= j) is
written: every product with M reads that triangle alone, and the entries
below the diagonal are zero and never read.  sample_wigner writes the
triangle into a buffer backed by an anonymous map, so the pages that would
hold only lower entries are never committed, and the spike is added into
that buffer a few rows at a time through one reused buffer, so building a
model never holds a second n x n temporary.
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
    """A zero float64 (rows, cols) array backed by an anonymous map.

    A page is committed only when it is first written.  Huge pages are
    declined, so a page is 4 KB and an unwritten stretch of a row costs
    nothing once it spans a page.
    """
    buf = mmap.mmap(-1, max(rows * cols, 1) * 8)  # a map cannot be empty
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
    v_star is copied.
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
    nrm = np.linalg.norm(v_star)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"v_star must be unit norm, got ||v|| = {nrm!r}")
    buf = np.empty((min(_SPIKE_ROWS, n), n))
    for b in range(0, n, _SPIKE_ROWS):
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
    """The upper triangle of M[index, index], read from the upper triangle of M.

    index must be sorted, so that the block's entries (a, b) with a <= b lie
    in M's upper triangle.  The block's entries below the diagonal are zero;
    like M, it lives in an anonymous map, so their pages are never committed.
    """
    B = _mapped_zeros(index.size, index.size)
    for a, i in enumerate(index):
        B[a, a:] = M[i, index[a:]]
    return B
