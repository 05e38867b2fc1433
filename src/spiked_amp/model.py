"""Spiked Wigner instances: M = lam * v v^T + W with exact variance conventions.

A model holds one n x n array.  sample_wigner fills a single buffer, and the
spike is added into that buffer a few rows at a time through one reused
buffer, so building a model never holds a second n x n temporary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import substream

__all__ = [
    "SpikedModel",
    "make_signal",
    "make_spiked",
    "sample_wigner",
]

_SIGNAL_KINDS = ("z2", "sparse-dirac")

# rows (and columns) per tile when mirroring W
_BLOCK = 256
# rows of the outer product lam v v^T held at once while adding the spike
_SPIKE_ROWS = 8


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SpikedModel:
    """Observed M = lam v* v*^T + W, stored alone; `lam` is the SNR (lambda is reserved)."""

    n: int
    lam: float
    v_star: np.ndarray
    observed: np.ndarray
    sparsity: int | None = None


def sample_wigner(n: int, seed: int) -> np.ndarray:
    """Sample a symmetric noise matrix W.

    Off-diagonal entries are N(0, 1/n), diagonal entries N(0, 2/n), all
    independent up to symmetry.  The upper triangle is sampled and mirrored,
    so W is symmetric bit-for-bit.

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
    w = rng.standard_normal((n, n))
    w /= np.sqrt(n)
    # mirror the upper triangle into the lower one tile by tile, so that no
    # n x n temporary exists; a tile on the diagonal is mirrored row by row
    for b in range(0, n, _BLOCK):
        e = min(b + _BLOCK, n)
        for c in range(e, n, _BLOCK):
            w[c:c + _BLOCK, b:e] = w[b:e, c:c + _BLOCK].T
        for i in range(b + 1, e):
            w[i, b:i] = w[b:i, i]
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
    """observed = lam * v v^T + noise, built in `noise` itself and frozen.

    The caller gives `noise` up, so it must be a writeable, C-contiguous
    float64 array owning its data, as sample_wigner returns.  v_star is copied.
    """
    v_star = np.array(v_star, dtype=np.float64)
    n = v_star.shape[0]
    if v_star.ndim != 1:
        raise ValueError("v_star must be a vector")
    if noise.shape != (n, n):
        raise ValueError(f"noise shape {noise.shape} does not match n={n}")
    needs = {"float64": noise.dtype == np.float64, "writeable": noise.flags.writeable,
             "C-contiguous": noise.flags.c_contiguous,
             "an array owning its data": noise.flags.owndata}
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
        noise[b:b + _SPIKE_ROWS] += rows
    sparsity = int(np.count_nonzero(v_star))
    return SpikedModel(
        n=n,
        lam=float(lam),
        v_star=_freeze(v_star),
        observed=_freeze(noise),
        sparsity=sparsity if sparsity < n else None,
    )
