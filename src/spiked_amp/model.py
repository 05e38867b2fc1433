"""Spiked Wigner instances: M = lam * v v^T + W with exact variance conventions.

A model holds one n x n array.  sample_wigner fills a single buffer, and the
spike is added into that buffer in row blocks, so building a model never
holds a second n x n temporary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import substream

__all__ = [
    "SignalSpec",
    "SpikedModel",
    "make_signal",
    "make_spiked",
    "sample_wigner",
]

_SIGNAL_KINDS = ("z2", "sparse-dirac")

# rows (and columns) per block when mirroring W or adding the spike into it
_BLOCK = 256


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SignalSpec:
    """Recipe for a ground-truth signal vector.

    kind is "z2" (entries +-1/sqrt(n)) or "sparse-dirac" (k nonzeros of equal
    magnitude 1/sqrt(k) with random signs, on a uniform random support).
    """

    kind: str
    n: int
    k: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _SIGNAL_KINDS:
            raise ValueError(f"unknown signal kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.kind != "z2":
            if self.k is None:
                raise ValueError(f"kind {self.kind!r} requires k")
            if not 1 <= self.k <= self.n:
                raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")


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


def make_signal(spec: SignalSpec) -> np.ndarray:
    """Build the unit-norm signal described by `spec`."""
    rng = substream(spec.seed, "signal")
    n = spec.n
    if spec.kind == "z2":
        return rng.choice([-1.0, 1.0], size=n) / np.sqrt(n)
    support = np.sort(rng.choice(n, size=spec.k, replace=False))
    v = np.zeros(n)
    v[support] = rng.choice([-1.0, 1.0], size=spec.k) / np.sqrt(spec.k)
    return v


def make_spiked(lam: float, v_star: np.ndarray, noise: np.ndarray) -> SpikedModel:
    """Assemble observed = lam * v v^T + noise; neither input is kept or frozen."""
    return _assemble(lam, v_star, np.array(noise, dtype=np.float64))


def _assemble(lam: float, v_star: np.ndarray, noise: np.ndarray) -> SpikedModel:
    """make_spiked that adds the spike into `noise` itself and keeps it as M.

    `noise` must be a writeable float64 array the caller gives up.
    """
    v_star = np.array(v_star, dtype=np.float64)
    n = v_star.shape[0]
    if v_star.ndim != 1:
        raise ValueError("v_star must be a vector")
    if noise.shape != (n, n):
        raise ValueError(f"noise shape {noise.shape} does not match n={n}")
    nrm = np.linalg.norm(v_star)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"v_star must be unit norm, got ||v|| = {nrm!r}")
    for b in range(0, n, _BLOCK):
        noise[b:b + _BLOCK] += lam * np.outer(v_star[b:b + _BLOCK], v_star)
    sparsity = int(np.count_nonzero(v_star))
    return SpikedModel(
        n=n,
        lam=float(lam),
        v_star=_freeze(v_star),
        observed=_freeze(noise),
        sparsity=sparsity if sparsity < n else None,
    )
