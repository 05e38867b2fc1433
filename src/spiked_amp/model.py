"""Spiked Wigner instances: M = lam * v v^T + W with exact variance conventions.

A model holds one n x n array, of which only the upper triangle (i <= j) is
written: every product with M reads that triangle alone, and the entries
below the diagonal are zero and never read.  sample_wigner writes the
triangle into an anonymous map whose rows lie ld = 512 k - 1 >= n entries
apart, so that every diagonal entry starts a 4 KB page: row i's upper part
commits ceil((n - i) / 512) pages, and the pages that would hold only lower
entries or padding are never committed.  Each row's normals are drawn
into one scratch row and its upper part is scaled into place, and the
spike is added one row at a time over the signal's support, so building a
model never holds a second n x n temporary.
principal_block gathers a principal block into the map of the M it is
given, rows padded the same way, so taking a block does not hold a second
map either; it returns M's pages past the block's end to the OS as the
gather passes them, so the pages its rows commit below M's diagonal are
not held on top of all of M's tail.  The BLAS matvec reads M in place,
with ld as its leading dimension (_lapack.symv).
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

# the least stretch of dead pages principal_block returns to the OS mid-gather
_RELEASE_BYTES = 1 << 20


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _anonymous_map(size: int) -> mmap.mmap:
    """A zero private anonymous map of `size` bytes, or 8 if `size` is less.

    A page is committed only when it is first written.  Huge pages are
    declined, so a page is 4 KB and an unwritten stretch of a row costs
    nothing once it spans a page.  The map is private because MADV_DONTNEED
    frees the pages of a private map, where on a shared one it would only
    drop them from this process's resident set.
    """
    size = max(size, 8)  # a map cannot be empty
    buf = (mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE) if hasattr(mmap, "MAP_PRIVATE")
           else mmap.mmap(-1, size))
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return buf


def _mapped_zeros(rows: int, cols: int) -> np.ndarray:
    """A zero C-order float64 (rows, cols) array backed by an anonymous map."""
    return np.ndarray((rows, cols), dtype=np.float64, buffer=_anonymous_map(rows * cols * 8))


def _row_stride(n: int) -> int:
    """The least row stride ld >= n, in entries, with ld + 1 a whole number
    of pages, so that entry (i, i) of a matrix with rows ld apart sits at
    byte 8 i (ld + 1) of its map, at the start of a page."""
    per_page = mmap.PAGESIZE // 8
    return per_page * (n // per_page + 1) - 1


def _mapped_triangle(n: int) -> np.ndarray:
    """A zero float64 (n, n) array backed by an anonymous map, its rows
    _row_stride(n) entries apart, so every diagonal entry starts a page and
    writing row i's upper part commits ceil(8 (n - i) / PAGESIZE) pages."""
    ld = _row_stride(n)
    return np.ndarray((n, n), dtype=np.float64, buffer=_anonymous_map(n * ld * 8),
                      strides=(8 * ld, 8))


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


def sample_wigner(n: int, seed: int) -> np.ndarray:
    """Sample the upper triangle of a symmetric noise matrix W.

    Off-diagonal entries are N(0, 1/n), diagonal entries N(0, 2/n), all
    independent up to symmetry.  The result holds W[i, j] for i <= j; the
    entries below the diagonal are zero, and W[j, i] is W[i, j].  The
    buffer is an anonymous map with rows _row_stride(n) entries apart, so
    each diagonal entry starts a page and pages holding only lower entries
    or padding are never committed: about 4 n^2 + 2048 n bytes are
    resident, not 8 n^2.

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
    w = _mapped_triangle(n)
    # the row-major stream of an n x n draw: row i's n normals go to a
    # scratch row, and the last n - i of them, on and above the diagonal,
    # are scaled into w
    scale = np.sqrt(n)
    scratch = np.empty(n)
    for i in range(n):
        rng.standard_normal(out=scratch)
        np.divide(scratch[i:], scale, out=w[i, i:])
    diagonal = rng.standard_normal(out=scratch)
    diagonal *= np.sqrt(2.0 / n)
    np.einsum("ii->i", w)[:] = diagonal
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
    `noise` up, so it must be a writeable float64 array, C-contiguous along
    its rows with rows at least n entries apart, owning its data or backed
    directly by a map, not a view of another array.
    lam must be finite.  v_star is copied; the spike is added row by row
    over its support, so its zero entries cost nothing.
    """
    v_star = np.array(v_star, dtype=np.float64)
    n = v_star.shape[0]
    if v_star.ndim != 1:
        raise ValueError("v_star must be a vector")
    if noise.shape != (n, n):
        raise ValueError(f"noise shape {noise.shape} does not match n={n}")
    needs = {"float64": noise.dtype == np.float64, "writeable": noise.flags.writeable,
             "C-contiguous along its rows, with rows at least n entries apart":
                 noise.strides[1] == 8 and noise.strides[0] >= 8 * n,
             "an array owning its data": (noise.flags.owndata
                                          or isinstance(noise.base, mmap.mmap))}
    for prop, ok in needs.items():
        if not ok:
            raise ValueError(f"noise must be {prop}: make_spiked adds the spike into it")
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam!r}")
    nrm = np.linalg.norm(v_star)
    if not abs(nrm - 1.0) <= 1e-10:  # a NaN norm too
        raise ValueError(f"v_star must be unit norm, got ||v|| = {nrm!r}")
    for i in np.flatnonzero(v_star):
        row = v_star[i] * v_star[i:]
        row *= lam
        noise[i, i:] += row
    return SpikedModel(n=n, lam=float(lam), v_star=_freeze(v_star), observed=_freeze(noise))


def principal_block(M: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The upper triangle of M[index, index], gathered into M's own map.

    M holds the upper triangle of a symmetric matrix, as make_spiked's
    `observed` does, and must be a square float64 array laid out as
    sample_wigner lays it out: backed directly by a map, from the map's
    start, with C-contiguous rows _row_stride(n) entries apart.  M is given
    up: block row a is written at offset a * ld_m of M's map, ld_m =
    _row_stride(m), with zeros below its diagonal, and the pages past the
    block's m * ld_m entries are returned to the OS: while the gather runs,
    each stretch of _RELEASE_BYTES or more that lies before the next source
    row it reads, and the rest at its end.  So M must not be read
    afterwards.  The map is written through an alias, so M's read-only
    flag is never changed.

    index must be a one-dimensional integer array, strictly increasing and
    within [0, n), so that the block's entries (a, b) with a <= b lie in
    M's upper triangle.  The result is the (m, m) block, read-only, as a
    view of the same map, its rows ld_m entries apart.
    """
    ld = _row_stride(M.shape[0] if M.ndim == 2 else 0)
    needs = {"square": M.ndim == 2 and M.shape[0] == M.shape[1],
             "float64": M.dtype == np.float64,
             "backed directly by a map": (isinstance(M.base, mmap.mmap) and M.ctypes.data
                                          == np.frombuffer(M.base, np.uint8).ctypes.data),
             f"C-contiguous in rows {ld} entries apart": M.strides == (8 * ld, 8)}
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
    ld_m = _row_stride(m)
    B = np.ndarray((m, m), dtype=np.float64, buffer=buf, strides=(8 * ld_m, 8))  # a writeable alias
    release = hasattr(mmap, "MADV_DONTNEED")
    # Block row a ends before entry a ld_m + m <= (a+1) ld_m <= (a+1) ld <=
    # index[a+1] ld of the map, where source row index[a+1] begins (ld_m >= m,
    # and ld_m <= ld as m <= n), so no write lands on an entry still to be
    # read.  Block row a may overlap its own source row, hence the scratch
    # row; its entries left of a are zero, and one more is zeroed after each
    # row.  Once row a is written, the pages from `dead`, the first page past
    # the block, up to the diagonal of source row index[a+1], where the next
    # read starts at a page boundary, are neither read nor written again:
    # they go back to the OS as the loop passes them, _RELEASE_BYTES or more
    # at a time, and the rest of the map after the last row.
    dead = -(-8 * m * ld_m // mmap.PAGESIZE) * mmap.PAGESIZE
    row = np.zeros(m)
    for a, i in enumerate(index):
        row[a:] = M[i, index[a:]]
        B[a] = row
        row[a] = 0.0
        live = 8 * int(index[a + 1]) * (ld + 1) if a + 1 < m else dead
        if release and live - dead >= _RELEASE_BYTES:
            buf.madvise(mmap.MADV_DONTNEED, dead, live - dead)
            dead = live
    if release and dead < len(buf):
        buf.madvise(mmap.MADV_DONTNEED, dead)
    return _freeze(B)
