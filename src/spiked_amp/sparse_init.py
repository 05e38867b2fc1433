"""The data-driven initialization for the sparse spike.

sample_split_init runs the N-round random-split procedure (weak-SNR regime):
estimate the spike on a random index block, propagate through the cross
block, soft-threshold, and keep the round whose candidate scores highest on
the complement block.  The estimate is the top eigenvector of the block's
2 k_hint largest diagonal entries: spectral_init on that block, started
from round j's own seed derive_seed(seed, "split-oracle", j) and signed so
that its entry at the block's largest |diagonal| is nonnegative.

The split rounds read the matrix only through _read_block, which reads each
entry from M's upper triangle, a block _READ_PANEL_ROWS rows at a time, and
logs a tag for each phase of access in the round's event log, and each phase
reads only the entries its output needs:

  read:II          diag(M)[I], then the block M[J, J] of the oracle's
                   selection J = I[sel], |J| <= 2 k_hint
  read:IcI         M[I^c, J], because the oracle's estimate is zero off J
  read:score_IcIc  M[I^c[S], I^c[S]] on the support S of the candidate x_j

Tests use that log to check the independence ordering: the complement block
M_{I^c,I^c} is untouched until the candidate x_j is already built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import derive_seed, substream
from .amp import spectral_init
from .denoise import default_tau, soft_threshold
from .model import SpikedModel

__all__ = [
    "InitializationFailureError",
    "SplitRound",
    "default_split_params",
    "sample_split_init",
    "sample_split_rounds",
]


# rows of a block that _read_block gathers at once
_READ_PANEL_ROWS = 128


class InitializationFailureError(RuntimeError):
    """Every split round was skipped; no usable starting vector."""


def _oracle_selection(d: np.ndarray, k_hint: int) -> np.ndarray:
    """Sorted positions of the 2*k_hint largest (signed) diagonal entries d."""
    return np.sort(np.argsort(d)[::-1][: min(2 * k_hint, d.size)])


def _block_top(B: np.ndarray, seed: int) -> np.ndarray | None:
    """Unit top eigenvector of the symmetric block B, signed so that its entry
    at B's largest |diagonal| is nonnegative; None when B is all zero.

    spectral_init(B, seed) computes it, so a non-finite entry of B and an
    overflowing ||B q|| raise ValueError under that function's names.
    """
    if not B.any():
        return None
    y = spectral_init(B, seed).x1
    return -y if y[np.argmax(np.abs(np.diagonal(B)))] < 0.0 else y


@dataclass(frozen=True)
class SplitRound:
    index_set: np.ndarray  # sorted np.intp indices
    complement: np.ndarray
    x_j: np.ndarray | None
    score: float
    skipped: bool
    events: tuple[str, ...]


def _read_block(M: np.ndarray, index: tuple, log: list[str], tag: str) -> np.ndarray:
    """M[index] of the symmetric M, logged as `tag`; consecutive reads under
    one tag log it once.

    `index` is (I, I) for the diagonal entries M[i, i], i in I, or
    np.ix_(rows, cols) for a block.  M holds its upper triangle, so entry
    (i, j) is read at (min(i, j), max(i, j)).  A block is gathered into its
    result _READ_PANEL_ROWS rows at a time, so the index arrays of that
    gather are a panel's size, not the block's.  The module docstring lists
    what each tag reads.
    """
    if not log or log[-1] != tag:
        log.append(tag)
    rows, cols = index
    if rows.ndim == 1:
        return M[np.minimum(rows, cols), np.maximum(rows, cols)]
    block = np.empty((rows.shape[0], cols.shape[1]), dtype=M.dtype)
    for a in range(0, rows.shape[0], _READ_PANEL_ROWS):
        panel = rows[a:a + _READ_PANEL_ROWS]
        block[a:a + _READ_PANEL_ROWS] = M[np.minimum(panel, cols), np.maximum(panel, cols)]
    return block


def default_split_params(n: int, k: int) -> tuple[float, int, float]:
    """(p, N, tau1) at the reference operating point for sparsity k."""
    p = min(4.0 * np.log(n) / k, 0.9)
    N = int(np.ceil(np.log(n)))
    tau1 = default_tau(n)
    return p, N, tau1


def _split_round(M: np.ndarray, I: np.ndarray, Ic: np.ndarray, tau1: float, k_hint: int,
                 oracle_seed: int, log: list[str]) -> tuple[np.ndarray | None, float]:
    """(x_j, score) of one split round, or (None, -inf) when it is skipped."""
    if I.size == 0 or Ic.size == 0:
        return None, float("-inf")
    # the oracle on M_II, reading its diagonal and the selected block only
    sel = _oracle_selection(_read_block(M, (I, I), log, "read:II"), k_hint)
    J = I[sel]
    y = _block_top(_read_block(M, np.ix_(J, J), log, "read:II"), oracle_seed)
    if y is None:  # an all-zero block: the oracle's e_1, column I[0]
        J, y = I[:1], np.ones(1)
    log.append("oracle")
    v_j = _read_block(M, np.ix_(Ic, J), log, "read:IcI") @ y
    x_raw = soft_threshold(v_j, tau1)
    nrm = float(np.linalg.norm(x_raw))
    if nrm == 0.0:
        return None, float("-inf")
    x_j = x_raw / nrm
    log.append("xj_built")
    S = np.flatnonzero(x_j)
    x_S = x_j[S]
    return x_j, float(x_S @ _read_block(M, np.ix_(Ic[S], Ic[S]), log, "read:score_IcIc") @ x_S)


def sample_split_rounds(
    model: SpikedModel,
    p: float,
    N: int,
    tau1: float,
    seed: int,
    k_hint: int | None = None,
) -> list[SplitRound]:
    """Run all N split rounds and return them, skipped ones included.

    A round is skipped when its partition leaves either block empty or when
    the soft-threshold wipes the propagated vector to zero; skipped rounds
    carry score -inf so the argmax never picks them.  k_hint defaults to
    max(1, round(k p)) with k the support size of model.v_star, so a model
    with a dense signal uses k = n.
    """
    n = model.n
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    if p * n < 2:
        raise ValueError("p * n must be at least 2")
    if N < 1:
        raise ValueError("N must be positive")
    if tau1 <= 0:
        raise ValueError("tau1 must be positive")
    if k_hint is None:
        k_hint = max(1, round(np.count_nonzero(model.v_star) * p))
    if k_hint < 1:
        raise ValueError(f"k_hint must be at least 1, got {k_hint}")
    rounds: list[SplitRound] = []
    for j in range(N):
        mask = substream(seed, "split-round", j).random(n) < p
        I, Ic = np.flatnonzero(mask), np.flatnonzero(~mask)
        log: list[str] = []
        x_j, score = _split_round(model.observed, I, Ic, tau1, k_hint,
                                  derive_seed(seed, "split-oracle", j), log)
        rounds.append(SplitRound(index_set=I, complement=Ic, x_j=x_j, score=score,
                                 skipped=x_j is None, events=tuple(log)))
    return rounds


def sample_split_init(
    model: SpikedModel,
    p: float,
    N: int,
    tau1: float,
    seed: int,
    k_hint: int | None = None,
) -> SplitRound:
    """The winning split round; its x_j is the unit candidate over I^c.

    The caller is expected to run AMP on the complement block
    M[complement, complement], not on the full matrix.
    """
    rounds = sample_split_rounds(model, p, N, tau1, seed, k_hint=k_hint)
    live = [r for r in rounds if not r.skipped]
    if not live:
        raise InitializationFailureError(f"all {N} split rounds were skipped")
    return max(live, key=lambda r: r.score)
