"""Attacker-side identification of a one-step linear operator from snapshots."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidInputError

DEFAULT_SVD_TOL = 1e-10


class SnapshotBuffer:
    """Rolling window of eavesdropped stacked states.

    Holds at most width+1 columns; a full buffer's `window` holds the shifted
    data pair X (columns 1..w) and X+ (columns 2..w+1). Single-writer.

    The columns live in a preallocated ring of 2 (width+1) slots, each
    written twice, width+1 apart, so the window is always one contiguous
    slice and X and X+ are views of it.
    """

    def __init__(self, width, dim):
        if width < 1:
            raise InvalidInputError(f"width must be >= 1, got {width}")
        if dim < 1:
            raise InvalidInputError(f"dim must be >= 1, got {dim}")
        self.width = int(width)
        self.dim = int(dim)
        self._ring = np.zeros((self.dim, 2 * (self.width + 1)))
        self._pushed = 0

    def push(self, x):
        """Append one state column, evicting the oldest when over capacity."""
        x = np.asarray(x, float)
        if x.shape != (self.dim,):
            raise InvalidInputError(f"column length {x.shape} != {self.dim}")
        slot = self._pushed % (self.width + 1)
        self._ring[:, slot] = self._ring[:, slot + self.width + 1] = x
        self._pushed += 1

    def __len__(self):
        return min(self._pushed, self.width + 1)

    @property
    def is_full(self):
        return len(self) == self.width + 1

    @property
    def can_fit(self):
        return len(self) >= 2

    @property
    def window(self):
        """Read-only dim x n view of the window's columns, oldest first: X
        is all but its last column and X+ all but its first."""
        start = (self._pushed - len(self)) % (self.width + 1)
        view = self._ring[:, start:start + len(self)]
        view.flags.writeable = False
        return view


@dataclass(frozen=True)
class DmdModel:
    """Least-squares one-step operator with its fit diagnostics.

    `cond` is the kept condition number sig[0] / sig[rank - 1] of the fit's
    snapshot matrix, inf at rank 0. Only `fit` builds one.
    """

    K: np.ndarray
    residual: float
    rank_used: int
    cond: float

    def predict(self, x):
        """One-step prediction K @ x."""
        x = np.asarray(x, float)
        if x.shape != (self.K.shape[1],):
            raise InvalidInputError(f"state length {x.shape} != {self.K.shape[1]}")
        return self.K @ x


def fit(buf: SnapshotBuffer, svd_tol=DEFAULT_SVD_TOL) -> DmdModel:
    """K = X+ pinv(X) with singular values below svd_tol * sigma_max truncated.

    The result minimizes ||X+ - K X||_F over matrices acting on the retained
    row space of X. The residual's norms are taken on the window scaled by
    the power of two of its largest magnitude, which is exact and keeps them
    from overflowing.
    """
    if not buf.can_fit:
        raise InsufficientDataError("need at least 2 snapshot columns to fit")
    window = buf.window
    X, Xp = window[:, :-1], window[:, 1:]
    U, sig, Vt = np.linalg.svd(X, full_matrices=False)
    if sig.size == 0 or sig[0] == 0.0:
        rank = 0
        K = np.zeros((buf.dim, buf.dim))
    else:
        rank = int(np.sum(sig > svd_tol * sig[0]))
        Ur, sr, Vr = U[:, :rank], sig[:rank], Vt[:rank]
        K = ((Xp @ Vr.T) * (1.0 / sr)) @ Ur.T
    cond = sig[0] / sig[rank - 1] if rank else np.inf
    e = -np.frexp(np.abs(window).max())[1]
    num = np.linalg.norm(np.ldexp(Xp - K @ X, e))
    den = np.linalg.norm(np.ldexp(Xp, e))
    residual = float(num / den) if den > 0 else float(num)
    return DmdModel(K=K, residual=residual, rank_used=rank, cond=float(cond))
