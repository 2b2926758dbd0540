"""Recover communication structure from an identified operator.

Fits K ~ S + kron(L, T) with S block-diagonal (per-agent 4x4 blocks), T a 4x4
coupling template, and L constrained to the candidate-Laplacian cone
(symmetric, zero row sums, positive semi-definite). Alternating closed-form /
least-squares steps on the Frobenius objective (the cone projection is exact)
replace an interior-point solver; the reported certificate gamma is the
residual spectral norm, the value a Schur-complement feasibility block certifies.

Because the free block-diagonal S absorbs every diagonal block exactly, the
diagonal carries no information about T or L; the L and T updates therefore
minimize the objective jointly with the optimal S (variable projection over
the off-diagonal blocks, with L's diagonal pinned by the zero-row-sum
constraint). Keeping the diagonal terms in those updates would only feed the
previous iterate back in and slow convergence from a couple of sweeps to a
geometric crawl. The sweeps start from T = I and draw nothing: (c L, T / c)
composes the same K, and any start c I only rescales the iterates (`recover`).
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

BLOCK = 4
RIDGE = 1e-12


@dataclass
class KroneckerModel:
    """Factors of the structured approximation K ~ S + kron(L, T)."""

    S: np.ndarray
    T: np.ndarray
    L: np.ndarray

    def compose(self):
        return self.S + np.kron(self.L, self.T)


@dataclass
class RecoveryResult:
    model: KroneckerModel
    gamma: float
    frobenius_residual: float
    iterations: int
    trace: list            # best-so-far gamma per sweep
    frobenius_trace: list
    converged: bool


def _sym_zerosum_project(M):
    """Orthogonal projection onto symmetric matrices with zero row sums."""
    Y = (M + M.T) / 2.0
    n = Y.shape[0]
    y = Y.sum(axis=1)
    s = y.sum() / (2.0 * n)
    a = y / n - s / n
    return Y - (a[:, None] + a)  # exactly symmetric: a[i] + a[j] == a[j] + a[i]


def project_laplacian_cone(M):
    """Nearest (Frobenius) candidate Laplacian to M, in closed form.

    The cone lies in the subspace {symmetric, zero row sums}, so its point
    nearest M is its point nearest M's subspace projection Y. Clipping Y's
    negative eigenvalues gives the nearest PSD matrix (Higham, LAA 1988),
    which stays in the subspace: the all-ones vector is an eigenvector of Y
    of eigenvalue 0, the others are orthogonal to it.
    """
    M = np.asarray(M, float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError("projection input must be square")
    w, V = np.linalg.eigh(_sym_zerosum_project(M))
    return _sym_zerosum_project((V * np.maximum(w, 0.0)) @ V.T)


def _block_view(K):
    """(N, N, 4, 4) view of K whose entry [i, j] is the (i, j) agent block."""
    n = K.shape[0] // BLOCK
    return K.reshape(n, BLOCK, n, BLOCK).swapaxes(1, 2)


def _seq_sum(values):
    """Left-to-right float sum (np.sum would sum pairwise and round differently)."""
    return functools.reduce(operator.add, values.tolist(), 0.0)


def s_step(K, T, L):
    """Exact minimizer over block-diagonal S given T and L."""
    S = np.zeros_like(K)
    d = np.arange(K.shape[0] // BLOCK)
    _block_view(S)[d, d] = _block_view(K)[d, d] - T * L[d, d, None, None]
    return S


def t_step(K, L):
    """Least-squares T given L, with S eliminated at its optimum.

    Only off-diagonal blocks inform T (S absorbs the diagonal exactly). T
    scales as 1 / L; RIDGE makes it zero when L has no off-diagonal mass.
    """
    off = ~np.eye(len(L), dtype=bool)
    w = L[off]
    # reducing over the leading axis adds the blocks one after another
    num = np.add.reduce(w[:, None, None] * _block_view(K)[off], axis=0)
    return num / (_seq_sum(w * w) + RIDGE)


def l_step(K, T):
    """Least-squares symmetric zero-row-sum L given T, with S at its optimum.

    Off-diagonal entries are the per-block least squares against T; the
    diagonal follows from the zero-row-sum constraint (the objective is flat
    in it once S is optimal). The caller projects the result onto the
    candidate-Laplacian cone for positive semi-definiteness. L scales as
    1 / T; RIDGE makes it zero when T is.
    """
    n_agents = K.shape[0] // BLOCK
    # each block's 16 products summed on their own, as np.sum of one block
    L = (_block_view(K) * T).reshape(n_agents, n_agents, BLOCK * BLOCK).sum(-1)
    L /= float(np.sum(T * T)) + RIDGE
    np.fill_diagonal(L, 0.0)
    L = (L + L.T) / 2.0
    np.fill_diagonal(L, -L.sum(axis=1))
    return L


def _offdiag_residual(K, L, T):
    off = ~np.eye(len(L), dtype=bool)
    R = _block_view(K)[off] - T * L[off][:, None, None]
    return _seq_sum((R ** 2).reshape(len(R), BLOCK * BLOCK).sum(-1))


def residual_gamma(K, model: KroneckerModel):
    R = K - model.compose()
    return float(np.linalg.norm(R, 2)), float(np.linalg.norm(R))


def schur_block(R, gamma):
    """Feasibility block [[gamma I, R], [R^T, gamma I]]; PSD iff ||R||_2 <= gamma."""
    R = np.asarray(R, float)
    m, n = R.shape
    return np.block([[gamma * np.eye(m), R], [R.T, gamma * np.eye(n)]])


def recover(K, threshold=1e-6, max_iters=100) -> RecoveryResult:
    """Alternate L/S/T updates until the certificate stops improving.

    One iteration is a full (L, S, T) sweep from T, which starts at I: a start
    c I scales every L by 1 / c and every T by c (l_step divides by ||T||^2,
    the cone projection is positively homogeneous, t_step divides by
    ||L||^2), so S + kron(L, T), gamma and the edge pattern stay the same.
    The L update tries both sign branches (flipping T along with L) because
    the cone projection annihilates negated Laplacians; the better branch is
    kept. The best iterate by gamma is returned; `converged` is False when
    max_iters sweeps pass without the improvement dropping below `threshold`.
    """
    K = np.asarray(K, float)
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] % BLOCK:
        raise InvalidInputError("K must be square with side divisible by 4")
    if not np.isfinite(K).all():
        i, j = np.argwhere(~np.isfinite(K))[0]
        raise InvalidInputError(f"K[{i}, {j}] is {K[i, j]}, not finite")
    if not threshold >= 0:
        raise InvalidInputError(f"threshold must be >= 0, got {threshold}")
    if max_iters < 1:
        raise InvalidInputError(f"max_iters must be >= 1, got {max_iters}")

    T = np.eye(BLOCK)  # L and S need no start: each sweep fits L to T first

    best_gamma = np.inf
    best_frob = np.inf
    best_model = None
    trace = []
    frob_trace = []
    converged = False
    for sweeps in range(1, max_iters + 1):
        L_raw = l_step(K, T)
        L_pos = project_laplacian_cone(L_raw)
        L_neg = project_laplacian_cone(-L_raw)
        if _offdiag_residual(K, L_neg, -T) < _offdiag_residual(K, L_pos, T):
            L, T = L_neg, -T
        else:
            L = L_pos
        T = t_step(K, L)
        S = s_step(K, T, L)

        model = KroneckerModel(S=S, T=T, L=L)
        gamma, frob = residual_gamma(K, model)
        improvement = best_gamma - gamma
        if gamma < best_gamma:
            best_gamma, best_frob, best_model = gamma, frob, model
        trace.append(best_gamma)
        frob_trace.append(best_frob)
        # a sweep that fails to improve gamma by the threshold ends the run
        if improvement < threshold:
            converged = True
            break

    return RecoveryResult(model=best_model, gamma=best_gamma,
                          frobenius_residual=best_frob, iterations=sweeps,
                          trace=trace, frobenius_trace=frob_trace,
                          converged=converged)
