"""Per-block loop versions of the `laprec` factor steps, kept as an oracle.

These are `laprec.s_step`, `t_step`, `l_step` and `_offdiag_residual` as they
were before the per-block loops became reductions over one (N, N, 4, 4) block
view of K. The vectorised versions must return the same values
(`np.array_equal`), so `recover` takes the same path sweep for sweep.

`project_laplacian_cone` is the iterative projection that `laprec` used before
its closed form: Dykstra's alternating scheme (Boyle & Dykstra, 1986) between
the subspace {symmetric, zero row sums} and the PSD cone.
"""
import numpy as np

BLOCK = 4
RIDGE = 1e-12
PROJECTION_TOL = 1e-10
PROJECTION_MAX_ITERS = 5000


def _sym_zerosum_project(M):
    """Orthogonal projection onto symmetric matrices with zero row sums."""
    Y = (M + M.T) / 2.0
    n = Y.shape[0]
    y = Y.sum(axis=1)
    s = y.sum() / (2.0 * n)
    a = y / n - s / n
    return Y - np.outer(a, np.ones(n)) - np.outer(np.ones(n), a)


def project_laplacian_cone(M):
    """Nearest (Frobenius) candidate Laplacian to M by Dykstra's scheme, which
    stops when a sweep moves its iterate by at most PROJECTION_TOL."""
    x = np.asarray(M, float).copy()
    p = np.zeros_like(x)
    prev = None
    for _ in range(PROJECTION_MAX_ITERS):
        y = _sym_zerosum_project(x)
        w, V = np.linalg.eigh(y + p)
        x = (V * np.maximum(w, 0.0)) @ V.T
        p = (y + p) - x
        if prev is not None and np.linalg.norm(x - prev) <= PROJECTION_TOL:
            break
        prev = x
    return _sym_zerosum_project(x)


def _blocks(K, i, j):
    return K[BLOCK * i:BLOCK * (i + 1), BLOCK * j:BLOCK * (j + 1)]


def s_step(K, T, L):
    """Exact minimizer over block-diagonal S given T and L."""
    n_agents = K.shape[0] // BLOCK
    S = np.zeros_like(K)
    for i in range(n_agents):
        S[BLOCK * i:BLOCK * (i + 1), BLOCK * i:BLOCK * (i + 1)] = \
            _blocks(K, i, i) - T * L[i, i]
    return S


def t_step(K, L):
    """Least-squares T given L over the off-diagonal blocks."""
    n_agents = K.shape[0] // BLOCK
    num = np.zeros((BLOCK, BLOCK))
    den = 0.0
    for i in range(n_agents):
        for j in range(n_agents):
            if i == j:
                continue
            num += L[i, j] * _blocks(K, i, j)
            den += L[i, j] * L[i, j]  # as laprec.t_step's w * w
    return num / (den + RIDGE)


def l_step(K, T):
    """Least-squares symmetric zero-row-sum L given T."""
    n_agents = K.shape[0] // BLOCK
    tt = float(np.sum(T * T))
    L = np.zeros((n_agents, n_agents))
    for i in range(n_agents):
        for j in range(n_agents):
            if i == j:
                continue
            L[i, j] = np.sum(T * _blocks(K, i, j)) / (tt + RIDGE)
    L = (L + L.T) / 2.0
    np.fill_diagonal(L, -L.sum(axis=1))
    return L


def offdiag_residual(K, L, T):
    """Squared Frobenius residual of kron(L, T) over the off-diagonal blocks."""
    n_agents = K.shape[0] // BLOCK
    total = 0.0
    for i in range(n_agents):
        for j in range(n_agents):
            if i != j:
                total += float(np.sum((_blocks(K, i, j) - T * L[i, j]) ** 2))
    return total
