"""`reachset.batch_reach_supports` as it was before it kept run constants,
for one agent, kept as an oracle.

Every step's costate projection and input term is computed from the final
directions, and the forward pass starts from one row of x0 per direction.
The pipeline's version, on a stacked agent axis and with a cached last input
term, must return the same bytes as this loop run agent by agent.
"""
import numpy as np


def reach_supports(K_seq, Bsel, x0, omega, final_dirs):
    """(gammas (m,), points (m, n)) of the h-step reach set from {x0} along
    the rows of final_dirs (m, n), for one agent's Bsel (n, 2)."""
    h = len(K_seq)
    F = np.asarray(final_dirs, float)
    W = [None] * h
    lam = F
    for k in range(h - 1, -1, -1):
        W[k] = lam @ Bsel
        if k:
            lam = lam @ K_seq[k]
    X = np.empty(F.shape)
    X[...] = x0
    for k in range(h):
        U = omega.vertices[np.argmax(W[k] @ omega.vertices.T, axis=-1)]
        X = X @ K_seq[k].T
        X += U @ Bsel.T
    return np.einsum("ij,ij->i", F, X), X


def stacked_reach_supports(K_seq, Bsel, x0, omega, final_dirs):
    """`reach_supports` agent by agent for Bsel (A, n, 2) and final_dirs
    (A, m, n): gammas (A, m) and points (A, m, n)."""
    rows = [reach_supports(K_seq, B, x0, omega, F) for B, F in zip(Bsel, final_dirs)]
    return np.array([g for g, _ in rows]), np.array([p for _, p in rows])
