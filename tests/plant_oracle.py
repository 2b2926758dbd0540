"""Per-agent loop versions of the plant's feedback, step and closed loop,
kept as oracles.

These are the feedback part of `ncs.control_inputs` and `ncs.step` as they
were before the neighbour terms and agent updates became stacked products:
each neighbour term is its own 2x4 @ 4 product added to u[i] in ascending
neighbour order, and each agent updates with its own 4x4 @ 4 and 4x2 @ 2
products. The stacked versions must return the same bytes.
`stacked_closed_loop` is the block-by-block assembly that
`ncs.stacked_closed_loop` made before it became kron(I, A) + kron(L, B K);
the two must be equal entry for entry.
"""
import numpy as np

from scenario_helpers import offset_difference


def feedback_inputs(s, k, x, graph=None):
    g = s.graph if graph is None else graph
    N = s.n_agents
    X = np.asarray(x, float).reshape(N, 4)
    u = np.zeros((N, 2))
    for i in range(N):
        for j in g.neighbors(i):
            u[i] += s.gain @ (X[i] - X[j] - offset_difference(s, i, j))
    u[0] += s.leader_gain @ (X[0] - s.track.states[k])
    return u


def step(s, x, u, fdi=None):
    N = s.n_agents
    A, B = s.agent_model.A, s.agent_model.B
    X = x.reshape(N, 4)
    out = np.empty_like(X)
    for i in range(N):
        ui = u[i] if fdi is None else u[i] + fdi[2 * i:2 * i + 2]
        out[i] = A @ X[i] + B @ ui
    return out.reshape(-1)


def stacked_closed_loop(s):
    N = s.n_agents
    A, B = s.agent_model.A, s.agent_model.B
    BK = B @ s.gain
    M = np.zeros((s.dim, s.dim))
    for i in range(N):
        nbrs = s.graph.neighbors(i)
        M[4 * i:4 * i + 4, 4 * i:4 * i + 4] = A + len(nbrs) * BK
        for j in nbrs:
            M[4 * i:4 * i + 4, 4 * j:4 * j + 4] = -BK
    M[0:4, 0:4] += B @ s.leader_gain
    return M
