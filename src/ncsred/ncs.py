"""Ground-truth plant: double-integrator agents under distributed formation control.

State ordering per agent is [x, vx, y, vy]; the stacked state concatenates the
agents in index order (agent 0 first). Agent 0 is the leader.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .attack import AttackConfig
from .errors import InvalidInputError
from .graph import Graph, laplacian

STATE_DIM = 4
INPUT_DIM = 2

#: printed coupling gain of the 5-UAV experiment
DEFAULT_GAIN = np.array([[-0.2263, -0.4712, 0.0, 0.0],
                         [0.0, 0.0, -0.2263, -0.4712]])

#: leader tracking gain; the experiment only fixes the coupling gain, so this
#: is a workbench default chosen to anchor the formation without swamping the
#: coupling terms (see README)
DEFAULT_LEADER_GAIN = np.array([[-5.0, -2.0, 0.0, 0.0],
                                [0.0, 0.0, -5.0, -2.0]])

#: desired formation: leader at the origin, wingmen below, outriders abeam
DEFAULT_OFFSETS = np.array([
    [0.0, 0.0, 0.0, 0.0],
    [-4.0, 0.0, -3.0, 0.0],
    [4.0, 0.0, -3.0, 0.0],
    [-8.0, 0.0, 0.0, 0.0],
    [8.0, 0.0, 0.0, 0.0],
])

DEFAULT_EDGES = frozenset({(0, 1), (0, 2), (1, 3), (2, 4)})


@dataclass(frozen=True)
class AgentModel:
    """Discrete-time double integrator in the plane with sampling period dt;
    A and B follow from dt."""

    dt: float
    A: np.ndarray = field(init=False)
    B: np.ndarray = field(init=False)

    def __post_init__(self):
        dt = self.dt
        if not dt > 0:
            raise InvalidInputError(f"dt must be positive, got {dt}")
        if not np.isfinite(dt):
            raise InvalidInputError(f"dt must be finite, got {dt}")
        object.__setattr__(self, "A", np.array([[1.0, dt, 0.0, 0.0],
                                                [0.0, 1.0, 0.0, 0.0],
                                                [0.0, 0.0, 1.0, dt],
                                                [0.0, 0.0, 0.0, 1.0]]))
        object.__setattr__(self, "B", np.array([[dt * dt / 2.0, 0.0],
                                                [dt, 0.0],
                                                [0.0, dt * dt / 2.0],
                                                [0.0, dt]]))
        if not np.isfinite(self.B).all():  # A's entries are dt, 1 and 0
            raise InvalidInputError(f"dt = {dt} makes B not finite: "
                                    "dt * dt / 2 overflows")


def reference(k) -> np.ndarray:
    """Reference [px, vx, py, vy] per step of k, an int or int array (radians)."""
    k = np.asarray(k)
    if k.size and k.min() < 0:
        raise InvalidInputError(f"step index must be >= 0, got {k.min()}")
    a, one = 3.0 * k / 100.0, np.ones(k.shape)
    return np.stack([-k * np.sin(a), one, -k * np.cos(a), one], axis=-1)


class ReferenceTrack:
    """Dynamically consistent completion of a reference position track.

    The published reference fixes the position path but its velocity slots are
    not the discrete derivative of that path, so no double integrator can
    follow the raw 4-vector. The track keeps the positions verbatim and solves
    for velocities v and accelerations u so that

        p[k+1] = p[k] + dt*v[k] + dt^2/2*u[k],   v[k+1] = v[k] + dt*u[k]

    hold exactly. The velocity recursion admits a (-1)^k ripple; a one-shot
    least-squares correction removes it so u stays smooth.

    `ref_fn` maps the integer array of steps 0..horizon+2 to one finite row
    each. v[k+1] = a[k] - v[k] runs as a cumulative sum of (-1)^k v[k], which
    rounds like the sequential loop; zeros are redone in order for their sign.
    """

    def __init__(self, ref_fn, horizon, dt):
        n = horizon + 2
        samples = np.asarray(ref_fn(np.arange(n + 1)), float)
        if samples.shape != (n + 1, STATE_DIM):
            raise InvalidInputError(f"reference gave {samples.shape}, expected {(n + 1, 4)}")
        finite = np.isfinite(samples).all(axis=1)
        if not finite.all():
            raise InvalidInputError(f"reference step {np.argmin(finite)} is not finite")
        # one contiguous row per coordinate: the ripple sums then add each
        # coordinate pairwise, as they did on the loop's column-major arrays
        pos = samples.T[[0, 2]]
        a = 2.0 * np.diff(pos) / dt
        signs = (-1.0) ** np.arange(n + 1)
        w = np.hstack([(pos[:, 1:2] - pos[:, :1]) / dt, signs[1:] * a])
        vel = signs * np.cumsum(w, axis=1)
        for col, k in zip(*np.nonzero(vel[:, 1:] == 0.0)):
            vel[col, k + 1] = a[col, k] - vel[col, k]
        # kill the alternating mode: v + (-1)^k c has minimal roughness
        dv = np.diff(vel)
        c = (signs[:-1] * dv).sum(axis=1, keepdims=True) / (2.0 * dv.shape[1])
        vel += signs * c
        self.acc = (np.diff(vel) / dt).T
        #: tracked state [px, vx, py, vy] per step
        self.states = np.stack([pos[0], vel[0], pos[1], vel[1]], axis=1)


@dataclass
class Scenario:
    """Full experiment description: plant, gains, formation, and attack knobs.

    Treated as immutable after construction; runs never mutate it.
    `reference` maps an integer array of n steps to their (n, 4) samples.
    """

    n_agents: int
    agent_model: AgentModel
    graph: Graph
    gain: np.ndarray
    leader_gain: np.ndarray
    formation_offsets: np.ndarray
    reference: Callable[[np.ndarray], np.ndarray]
    horizon_steps: int
    initial_states: np.ndarray
    rng_seed: int
    attack: AttackConfig = field(default_factory=AttackConfig)

    def __post_init__(self):
        N = self.n_agents
        if N < 1:
            raise InvalidInputError("n_agents must be >= 1")
        if self.graph.n_nodes != N:
            raise InvalidInputError("graph size does not match n_agents")
        self.gain = np.asarray(self.gain, float)
        self.leader_gain = np.asarray(self.leader_gain, float)
        self.formation_offsets = np.asarray(self.formation_offsets, float)
        self.initial_states = np.asarray(self.initial_states, float)
        if self.gain.shape != (INPUT_DIM, STATE_DIM):
            raise InvalidInputError("gain must be 2x4")
        if self.leader_gain.shape != (INPUT_DIM, STATE_DIM):
            raise InvalidInputError("leader_gain must be 2x4")
        if self.formation_offsets.shape != (N, STATE_DIM):
            raise InvalidInputError("formation_offsets must be N x 4")
        if self.initial_states.shape != (N, STATE_DIM):
            raise InvalidInputError("initial_states must be N x 4")
        for name in ("gain", "leader_gain", "formation_offsets", "initial_states"):
            v = getattr(self, name)
            if not np.isfinite(v).all():
                i, j = np.argwhere(~np.isfinite(v))[0]
                raise InvalidInputError(f"{name}[{i}, {j}] is {v[i, j]}, not finite")
        if self.horizon_steps < 1:
            raise InvalidInputError("horizon_steps must be >= 1")
        self.track = ReferenceTrack(self.reference, self.horizon_steps,
                                    self.agent_model.dt)

    @property
    def dim(self):
        return STATE_DIM * self.n_agents


def neighbor_index(g: Graph, offsets: np.ndarray):
    """Index arrays (ii, jj) of g's neighbour terms, in (i, ascending j)
    order, and their slot offset differences offsets[ii] - offsets[jj]; a run
    builds them once per active graph."""
    nbrs = [g.neighbors(i) for i in range(g.n_nodes)]
    ii = np.repeat(np.arange(g.n_nodes), [len(js) for js in nbrs])
    jj = np.array([j for js in nbrs for j in js], dtype=int)
    return ii, jj, offsets[ii] - offsets[jj]


def control_inputs(s: Scenario, k: int, x: np.ndarray, index=None):
    """Per-agent control inputs (N x 2) at step k and stacked state x.

    Followers sum coupling terms over their neighborhoods; the leader adds its
    tracking term against the moving target. All agents share the track's
    feedforward acceleration, which keeps the closed loop on the reference.
    Every neighbour term K (x_i - x_j - (o_i - o_j)) is one stacked 2x4 @ 4x1
    product; each agent sums its terms in ascending neighbour order. `index`
    is a graph's `neighbor_index(g, s.formation_offsets)`, whose offset
    differences are run constants; it defaults to the scenario graph's.
    k must index a track row: 0 <= k < len(s.track.acc).
    """
    N = s.n_agents
    n_rows = len(s.track.acc)
    if not 0 <= k < n_rows:
        raise InvalidInputError(f"step k must be in 0..{n_rows - 1}, got {k}")
    x = np.asarray(x, float)
    if x.shape != (s.dim,):
        raise InvalidInputError(f"state length {x.shape} != {s.dim}")
    X = x.reshape(N, STATE_DIM)
    ii, jj, doff = (neighbor_index(s.graph, s.formation_offsets)
                    if index is None else index)
    dev = X.take(ii, 0)
    dev -= X.take(jj, 0)
    dev -= doff
    u = np.zeros((N, INPUT_DIM))
    np.add.at(u, ii, (s.gain @ dev[..., None])[..., 0])
    u[0] += s.leader_gain @ (X[0] - s.track.states[k])
    u += s.track.acc[k]
    return u


def step(s: Scenario, x: np.ndarray, u: np.ndarray,
         fdi: Optional[np.ndarray] = None) -> np.ndarray:
    """Next stacked state: x_i <- A x_i + B (u_i + u^a_i).

    `x` is the stacked state (length 4N), `u` this state's `control_inputs`
    (N x 2); `fdi` is an optional stacked injection of length 2N entering
    through the same actuator matrix B. All agents update in stacked
    4x4 @ 4x1 and 4x2 @ 2x1 products.
    """
    N = s.n_agents
    x = np.asarray(x, float)
    if x.shape != (s.dim,):
        raise InvalidInputError(f"state length {x.shape} != {s.dim}")
    u = np.asarray(u, float)
    if u.shape != (N, INPUT_DIM):
        raise InvalidInputError(f"inputs shape {u.shape} != {(N, INPUT_DIM)}")
    if fdi is not None:
        fdi = np.asarray(fdi, float)
        if fdi.shape != (INPUT_DIM * N,):
            raise InvalidInputError(f"fdi length {fdi.shape} != {INPUT_DIM * N}")
        u = u + fdi.reshape(N, INPUT_DIM)
    out = s.agent_model.A @ x.reshape(N, STATE_DIM, 1)
    out += s.agent_model.B @ u[..., None]
    return out.reshape(-1)


def stacked_closed_loop(s: Scenario) -> np.ndarray:
    """One-step matrix (4N x 4N) of the stacked slot-deviation dynamics:
    kron(I, A) + kron(L, B K) for the graph's Laplacian L, the S + kron(L, T)
    shape that `laprec` recovers, plus B K1 on the leader's diagonal block."""
    A, B = s.agent_model.A, s.agent_model.B
    M = np.kron(np.eye(s.n_agents), A) + np.kron(laplacian(s.graph), B @ s.gain)
    M[0:4, 0:4] += B @ s.leader_gain
    return M
