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
from .graph import Graph

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
    """Discrete-time double integrator in the plane with sampling period dt."""

    A: np.ndarray
    B: np.ndarray
    dt: float

    def __post_init__(self):
        A, B = expected_matrices(self.dt)
        if not (np.array_equal(self.A, A) and np.array_equal(self.B, B)):
            raise InvalidInputError("A/B do not match the double-integrator template for dt")


def expected_matrices(dt):
    if dt <= 0:
        raise InvalidInputError(f"dt must be positive, got {dt}")
    A = np.array([[1.0, dt, 0.0, 0.0],
                  [0.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, dt],
                  [0.0, 0.0, 0.0, 1.0]])
    B = np.array([[dt * dt / 2.0, 0.0],
                  [dt, 0.0],
                  [0.0, dt * dt / 2.0],
                  [0.0, dt]])
    return A, B


def double_integrator(dt) -> AgentModel:
    """Planar double-integrator model for sampling period dt."""
    A, B = expected_matrices(dt)
    return AgentModel(A=A, B=B, dt=float(dt))


def reference(k) -> np.ndarray:
    """Reference trajectory sample at step k (angles in radians)."""
    if k < 0:
        raise InvalidInputError(f"step index must be >= 0, got {k}")
    return np.array([-k * np.sin(3.0 * k / 100.0), 1.0,
                     -k * np.cos(3.0 * k / 100.0), 1.0])


class ReferenceTrack:
    """Dynamically consistent completion of a reference position track.

    The published reference fixes the position path but its velocity slots are
    not the discrete derivative of that path, so no double integrator can
    follow the raw 4-vector. The track keeps the positions verbatim and solves
    for velocities v and accelerations u so that

        p[k+1] = p[k] + dt*v[k] + dt^2/2*u[k],   v[k+1] = v[k] + dt*u[k]

    hold exactly. The velocity recursion admits a (-1)^k ripple; a one-shot
    least-squares correction removes it so u stays smooth.
    """

    def __init__(self, ref_fn, horizon, dt):
        n = horizon + 2
        ks = np.arange(n + 1)
        samples = np.array([ref_fn(int(k)) for k in ks])
        self.dt = float(dt)
        self.horizon = int(horizon)
        pos = samples[:, [0, 2]]
        vel = np.zeros_like(pos)
        vel[0] = (pos[1] - pos[0]) / dt
        for k in range(n):
            vel[k + 1] = 2.0 * (pos[k + 1] - pos[k]) / dt - vel[k]
        # kill the alternating mode: v + (-1)^k c has minimal roughness
        dv = np.diff(vel, axis=0)
        signs = (-1.0) ** np.arange(len(dv))
        c = (signs[:, None] * dv).sum(axis=0) / (2.0 * len(dv))
        vel += ((-1.0) ** np.arange(n + 1))[:, None] * c
        acc = np.diff(vel, axis=0) / dt
        self.pos = pos
        self.vel = vel
        self.acc = acc

    def target(self, k):
        """Tracked state [px, vx, py, vy] at step k."""
        return np.array([self.pos[k, 0], self.vel[k, 0],
                         self.pos[k, 1], self.vel[k, 1]])

    def feedforward(self, k):
        """Acceleration that keeps the target on the position track at step k."""
        return self.acc[k].copy()


@dataclass
class StackedState:
    """Stacked state of all agents at step k (length 4N, agent-major)."""

    k: int
    x: np.ndarray


@dataclass
class Scenario:
    """Full experiment description: plant, gains, formation, and attack knobs.

    Treated as immutable after construction; runs never mutate it.
    """

    n_agents: int
    agent_model: AgentModel
    graph: Graph
    gain: np.ndarray
    leader_gain: np.ndarray
    formation_offsets: np.ndarray
    reference: Callable[[int], np.ndarray]
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
        if self.horizon_steps < 1:
            raise InvalidInputError("horizon_steps must be >= 1")
        self.track = ReferenceTrack(self.reference, self.horizon_steps,
                                    self.agent_model.dt)

    @property
    def dim(self):
        return STATE_DIM * self.n_agents

    def initial_stacked(self):
        return StackedState(k=0, x=self.initial_states.reshape(-1).copy())


def control_inputs(s: Scenario, state: StackedState, graph: Optional[Graph] = None):
    """Per-agent control inputs (N x 2) at the state's step.

    Followers sum coupling terms over their neighborhoods; the leader adds its
    tracking term against the moving target. All agents share the track's
    feedforward acceleration, which keeps the closed loop on the reference
    (`feedback_inputs` exposes the pure feedback part).
    """
    u = feedback_inputs(s, state, graph)
    u += s.track.feedforward(state.k)[None, :]
    return u


def feedback_inputs(s: Scenario, state: StackedState, graph: Optional[Graph] = None):
    """Coupling and leader-tracking feedback terms only (N x 2).

    Every neighbour term K (x_i - x_j - (o_i - o_j)) is one stacked 2x4 @ 4x1
    product; each agent sums its terms in ascending neighbour order.
    """
    g = s.graph if graph is None else graph
    N = s.n_agents
    x = np.asarray(state.x, float)
    if x.shape != (s.dim,):
        raise InvalidInputError(f"state length {x.shape} != {s.dim}")
    X = x.reshape(N, STATE_DIM)
    nbrs = [g.neighbors(i) for i in range(N)]
    ii = np.repeat(np.arange(N), [len(js) for js in nbrs])
    jj = np.array([j for js in nbrs for j in js], dtype=int)
    off = s.formation_offsets
    dev = X[ii] - X[jj] - (off[ii] - off[jj])
    u = np.zeros((N, INPUT_DIM))
    np.add.at(u, ii, (s.gain @ dev[..., None])[..., 0])
    u[0] += s.leader_gain @ (X[0] - s.track.target(state.k))
    return u


def step(s: Scenario, state: StackedState, fdi: Optional[np.ndarray] = None,
         graph: Optional[Graph] = None, u: Optional[np.ndarray] = None) -> StackedState:
    """One plant step: x_i <- A x_i + B (u_i + u^a_i).

    `fdi` is an optional stacked injection of length 2N entering through the
    same actuator matrix B. `u` optionally supplies this state's
    `control_inputs` (N x 2) when the caller has already computed them. All
    agents update in stacked 4x4 @ 4x1 and 4x2 @ 2x1 products.
    """
    N = s.n_agents
    if fdi is not None:
        fdi = np.asarray(fdi, float)
        if fdi.shape != (INPUT_DIM * N,):
            raise InvalidInputError(f"fdi length {fdi.shape} != {INPUT_DIM * N}")
    if u is None:
        u = control_inputs(s, state, graph)
    if fdi is not None:
        u = u + fdi.reshape(N, INPUT_DIM)
    out = (s.agent_model.A @ state.x.reshape(N, STATE_DIM, 1)
           + s.agent_model.B @ np.asarray(u, float)[..., None])
    return StackedState(k=state.k + 1, x=out.reshape(-1))


def stacked_closed_loop(s: Scenario, graph: Optional[Graph] = None) -> np.ndarray:
    """One-step matrix of the stacked slot-deviation dynamics (4N x 4N).

    Assembled block-wise: block (i,i) = A + |N_i| B K (+ B K1 for the leader),
    block (i,j) = -B K for each neighbor j.
    """
    g = s.graph if graph is None else graph
    N = s.n_agents
    A, B = s.agent_model.A, s.agent_model.B
    BK = B @ s.gain
    M = np.zeros((s.dim, s.dim))
    for i in range(N):
        nbrs = g.neighbors(i)
        M[4 * i:4 * i + 4, 4 * i:4 * i + 4] = A + len(nbrs) * BK
        for j in nbrs:
            M[4 * i:4 * i + 4, 4 * j:4 * j + 4] = -BK
    M[0:4, 0:4] += B @ s.leader_gain
    return M
