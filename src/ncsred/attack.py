"""Attack synthesis: target selection, injection choice, and DoS planning."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidInputError
from .graph import Graph, algebraic_connectivity, is_connected, remove_edge
from .reachset import (AgentPolygon, InputPolytope, agent_polygon,
                       batch_reach_supports, embed_input_map, pair_distances,
                       planar_directions, polygon_distance, shifted_distances)

FIEDLER_TIE_TOL = 1e-9
EDGE_THRESHOLD_FACTOR = 0.5


@dataclass(frozen=True)
class AttackConfig:
    """Attacker knobs; defaults reproduce the 5-UAV experiment."""

    rho: float = 0.05
    d_star: float = 1.0
    s: int = 8
    start_step: int = 51
    dos_step: int = 100
    dos_edge: Optional[Tuple[int, int]] = None
    snapshot_width: int = 50
    svd_tol: float = 1e-10
    recovery_svd_tol: float = 1e-2
    refit_every: int = 1
    horizon: int = 1
    n_directions: int = 16
    vertex_jitter: float = 0.05

    def __post_init__(self):
        if self.rho < 0:
            raise InvalidInputError(f"rho must be >= 0, got {self.rho}")
        if self.d_star <= 0:
            raise InvalidInputError(f"d_star must be positive, got {self.d_star}")
        if self.s < 3:
            raise InvalidInputError(f"face count must be >= 3, got {self.s}")
        if self.start_step < 1:
            raise InvalidInputError("start_step must be >= 1")
        if self.snapshot_width < 1:
            raise InvalidInputError("snapshot_width must be >= 1")
        if self.horizon < 1:
            raise InvalidInputError("horizon must be >= 1")
        if self.refit_every < 1:
            raise InvalidInputError("refit_every must be >= 1")
        if self.n_directions < 3:
            raise InvalidInputError("n_directions must be >= 3")


@dataclass
class AttackDecision:
    """One step's injection choice and the separations it was scored on."""

    k: int
    targets: Tuple[int, int]
    u_a: np.ndarray          # stacked injection, length 2N, zero off-target
    separation_before: float
    separation_after: float


def select_targets(polygons):
    """Agent pair whose polygons are farthest apart; lexicographic tie-break."""
    if len(polygons) < 2:
        raise InvalidInputError("need at least 2 agent polygons")
    ii, jj = np.triu_indices(len(polygons), k=1)
    best = int(np.argmax(pair_distances(polygons)))
    return int(ii[best]), int(jj[best])


def agent_reach_polygon(model_K, B, agents, n_agents, x0, omega, n_directions=16,
                        horizon=1) -> list[AgentPolygon]:
    """Position polygons of the agents' h-step reach sets from the current state.

    Returns one AgentPolygon per entry of `agents`, in order. Each agent's
    injection channel is its own actuator block; support queries use fixed
    uniformly spaced planar directions, and all agents' queries run in one
    batched `batch_reach_supports` call.
    """
    agents = np.asarray(agents, dtype=int)
    if agents.ndim != 1:
        raise InvalidInputError("agents must be a sequence of agent indices")
    dirs = planar_directions(n_directions)
    K_seq = [model_K] * horizon
    Bsel = np.stack([embed_input_map(B, a, n_agents) for a in agents])
    rows = np.arange(len(agents))
    lifts = np.zeros((len(agents), len(dirs), 4 * n_agents))
    lifts[rows, :, 4 * agents] = dirs[:, 0]
    lifts[rows, :, 4 * agents + 2] = dirs[:, 1]
    sup, _ = batch_reach_supports(K_seq, Bsel, x0, omega, lifts)
    return [agent_polygon(dirs, a, g) for a, g in zip(agents, sup)]


def synthesize_fdi(k, targets, model, omega: InputPolytope, state, B,
                   n_directions=16, current_polygons=None) -> AttackDecision:
    """Choose the vertex-pair injection that drives the targets' next-step
    reach polygons farthest apart.

    Candidates are all vertex pairs (one vertex per targeted agent) plus the
    zero injection, so the chosen injection never scores below inaction under
    the identified model. Ties keep the earliest vertex-pair candidate.
    `current_polygons` optionally reuses the selection stage's per-agent
    polygons for the before-separation. The candidates are scored on 1-step
    polygons even when the selection used a longer reach horizon, so with
    `horizon > 1` the two separations are on different horizons.
    """
    i, j = targets
    if i == j:
        raise InvalidInputError("targets must be distinct")
    K = model.K
    n = K.shape[0]
    n_agents = n // 4
    x = np.asarray(state, float)
    if x.shape != (n,):
        raise InvalidInputError("state length does not match model")

    Pi0, Pj0 = agent_reach_polygon(K, B, targets, n_agents, K @ x, omega,
                                   n_directions)
    if current_polygons is None:
        sep_before = polygon_distance(
            *agent_reach_polygon(K, B, targets, n_agents, x, omega, n_directions))
    else:
        sep_before = polygon_distance(current_polygons[i], current_polygons[j])

    # reach polygons from a shifted state are exact translates, so candidate
    # (ui, uj) scores dist(Pi0 + delta_i, Pj0 + delta_j) with
    # delta = K (Bi ui + Bj uj); rows are (ui, uj) for ui, uj in the
    # vertices, then the zero injection
    verts = omega.vertices
    s = len(verts)
    Ui = np.vstack([np.repeat(verts, s, axis=0), np.zeros(2)])
    Uj = np.vstack([np.tile(verts, (s, 1)), np.zeros(2)])
    delta = (Ui @ (K @ embed_input_map(B, i, n_agents)).T
             + Uj @ (K @ embed_input_map(B, j, n_agents)).T)
    shifts = delta[:, [4 * i, 4 * i + 2]] - delta[:, [4 * j, 4 * j + 2]]
    scores = shifted_distances(Pi0, Pj0, shifts)
    best = int(np.argmax(scores))

    u_a = np.zeros(2 * n_agents)
    u_a[2 * i:2 * i + 2] = Ui[best]
    u_a[2 * j:2 * j + 2] = Uj[best]
    return AttackDecision(k=int(k), targets=(i, j), u_a=u_a,
                          separation_before=float(sep_before),
                          separation_after=float(scores[best]))


def selection_matrix(targets, n_agents, input_block):
    """Stacked injection map (4N x 2N) active only at the targeted agents."""
    i, j = targets
    if i == j:
        raise InvalidInputError("targets must be distinct")
    for a in (i, j):
        if not 0 <= a < n_agents:
            raise InvalidInputError(f"target {a} out of range")
    input_block = np.asarray(input_block, float)
    out = np.zeros((4 * n_agents, 2 * n_agents))
    for a in (i, j):
        out[4 * a:4 * a + 4, 2 * a:2 * a + 2] = input_block
    return out


def recovered_graph(L_hat, threshold_factor=EDGE_THRESHOLD_FACTOR) -> Graph:
    """Thresholded adjacency of a recovered Laplacian.

    Off-diagonal entries below -threshold_factor * (max off-diagonal
    magnitude) count as edges; the relative rule absorbs the scale ambiguity
    of the Kronecker factorization.
    """
    L_hat = np.asarray(L_hat, float)
    n = L_hat.shape[0]
    off = L_hat - np.diag(np.diag(L_hat))
    mx = np.abs(off).max()
    edges = set()
    if mx > 0:
        for i in range(n):
            for j in range(i + 1, n):
                if min(off[i, j], off[j, i]) < -threshold_factor * mx:
                    edges.add((i, j))
    return Graph(n, frozenset(edges))


@dataclass
class DosPlan:
    """Planned DoS: the vulnerable agent and its believed weakest link."""

    node: int
    edge: Tuple[int, int]


def plan_dos(model, recovery, leader=0) -> Optional[DosPlan]:
    """Pick the DoS victim from the recovered Laplacian's Fiedler vector.

    The node is the non-leader agent with the largest-magnitude Fiedler
    component (ties go to the largest index); the edge is the node's incident
    recovered link whose removal minimizes the recovered graph's algebraic
    connectivity. Returns None when the recovered graph is already
    disconnected. `model` is accepted for interface symmetry with the rest of
    the attack pipeline; the plan depends only on the recovery.
    """
    g = recovered_graph(recovery.model.L)
    if not is_connected(g):
        return None
    _, v = algebraic_connectivity(g)
    best_node = None
    best_mag = -1.0
    for node in range(g.n_nodes):
        if node == leader:
            continue
        mag = abs(v[node])
        # ascending scan, so taking ties hands them to the largest index
        if best_node is None or mag >= best_mag - FIEDLER_TIE_TOL:
            if mag > best_mag:
                best_mag = mag
            best_node = node
    incident = [e for e in sorted(g.edges) if best_node in e]
    best_edge = None
    best_lam = np.inf
    for e in incident:
        g2 = remove_edge(g, *e)
        lam2, _ = algebraic_connectivity(g2)
        if lam2 < best_lam - 1e-12:
            best_lam = lam2
            best_edge = e
    return DosPlan(node=best_node, edge=best_edge)
