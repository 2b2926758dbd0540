"""Attack synthesis: target selection, injection choice, and DoS planning."""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .dmd import DEFAULT_SVD_TOL
from .errors import DegenerateGeometryError, InvalidInputError
from .graph import Graph, algebraic_connectivity, is_connected, remove_edge
from .reachset import (DEFAULT_JITTER, AgentPolygon, InputPolytope, _frozen,
                       agent_polygon, batch_reach_supports, embed_input_map,
                       input_image_distances, input_term, pair_distances,
                       pair_indices, planar_directions, polygon_distance)

FIEDLER_TIE_TOL = 1e-9
EDGE_THRESHOLD_FACTOR = 0.5
#: `synthesize_fdi` scores a table of s^2 + 1 candidate injections per step
MAX_FACES = 128
#: each agent's polygon checks its m points against its m faces per step
MAX_DIRECTIONS = 256


@dataclass(frozen=True)
class AttackConfig:
    """Attacker knobs; defaults reproduce the 5-UAV experiment."""

    rho: float = 0.05
    s: int = 8
    start_step: int = 51
    dos_step: int = 100
    dos_edge: Optional[Tuple[int, int]] = None
    snapshot_width: int = 50
    svd_tol: float = DEFAULT_SVD_TOL
    recovery_svd_tol: float = 1e-2
    refit_every: int = 1
    horizon: int = 1
    n_directions: int = 16
    vertex_jitter: float = DEFAULT_JITTER

    def __post_init__(self):
        if not self.rho >= 0:
            raise InvalidInputError(f"rho must be >= 0, got {self.rho}")
        if not np.isfinite(self.rho):
            raise InvalidInputError(f"rho must be finite, got {self.rho}")
        if self.s < 3:
            raise InvalidInputError(f"face count must be >= 3, got {self.s}")
        if self.s > MAX_FACES:
            raise InvalidInputError(
                f"face count must be <= {MAX_FACES}, got {self.s}: each attacked "
                "step scores a table of s^2 + 1 candidate injections")
        if self.start_step < 1:
            raise InvalidInputError("start_step must be >= 1")
        if self.dos_step < 0:
            raise InvalidInputError(f"dos_step must be >= 0, got {self.dos_step}")
        if self.snapshot_width < 1:
            raise InvalidInputError("snapshot_width must be >= 1")
        if self.horizon < 1:
            raise InvalidInputError(f"reach horizon must be >= 1, got {self.horizon}")
        if self.refit_every < 1:
            raise InvalidInputError("refit_every must be >= 1")
        if self.n_directions < 3:
            raise InvalidInputError("n_directions must be >= 3")
        if self.n_directions > MAX_DIRECTIONS:
            raise InvalidInputError(
                f"n_directions must be <= {MAX_DIRECTIONS}, got {self.n_directions}: "
                "each attacked step checks every agent's m points against its "
                "m faces, an m x m table per agent")
        for name in ("svd_tol", "recovery_svd_tol"):
            if not getattr(self, name) >= 0:
                raise InvalidInputError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0 <= self.vertex_jitter < 0.5:
            raise InvalidInputError(
                f"vertex_jitter must be in [0, 0.5), got {self.vertex_jitter}")


@dataclass
class AttackDecision:
    """One step's injection choice and the separations it was scored on."""

    targets: Tuple[int, int]
    u_a: np.ndarray          # stacked injection, length 2N, zero off-target
    separation_before: float
    separation_after: float


def select_targets(polygons):
    """Agent pair whose polygons are farthest apart; lexicographic tie-break."""
    if len(polygons) < 2:
        raise InvalidInputError("need at least 2 agent polygons")
    ii, jj = pair_indices(len(polygons))
    best = int(np.argmax(pair_distances(polygons)))
    return int(ii[best]), int(jj[best])


def agent_reach_polygon(K, B, x0, omega,
                        n_directions=AttackConfig.n_directions,
                        horizon=AttackConfig.horizon) -> tuple[AgentPolygon, ...]:
    """Position polygons of every agent's reach set `horizon` steps of K from
    x0: one `agent_polygon` batch, a polygon per agent in agent order.

    Each agent's injection channel is its own actuator block; support queries
    use fixed uniformly spaced planar directions, and all agents' queries run
    in one batched `batch_reach_supports` call, each agent's rows bit-identical
    to its own call. Supports that overflow raise `DegenerateGeometryError`.
    """
    n_agents = K.shape[0] // 4
    key = (np.asarray(B, float).tobytes(), np.shape(B), n_agents, n_directions)
    dirs, Bsel, lifts, agents = _reach_operands(*key)
    vkey = np.ascontiguousarray(omega.vertices, float).tobytes()
    last = _omega_operands(*key, vkey)[0]
    # overflow is reported by the check below, not by numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        sup, _ = batch_reach_supports(K, horizon, Bsel, x0, omega, lifts, last)
    if not np.isfinite(sup).all():
        raise DegenerateGeometryError("reach supports are not finite")
    return agent_polygon(dirs, agents, sup)


@functools.lru_cache(maxsize=16)
def _reach_operands(bkey, bshape, n_agents, n_directions):
    """Read-only directions, injection maps Bsel, direction lifts and agent
    index 0..N - 1 of `agent_reach_polygon`: they depend only on B, N and m."""
    B = np.frombuffer(bkey).reshape(bshape)
    dirs = planar_directions(n_directions)
    Bsel = np.array([embed_input_map(B, a, n_agents) for a in range(n_agents)])
    # a lift puts each direction on one agent's position coordinates
    lift = np.zeros((4, n_directions))
    lift[::2] = dirs.T
    lifts = np.array([embed_input_map(lift, a, n_agents).T for a in range(n_agents)])
    return _frozen(dirs, Bsel, lifts, np.arange(n_agents))


@functools.lru_cache(maxsize=16)
def _omega_operands(bkey, bshape, n_agents, n_directions, vkey):
    """Read-only run constants that also depend on Omega (vertex bytes `vkey`):
    the reach pass's last input term, whose costates are the lifts themselves,
    and `synthesize_fdi`'s candidate tables (Ui, Uj), whose rows are (ui, uj)
    for ui, uj in the vertices, then the zero injection."""
    _, Bsel, lifts, _ = _reach_operands(bkey, bshape, n_agents, n_directions)
    V = np.frombuffer(vkey).reshape(-1, 2)
    return _frozen(input_term(lifts @ Bsel, V, Bsel),
                   np.vstack([np.repeat(V, len(V), axis=0), np.zeros(2)]),
                   np.vstack([np.tile(V, (len(V), 1)), np.zeros(2)]))


def synthesize_fdi(targets, K, omega: InputPolytope, state, B,
                   polygons) -> AttackDecision:
    """Choose the vertex-pair injection that drives the targets' next-step
    reach polygons under the identified one-step operator K farthest apart.

    Candidates are all vertex pairs (one vertex per targeted agent) plus the
    zero injection, so the chosen injection never scores below inaction under
    the identified model. Ties keep the earliest vertex-pair candidate.
    `polygons` are the selection stage's per-agent polygons, indexed by agent;
    they give the before-separation and the direction count. The candidates
    are scored on 1-step polygons even when the selection used a longer reach
    horizon, so with `horizon > 1` the two separations are on different
    horizons.

    A target's 1-step polygon from K x is its position in c = K K x plus the
    run-constant input image S = {B_pos u : u in omega}. So candidate (ui, uj),
    which moves the targets by delta = K (Bi ui + Bj uj), scores dist(S + s, S)
    with s = delta_i - delta_j + c_i - c_j: a point query against S - S.
    """
    i, j = targets
    if i == j:
        raise InvalidInputError("targets must be distinct")
    n = K.shape[0]
    n_agents = n // 4
    x = np.asarray(state, float)
    if x.shape != (n,):
        raise InvalidInputError("state length does not match K")

    sep_before = polygon_distance(polygons[i], polygons[j])
    m = len(polygons[i].directions)
    key = (np.asarray(B, float).tobytes(), np.shape(B), n_agents, m)
    Bsel = _reach_operands(*key)[1]
    c = K @ (K @ x)
    vkey = np.ascontiguousarray(omega.vertices, float).tobytes()
    _, Ui, Uj = _omega_operands(*key, vkey)
    delta = Ui @ (K @ Bsel[i]).T + Uj @ (K @ Bsel[j]).T
    pi, pj = slice(4 * i, 4 * i + 3, 2), slice(4 * j, 4 * j + 3, 2)
    # column-major, so the ring pass reads each coordinate plane contiguously
    shifts = np.subtract(delta[:, pi], delta[:, pj], order="F")
    shifts += c[pi] - c[pj]
    scores = input_image_distances(omega, B[::2], m, shifts)
    best = int(np.argmax(scores))

    u_a = np.zeros(2 * n_agents)
    u_a[2 * i:2 * i + 2] = Ui[best]
    u_a[2 * j:2 * j + 2] = Uj[best]
    return AttackDecision(targets=(i, j), u_a=u_a,
                          separation_before=float(sep_before),
                          separation_after=float(scores[best]))


def recovered_graph(L_hat) -> Graph:
    """Thresholded adjacency of a recovered Laplacian.

    Off-diagonal entries below -EDGE_THRESHOLD_FACTOR * (max off-diagonal
    magnitude) count as edges; the relative rule absorbs the scale ambiguity
    of the Kronecker factorization.
    """
    L_hat = np.asarray(L_hat, float)
    off = L_hat - np.diag(np.diag(L_hat))
    mx = np.abs(off).max()
    edges = np.argwhere(np.triu(np.minimum(off, off.T) < -EDGE_THRESHOLD_FACTOR * mx, k=1))
    return Graph(len(L_hat), frozenset(map(tuple, edges.tolist())))


@dataclass
class DosPlan:
    """Planned DoS: the vulnerable agent and its believed weakest link."""

    node: int
    edge: Tuple[int, int]


def plan_dos(L_hat) -> Optional[DosPlan]:
    """Pick the DoS victim from the Fiedler vector of the recovered Laplacian.

    The node is the non-leader agent (agent 0 leads, as in `ncs`) with the
    largest-magnitude Fiedler component; ties within FIEDLER_TIE_TOL of it
    go to the largest index. The edge is the node's incident recovered link
    whose removal minimizes the recovered graph's algebraic connectivity.
    Returns None when the recovered graph is already disconnected.
    """
    g = recovered_graph(L_hat)
    if not is_connected(g):
        return None
    _, v = algebraic_connectivity(g)
    mags = np.abs(v[1:])
    best_node = 1 + int(np.flatnonzero(mags >= mags.max() - FIEDLER_TIE_TOL)[-1])
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
