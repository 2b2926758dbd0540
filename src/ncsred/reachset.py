"""Polytopic reachability for the identified system under bounded injections.

Reach sets are represented by support values along fixed planar query
directions, lifted into the stacked state space per agent, then intersected
back into per-agent position polygons. Distances between polygons are point
queries against their Minkowski difference.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InvalidInputError

FEAS_TOL = 1e-9
#: face normals closer than this angle (radians) count as one direction
ANGLE_TOL = 1e-12


@dataclass(frozen=True)
class InputPolytope:
    """Convex polygon of admissible per-channel injections, circumscribing a disc.

    Faces are tangent half-planes <normal, u> <= offset; vertices are the
    adjacent tangent-line intersections, counter-clockwise.
    """

    vertices: np.ndarray   # (s, 2)
    normals: np.ndarray    # (s, 2) unit rows
    offsets: np.ndarray    # (s,)

    def contains(self, u, tol=FEAS_TOL):
        u = np.asarray(u, float)
        return bool(np.all(self.normals @ u <= self.offsets + tol))


def circumscribe_ball(rho, s, seed=None, jitter=0.05) -> InputPolytope:
    """s-faced polygon circumscribing the disc of radius rho.

    Faces are tangent to the disc at angles that are uniformly spaced when
    seed is None (axis-aligned for s = 4) and randomly jittered otherwise.
    Jitter is kept small so the vertex radius stays near the regular
    polygon's rho / cos(pi/s); below 0.5 the tangent angles stay strictly
    increasing, so the polygon cannot cross itself.
    """
    if s < 3:
        raise InvalidInputError(f"face count must be >= 3, got {s}")
    if rho <= 0:
        raise InvalidInputError(f"rho must be positive, got {rho}")
    if not 0 <= jitter < 0.5:
        raise InvalidInputError(f"jitter must be in [0, 0.5), got {jitter}")
    base = np.arange(s, dtype=float)
    if seed is not None:
        rng = np.random.default_rng(seed)
        base = base + rng.uniform(-jitter, jitter, size=s)
    angles = 2.0 * np.pi * base / s
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    offsets = np.full(s, float(rho))
    verts = np.empty((s, 2))
    for i in range(s):
        j = (i + 1) % s
        Aij = np.array([normals[i], normals[j]])
        verts[i] = np.linalg.solve(Aij, np.array([rho, rho]))
    return InputPolytope(vertices=verts, normals=normals, offsets=offsets)


def planar_directions(m):
    """m uniformly spaced unit directions in the plane."""
    if m < 3:
        raise InvalidInputError(f"need at least 3 directions, got {m}")
    ang = 2.0 * np.pi * np.arange(m) / m
    return np.column_stack([np.cos(ang), np.sin(ang)])


def embed_input_map(B, agent, n_agents):
    """Stacked injection map (4N x 2) hitting a single agent's actuator."""
    out = np.zeros((4 * n_agents, B.shape[1]))
    out[4 * agent:4 * agent + 4] = B
    return out


def reach_support(K_seq, Bsel, x0, omega: InputPolytope, final_dir):
    """Support value and support point of the h-step reach set along final_dir.

    Costates are back-propagated through the transposed one-step matrices from
    the query direction; the support point is then rolled forward picking, at
    each step, the polytope vertex maximizing the costate inner product. For
    the identified linear system this yields the exact support function of the
    reach set from the point {x0}.
    """
    K_seq = [np.asarray(K, float) for K in K_seq]
    h = len(K_seq)
    if h < 1:
        raise InvalidInputError("horizon must be >= 1")
    x0 = np.asarray(x0, float)
    final_dir = np.asarray(final_dir, float)
    n = x0.shape[0]
    if final_dir.shape != (n,):
        raise InvalidInputError("final_dir length does not match state")
    if abs(np.linalg.norm(final_dir) - 1.0) > 1e-6:
        raise InvalidInputError("final_dir must be a unit vector")
    Bsel = np.asarray(Bsel, float)
    if Bsel.shape[0] != n:
        raise InvalidInputError("Bsel rows do not match state dimension")
    for K in K_seq:
        if K.shape != (n, n):
            raise InvalidInputError("one-step matrix shape mismatch")

    lam = [None] * (h + 1)
    lam[h] = final_dir
    for k in range(h - 1, -1, -1):
        lam[k] = K_seq[k].T @ lam[k + 1]
    x = x0
    for k in range(h):
        w = Bsel.T @ lam[k + 1]
        u = omega.vertices[int(np.argmax(omega.vertices @ w))]
        x = K_seq[k] @ x + Bsel @ u
    return float(final_dir @ x), x


def batch_reach_supports(K_seq, Bsel, x0, omega: InputPolytope, final_dirs):
    """Vectorized `reach_support` over rows of final_dirs; returns (gammas, points).

    `Bsel` (n, 2) and `final_dirs` (m, n) may carry a leading agent axis,
    (A, n, 2) and (A, m, n); gammas are then (A, m) and points (A, m, n).
    Stacked `@` runs one m-row product per agent, so each agent's values are
    bit-identical to its own 2-D call (one flat (A*m)-row product is not:
    BLAS takes another kernel path for larger row counts).
    """
    K_seq = [np.asarray(K, float) for K in K_seq]
    h = len(K_seq)
    F = np.asarray(final_dirs, float)
    Bsel = np.asarray(Bsel, float)
    # costates lam_k, from lam_h = F back, are kept only as their input-channel
    # projections W[k - 1] = lam_k @ Bsel
    W = [None] * h
    lam = F
    for k in range(h - 1, -1, -1):
        W[k] = lam @ Bsel
        if k:
            lam = lam @ K_seq[k]
    X = np.broadcast_to(np.asarray(x0, float), F.shape).copy()
    for k in range(h):
        U = omega.vertices[np.argmax(W[k] @ omega.vertices.T, axis=-1)]
        X = X @ K_seq[k].T
        X += U @ np.swapaxes(Bsel, -1, -2)
    return np.einsum("...ij,...ij->...i", F, X), X


@dataclass
class AgentPolygon:
    """Planar position polygon of one agent's reach set.

    Vertices are the counter-clockwise boundary of the intersection of the
    supporting half-planes <d_k, p> <= gamma_k.
    """

    agent: int
    directions: np.ndarray  # (m, 2)
    supports: np.ndarray    # (m,)
    vertices: np.ndarray    # (v, 2) CCW


@functools.lru_cache(maxsize=16)
def _face_pairs(key, shape):
    """Direction-only part of `halfspace_polygon` for the directions whose
    float64 bytes are `key`.

    Returns, for every non-parallel face pair (i, j), i < j: the indices,
    both normals' components and the determinant. Raises when the directions
    fail to positively span the plane.
    """
    D = np.frombuffer(key, dtype=float).reshape(shape)
    if shape[0] < 3:
        raise DegenerateGeometryError("need at least 3 half-planes")
    ang = np.sort(np.arctan2(D[:, 1], D[:, 0]))
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))
    if gaps.max() >= np.pi - 1e-12:
        raise DegenerateGeometryError("directions do not positively span the plane")
    ii, jj = np.triu_indices(shape[0], k=1)
    a, b = D[ii], D[jj]
    det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    ok = np.abs(det) > 1e-12
    pairs = tuple(np.ascontiguousarray(v[ok]) for v in
                  (ii, jj, a[:, 0], a[:, 1], b[:, 0], b[:, 1], det))
    for v in pairs:
        v.flags.writeable = False
    return pairs


def halfspace_polygon(directions, supports):
    """CCW vertices of the bounded intersection of planar half-planes.

    Intersects all non-parallel face-line pairs and keeps points feasible for
    every half-plane (FEAS_TOL slack), dedupes them within 1e-9 * scale and
    orders them about their centroid. Raises when the directions fail to
    positively span the plane (unbounded set) or when the intersection is
    empty. The direction-only work is cached per direction set.
    """
    D = np.ascontiguousarray(directions, float)
    g = np.asarray(supports, float)
    ii, jj, a0, a1, b0, b1, det = _face_pairs(D.tobytes(), D.shape)
    gi, gj = g[ii], g[jj]
    P = np.empty((len(det), 2))
    with np.errstate(invalid="ignore"):
        P[:, 0] = (gi * b1 - gj * a1) / det
        P[:, 1] = (a0 * gj - b0 * gi) / det
    P = P[np.all(P @ D.T <= g + FEAS_TOL, axis=1)]
    if P.shape[0] == 0:
        raise DegenerateGeometryError("empty half-plane intersection")
    # a point goes when an earlier one lies within 1e-9 * scale
    scale = max(1.0, np.abs(P).max())
    dx = P[:, None, 0] - P[None, :, 0]
    dy = P[:, None, 1] - P[None, :, 1]
    near = np.sqrt(dx * dx + dy * dy) <= 1e-9 * scale
    P = P[~(near & np.tri(len(P), k=-1, dtype=bool)).any(axis=1)]
    centroid = P.mean(axis=0)
    order = np.argsort(np.arctan2(P[:, 1] - centroid[1], P[:, 0] - centroid[0]))
    return P[order]


def agent_polygon(directions, agent, supports) -> AgentPolygon:
    """Per-agent position polygon from its support values."""
    verts = halfspace_polygon(directions, supports)
    return AgentPolygon(agent=int(agent),
                        directions=np.asarray(directions, float),
                        supports=np.asarray(supports, float),
                        vertices=verts)


def _direction_fan(polygons):
    """Shared CCW face normals and the mid-arc directions between them.

    The faces are every polygon's own directions and their negatives, sorted
    by angle, with directions closer than ANGLE_TOL merged. Every edge normal
    of a Minkowski difference of these polygons is then one of the faces.
    """
    D = np.vstack([p.directions for p in polygons])
    D = np.vstack([D, -D])
    ang = np.sort(np.arctan2(D[:, 1], D[:, 0]))
    ang = ang[np.concatenate([[True], np.diff(ang) > ANGLE_TOL])]
    if ang[-1] - ang[0] > 2 * np.pi - ANGLE_TOL:
        ang = ang[:-1]
    mid = 0.5 * (ang + np.append(ang[1:], ang[0] + 2 * np.pi))
    faces = np.column_stack([np.cos(ang), np.sin(ang)])
    arcs = np.column_stack([np.cos(mid), np.sin(mid)])
    return faces, arcs


def _extreme_vertices(P: AgentPolygon, arcs):
    """Vertices of P attaining max and min of <arc, v> for each arc direction."""
    V = np.asarray(P.vertices, float)
    if V.size == 0:
        raise DegenerateGeometryError("empty polygon")
    proj = V[:, :1] * arcs[:, 0] + V[:, 1:] * arcs[:, 1]
    return V[proj.argmax(axis=0)], V[proj.argmin(axis=0)]


def _ring_distances(points, rings, faces):
    """Distances from points (b, 2) to convex rings (m, 2) or (b, m, 2).

    The edge from ring vertex k - 1 to vertex k lies on the face line with
    outward normal faces[k]. A point inside within FEAS_TOL scores exactly 0.
    """
    prev = np.roll(rings, 1, axis=-2)
    E = rings - prev
    W = points[:, None, :] - prev
    inside = (W[..., 0] * faces[:, 0] + W[..., 1] * faces[:, 1]).max(axis=1) <= FEAS_TOL
    L2 = E[..., 0] * E[..., 0] + E[..., 1] * E[..., 1]
    t = W[..., 0] * E[..., 0] + W[..., 1] * E[..., 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.clip(np.where(L2 > 0, t / L2, 0.0), 0.0, 1.0)
    d = np.hypot(W[..., 0] - t * E[..., 0], W[..., 1] - t * E[..., 1]).min(axis=1)
    return np.where(inside, 0.0, d)


def shifted_distances(P: AgentPolygon, Q: AgentPolygon, shifts):
    """Distances between P + s and Q for every row s of `shifts` (k, 2).

    dist(P + s, Q) is the distance from the point s to the Minkowski
    difference Q - P, whose vertices are the differences of the two polygons'
    support points on a shared direction fan (support functions add under
    Minkowski sums), so all shifts cost one vectorised point query.
    """
    faces, arcs = _direction_fan((P, Q))
    _, lo = _extreme_vertices(P, arcs)
    hi, _ = _extreme_vertices(Q, arcs)
    return _ring_distances(np.asarray(shifts, float).reshape(-1, 2), hi - lo, faces)


def pair_distances(polygons):
    """dist(polygons[i], polygons[j]) for every pair i < j, in lexicographic order."""
    faces, arcs = _direction_fan(polygons)
    hi, lo = map(np.array, zip(*(_extreme_vertices(p, arcs) for p in polygons)))
    ii, jj = np.triu_indices(len(polygons), k=1)
    return _ring_distances(np.zeros((len(ii), 2)), hi[jj] - lo[ii], faces)


def polygon_distance(P: AgentPolygon, Q: AgentPolygon) -> float:
    """Euclidean distance between two convex polygons (0 when they intersect)."""
    return float(shifted_distances(P, Q, np.zeros(2))[0])
