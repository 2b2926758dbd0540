"""Polytopic reachability for the identified system under bounded injections.

Reach sets are represented by support values along fixed planar query
directions, lifted into the stacked state space per agent, then intersected
back into per-agent position polygons. Distances between polygons are point
queries against their Minkowski difference.

A polygon's faces meet only their angular neighbours (`agent_polygon`): m
points per polygon give its extreme vertices on the direction fan, and its
vertex ring is built only when read. Rows where an adjacent point fails a
half-plane, and direction sets with (nearly) parallel neighbours, take the
all-pairs pass (`_ccw_batch`) instead, row by row.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InvalidInputError

FEAS_TOL = 1e-9
#: face normals closer than this angle (radians) count as one direction
ANGLE_TOL = 1e-12
DEFAULT_JITTER = 0.05
#: a fan arc at least this angle (radians) from each face normal leaves its
#: gap's vertex ahead of every other vertex along the arc by far more than
#: rounding, so gathering that vertex gives a projection pass's bytes
ARC_MARGIN = 1e-4


def _frozen(*arrays):
    """The arrays, made read-only: cached tables are shared by every caller."""
    for v in arrays:
        v.flags.writeable = False
    return arrays


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


def circumscribe_ball(rho, s, seed=None, jitter=DEFAULT_JITTER) -> InputPolytope:
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
    """Support value and support point of the h-step reach set along final_dir;
    the one-row case of `batch_reach_supports`."""
    gammas, points = batch_reach_supports(K_seq, Bsel, x0, omega,
                                          np.asarray(final_dir, float)[None])
    return float(gammas[0]), points[0]


def batch_reach_supports(K_seq, Bsel, x0, omega: InputPolytope, final_dirs):
    """Exact support values and points (gammas, points) of the h-step reach
    set from {x0} along each unit row of final_dirs: costates run back from
    the rows, then the points roll forward on the costate-maximizing vertices.

    `Bsel` (n, 2) and `final_dirs` (m, n) may carry a leading agent axis,
    (A, n, 2) and (A, m, n); gammas are then (A, m) and points (A, m, n).
    Stacked `@` runs one m-row product per agent, so each agent's values are
    bit-identical to its own 2-D call (one flat (A*m)-row product is not:
    BLAS takes another kernel path for larger row counts).
    """
    K_seq = [np.asarray(K, float) for K in K_seq]
    h = len(K_seq)
    if h < 1:
        raise InvalidInputError("horizon must be >= 1")
    F = np.asarray(final_dirs, float)
    Bsel = np.asarray(Bsel, float)
    x0 = np.asarray(x0, float)
    n = x0.shape[0]
    if F.shape[-1] != n:
        raise InvalidInputError("final_dir length does not match state")
    if np.abs(np.sqrt(np.einsum("...i,...i", F, F)) - 1.0).max() > 1e-6:
        raise InvalidInputError("final_dir must be a unit vector")
    if Bsel.shape[-2] != n:
        raise InvalidInputError("Bsel rows do not match state dimension")
    if any(K.shape != (n, n) for K in K_seq):
        raise InvalidInputError("one-step matrix shape mismatch")
    # costates lam_k, from lam_h = F back, are kept only as their input-channel
    # projections W[k - 1] = lam_k @ Bsel
    W = [None] * h
    lam = F
    for k in range(h - 1, -1, -1):
        W[k] = lam @ Bsel
        if k:
            lam = lam @ K_seq[k]
    X = np.broadcast_to(x0, F.shape).copy()
    for k in range(h):
        U = omega.vertices[np.argmax(W[k] @ omega.vertices.T, axis=-1)]
        X = X @ K_seq[k].T
        X += U @ np.swapaxes(Bsel, -1, -2)
    return np.einsum("...ij,...ij->...i", F, X), X


class AgentPolygon:
    """Planar position polygon of one agent's reach set.

    Vertices are the counter-clockwise boundary of the intersection of the
    supporting half-planes <d_k, p> <= gamma_k. `agent_polygon` keeps the
    vertices' extremes on the direction fan of `directions`, so distance
    queries on that fan need not project the vertices; a polygon built by
    hand leaves them None. Vertices not given are built when first read:
    from the points `agent_polygon` kept, else from the supports.
    """

    def __init__(self, agent, directions, supports, vertices=None, extremes=None):
        self.agent = agent
        self.directions = directions  # (m, 2)
        self.supports = supports      # (m,)
        self.extremes = extremes      # (arcs, hi, lo), each hi / lo (arcs, 2)
        self._vertices = vertices     # (v, 2) CCW
        self._kept = None             # `_ring`'s arguments, set by agent_polygon

    @property
    def vertices(self):
        if self._vertices is None:
            self._vertices = (
                _ring(*self._kept) if self._kept is not None else
                agent_polygon(self.directions, self.agent, self.supports).vertices)
        return self._vertices


@functools.lru_cache(maxsize=16)
def _face_pairs(key, shape):
    """Direction-only part of `_ccw_batch` for the directions whose
    float64 bytes are `key`.

    For every non-parallel face pair (i, j), i < j, with normals a and b, the
    lines' intersection is (g[I] * C - g[J] * E) / det, column by column, for
    the returned index pairs I = (i, j), J = (j, i), coefficients
    C = (b1, a0), E = (a1, b0) and determinant det (k, 1). Raises when the
    directions fail to positively span the plane.
    """
    D = np.frombuffer(key, dtype=float).reshape(shape)
    if shape[0] < 3:
        raise DegenerateGeometryError("need at least 3 half-planes")
    ang = np.sort(np.arctan2(D[:, 1], D[:, 0]))
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))
    if gaps.max() >= np.pi - 1e-12:
        raise DegenerateGeometryError("directions do not positively span the plane")
    ii, jj = np.triu_indices(shape[0], k=1)
    return _pair_table(D, ii, jj)


def _pair_table(D, ii, jj):
    """`_face_pairs`'s read-only (I, J, C, E, det) for face pairs ii < jj,
    without the (nearly) parallel ones."""
    a, b = D[ii], D[jj]
    det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    ok = np.abs(det) > 1e-12
    ii, jj, a, b, det = ii[ok], jj[ok], a[ok], b[ok], det[ok]
    return _frozen(np.column_stack([ii, jj]), np.column_stack([jj, ii]),
                   np.column_stack([b[:, 1], a[:, 0]]),
                   np.column_stack([a[:, 1], b[:, 0]]), det[:, None])


@functools.lru_cache(maxsize=16)
def _adjacent_faces(key, shape):
    """Direction-only part of the adjacent-face pass of `agent_polygon` for
    the directions whose float64 bytes are `key`, or None where it does not
    apply: when two adjacent faces are (nearly) parallel, or a fan arc lies
    within ARC_MARGIN of a face normal.

    With the faces sorted by angle, face k and face k + 1 (cyclically) meet
    at point k, the polygon's vertex on gap k. Returns `_pair_table` for
    those m pairs, each oriented i < j so that its point has the bytes of the
    all-pairs pass; each point's predecessor; the gap of every arc of
    `_fan((key,))` and of its negative; and the points in the all-pairs
    pass's pair order. Raises where `_face_pairs` raises.
    """
    _face_pairs(key, shape)
    D = np.frombuffer(key, dtype=float).reshape(shape)
    ang = np.arctan2(D[:, 1], D[:, 0])
    order = np.argsort(ang)
    ii, jj = np.sort([order, np.roll(order, -1)], axis=0)
    table = _pair_table(D, ii, jj)
    m = shape[0]
    if len(table[-1]) < m:
        return None
    face = ang[order]
    arcs = _fan((key,))[1]
    gaps, margins = [], []
    for arc in (arcs, -arcs):
        theta = np.arctan2(arc[:, 1], arc[:, 0])
        # gap k spans (face[k], face[k + 1]); gap m - 1 wraps past +-pi
        k = (np.searchsorted(face, theta) - 1) % m
        margins.append((theta - face[k]) % (2 * np.pi))
        margins.append((face[(k + 1) % m] - theta) % (2 * np.pi))
        gaps.append(k)
    if np.concatenate(margins).min() < ARC_MARGIN:
        return None
    return table + _frozen(np.roll(np.arange(m), 1), *gaps, np.lexsort((jj, ii)))


def _compact(mask):
    """Per row, the indices of the True entries in order, then the others,
    cut to the longest row's count; and the True counts."""
    counts = mask.sum(axis=1)
    return np.argsort(~mask, axis=1, kind="stable")[:, :counts.max()], counts


def _ccw_batch(directions, G):
    """CCW vertices of the bounded intersection of the planar half-planes
    <directions[k], p> <= G[a, k], for every row a of G (A, m), as one padded
    (A, w, 2) array: row a holds its counts[a] vertices, then -0.0 padding,
    and the bytes a pass over row a alone gives.

    Intersects all non-parallel face-line pairs and keeps points feasible for
    every half-plane (FEAS_TOL slack), dedupes them within 1e-9 * scale and
    orders them about their centroid. Raises when the directions fail to
    positively span the plane (unbounded set) or when an intersection is
    empty. The direction-only work is cached per direction set.
    """
    D = np.ascontiguousarray(directions, float)
    I, J, C, E, det = _face_pairs(D.tobytes(), D.shape)
    with np.errstate(invalid="ignore"):
        P = (G[:, I] * C - G[:, J] * E) / det
    idx, counts = _compact((P @ D.T <= G[:, None] + FEAS_TOL).all(axis=2))
    if not counts.all():
        raise DegenerateGeometryError("empty half-plane intersection")
    # feasible points first, padded with copies of each row's first one,
    # which the dedupe then drops
    rows = np.arange(len(G))[:, None]
    P = P[rows, np.where(np.arange(idx.shape[1]) < counts[:, None], idx, idx[:, :1])]
    # a point goes when an earlier one lies within 1e-9 * scale
    scale = np.maximum(1.0, np.abs(P).max(axis=(1, 2)))
    d = P[:, :, None] - P[:, None]
    d *= d
    near = np.sqrt(d[..., 0] + d[..., 1]) <= 1e-9 * scale[:, None, None]
    idx, counts = _compact(near.argmax(axis=2) == np.arange(P.shape[1]))
    # kept points padded with -0.0, which leaves the in-order sum exact
    valid = np.arange(idx.shape[1]) < counts[:, None]
    P = np.where(valid[..., None], P[rows, idx], -0.0)
    c = P.sum(axis=1) / counts[:, None]
    ang = np.arctan2(P[..., 1] - c[:, 1:], P[..., 0] - c[:, :1])
    # padding sorts last, after the kept points in the order a sort of
    # the row alone gives them
    return P[rows, np.argsort(np.where(valid, ang, np.inf), axis=1)], counts


def _ring(P, keep, r, pair_order):
    """CCW vertices from the adjacent-face points P[r] that `agent_polygon`
    kept: taken in pair order and ordered about their centroid, as the
    all-pairs pass orders its points."""
    pts = P[r, pair_order[keep[r, pair_order]]]
    c = pts.mean(axis=0)
    return pts[np.argsort(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]))]


def agent_polygon(directions, agent, supports):
    """Position polygon of an agent from its support values (m,); for a
    sequence of agents and supports (A, m), a list of their polygons, each
    with its extremes (see AgentPolygon).

    Each face meets only its angular neighbour: m points per polygon. A row
    whose points all pass every half-plane (FEAS_TOL slack) merges each
    point lying within 1e-9 * scale of its predecessor into the run's first,
    and takes its extremes on every fan arc from the kept point of the gap
    that arc falls in; its vertices are built only when read. Any other row,
    and every row on directions `_adjacent_faces` declines, takes the
    all-pairs `_ccw_batch` pass. The path is chosen per row, so a batch row
    is the polygon its supports give alone.
    """
    directions = np.asarray(directions, float)
    G = np.atleast_2d(np.asarray(supports, float))
    D = np.ascontiguousarray(directions)
    key = D.tobytes()
    arcs = _fan((key,))[1]
    adjacent = _adjacent_faces(key, D.shape)
    if adjacent is None:
        all_pairs = np.ones(len(G), dtype=bool)
        hi, lo = np.empty((2, len(G), len(arcs), 2))
    else:
        I, J, C, E, det, prev, hi_gap, lo_gap, pair_order = adjacent
        with np.errstate(invalid="ignore"):
            P = (G[:, I] * C - G[:, J] * E) / det
            all_pairs = ~(P @ D.T <= G[:, None] + FEAS_TOL).all(axis=(1, 2))
            d = P - P[:, prev]
        d *= d
        scale = np.maximum(1.0, np.abs(P).max(axis=(1, 2)))
        keep = np.sqrt(d[..., 0] + d[..., 1]) > 1e-9 * scale[:, None]
        keep[:, 0] |= ~keep.any(axis=1)  # a row of one point keeps its first
        # a gap's vertex is the last kept point at or before it, cyclically
        run = np.maximum.accumulate(np.where(keep, np.arange(len(prev)), -1), axis=1)
        run = np.where(run < 0, run[:, -1:], run)
        rows = np.arange(len(G))[:, None]
        hi, lo = P[rows, run[:, hi_gap]], P[rows, run[:, lo_gap]]
    rings = [None] * len(G)
    idx = np.flatnonzero(all_pairs)
    if idx.size:
        Q, counts = _ccw_batch(D, G[idx])
        hi[idx], lo[idx] = _padded_extremes(Q, counts, arcs)
        for r, q, n in zip(idx.tolist(), Q, counts.tolist()):
            rings[r] = q[:n]
    polys = [AgentPolygon(int(a), directions, g, v, (arcs, hi[r], lo[r]))
             for r, (a, g, v) in enumerate(zip(np.atleast_1d(agent), G, rings))]
    for r in np.flatnonzero(~all_pairs).tolist():
        polys[r]._kept = (P, keep, r, pair_order)
    return polys if np.ndim(agent) else polys[0]


def _direction_fan(polygons):
    """Shared CCW face normals and the mid-arc directions between them.

    The faces are every polygon's own directions and their negatives, sorted
    by angle, with directions closer than ANGLE_TOL merged. Every edge normal
    of a Minkowski difference of these polygons is then one of the faces.
    Cached per set of distinct direction arrays; the arrays are read-only.
    """
    keys = dict.fromkeys(np.asarray(p.directions, float).tobytes() for p in polygons)
    return _fan(tuple(keys))


@functools.lru_cache(maxsize=16)
def _fan(keys):
    D = np.vstack([np.frombuffer(k, dtype=float).reshape(-1, 2) for k in keys])
    D = np.vstack([D, -D])
    ang = np.sort(np.arctan2(D[:, 1], D[:, 0]))
    ang = ang[np.concatenate([[True], np.diff(ang) > ANGLE_TOL])]
    if ang[-1] - ang[0] > 2 * np.pi - ANGLE_TOL:
        ang = ang[:-1]
    mid = 0.5 * (ang + np.append(ang[1:], ang[0] + 2 * np.pi))
    return _frozen(np.column_stack([np.cos(ang), np.sin(ang)]),
                   np.column_stack([np.cos(mid), np.sin(mid)]))


def _extreme_vertices(polygons, arcs):
    """Vertices of each polygon attaining max and min of <arc, v> for each
    arc direction, as (A, arcs, 2) arrays: the stored rows when every polygon
    keeps extremes on these arcs, else one padded pass over all vertices."""
    if all(p.extremes is not None and p.extremes[0] is arcs for p in polygons):
        return (np.array([p.extremes[1] for p in polygons]),
                np.array([p.extremes[2] for p in polygons]))
    lens = np.array([len(p.vertices) for p in polygons])
    if not lens.all():
        raise DegenerateGeometryError("empty polygon")
    V = np.concatenate([p.vertices for p in polygons], dtype=float)
    k = np.arange(lens.max())
    idx = (np.cumsum(lens) - lens)[:, None] + np.where(k < lens[:, None], k, 0)
    return _padded_extremes(V[idx], lens, arcs)


def _padded_extremes(P, counts, arcs):
    """`_extreme_vertices` of rows P (A, w, 2) of counts[a] vertices each, the
    rest read as vertex 0, so argmax and argmin still take the first index."""
    V = np.where((np.arange(P.shape[1]) < counts[:, None])[..., None], P, P[:, :1])
    proj = V[..., :1] * arcs[:, 0] + V[..., 1:] * arcs[:, 1]
    rows = np.arange(len(P))[:, None]
    return V[rows, proj.argmax(axis=1)], V[rows, proj.argmin(axis=1)]


def _ring_edges(rings):
    """Each ring vertex's predecessor, the edge from it and its squared length."""
    prev = np.concatenate((rings[..., -1:, :], rings[..., :-1, :]), axis=-2)
    E = rings - prev
    return prev, E, E[..., 0] * E[..., 0] + E[..., 1] * E[..., 1]


def _ring_distances(points, rings, faces, edges=None):
    """Distances from points (b, 2) to convex rings (m, 2) or (b, m, 2).

    The edge from ring vertex k - 1 to vertex k lies on the face line with
    outward normal faces[k]. A point inside within FEAS_TOL scores exactly 0.
    `edges` is `_ring_edges(rings)` when the caller keeps it.
    """
    prev, E, L2 = _ring_edges(rings) if edges is None else edges
    W = points[:, None, :] - prev
    inside = (W[..., 0] * faces[:, 0] + W[..., 1] * faces[:, 1]).max(axis=1) <= FEAS_TOL
    t = W[..., 0] * E[..., 0] + W[..., 1] * E[..., 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.clip(np.where(L2 > 0, t / L2, 0.0), 0.0, 1.0)
    d = np.hypot(W[..., 0] - t * E[..., 0], W[..., 1] - t * E[..., 1]).min(axis=1)
    return np.where(inside, 0.0, d)


@functools.lru_cache(maxsize=16)
def pair_indices(n):
    """Read-only index arrays (ii, jj) of every pair i < j of n items, in
    lexicographic order."""
    return _frozen(*np.triu_indices(n, k=1))


def pair_distances(polygons):
    """dist(polygons[i], polygons[j]) for every pair i < j, in lexicographic
    order; an `agent_polygon` batch gives its stored extremes, not a new pass."""
    faces, arcs = _direction_fan(polygons)
    hi, lo = _extreme_vertices(polygons, arcs)
    ii, jj = pair_indices(len(polygons))
    return _ring_distances(np.zeros((len(ii), 2)), hi[jj] - lo[ii], faces)


def input_image_distances(omega: InputPolytope, Bpos, n_directions, shifts):
    """dist(S + s, S) for every row s of `shifts` (k, 2), where S is the image
    {Bpos u : u in omega} (Bpos 2 x 2) on `planar_directions(n_directions)`.

    That is the distance from s to S - S, which depends on nothing else, so
    its ring is built once per (omega, Bpos, n_directions) and cached.
    """
    keys = (np.ascontiguousarray(a, float).tobytes() for a in (omega.vertices, Bpos))
    ring, faces, edges = _input_difference(*keys, n_directions)
    return _ring_distances(np.asarray(shifts, float).reshape(-1, 2), ring, faces, edges)


@functools.lru_cache(maxsize=16)
def _input_difference(vkey, bkey, m):
    """Read-only ring, face normals and `_ring_edges` of S - S for
    `input_image_distances`: S's max minus min vertices on its own fan."""
    D = planar_directions(m)
    V = np.frombuffer(vkey).reshape(-1, 2)
    S = agent_polygon(D, -1, (D @ np.frombuffer(bkey).reshape(2, 2) @ V.T).max(axis=1))
    _, hi, lo = S.extremes
    ring = hi - lo
    return _frozen(ring, _direction_fan((S,))[0]) + (_frozen(*_ring_edges(ring)),)


def polygon_distance(P: AgentPolygon, Q: AgentPolygon) -> float:
    """Euclidean distance between two convex polygons (0 when they intersect);
    polygons from `agent_polygon` give their stored extremes, not a new pass."""
    return float(pair_distances((P, Q))[0])
