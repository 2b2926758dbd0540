"""Polytopic reachability for the identified system under bounded injections.

Reach sets are represented by support values along fixed planar query
directions, lifted into the stacked state space per agent, then intersected
back into per-agent position polygons. Distances between polygons are point
queries against their Minkowski difference.

Every caller passes a convex set's exact supports, so every face is tight and
meets its angular neighbour at a vertex (support-function polytopes; Le
Guernic & Girard, "Reachability analysis of linear systems using support
functions", Nonlinear Analysis: Hybrid Systems 2010). So `agent_polygon`
intersects each face with its neighbour only: m points per polygon give its
extreme vertices on the direction fan, which score every polygon distance,
and, in gap order, its counter-clockwise vertex ring, built only when read.
Supports whose adjacent points fail a face are no convex set's (the set is
empty, or a face is not tight), and raise `DegenerateGeometryError`.
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
    jitter = abs(jitter)  # -0.0 draws as 0.0: rng.uniform(0.0, -0.0) refuses
    base = np.arange(s, dtype=float)
    if seed is not None:
        rng = np.random.default_rng(seed)
        base = base + rng.uniform(-jitter, jitter, size=s)
    angles = 2.0 * np.pi * base / s
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    offsets = np.full(s, float(rho))
    pairs = np.stack([normals, np.roll(normals, -1, axis=0)], axis=1)
    verts = np.linalg.solve(pairs, np.broadcast_to(offsets[:, None, None], (s, 2, 1)))
    return InputPolytope(vertices=verts[..., 0], normals=normals, offsets=offsets)


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
    """Support value and support point of the h-step reach set along the unit
    vector final_dir; the one-row case of `batch_reach_supports`."""
    d = np.asarray(final_dir, float)
    if abs(np.linalg.norm(d) - 1.0) > 1e-6:
        raise InvalidInputError("final_dir must be a unit vector")
    gammas, points = batch_reach_supports(K_seq, Bsel, x0, omega, d[None])
    return float(gammas[0]), points[0]


def batch_reach_supports(K_seq, Bsel, x0, omega: InputPolytope, final_dirs,
                         last_input=None):
    """Exact support values and points (gammas, points) of the h-step reach
    set from {x0} along each unit row of final_dirs: costates run back from
    the rows, then the points roll forward on the costate-maximizing vertices.
    The rows are not checked for unit norm (`reach_support` checks its one).

    `Bsel` (n, 2) and `final_dirs` (m, n) may carry a leading agent axis,
    (A, n, 2) and (A, m, n); gammas are then (A, m) and points (A, m, n).
    Stacked `@` runs one m-row product per agent, so each agent's values are
    bit-identical to its own 2-D call (one flat (A*m)-row product is not:
    BLAS takes another kernel path for larger row counts). Every agent's
    first forward product is the same m rows of x0 times K, so it runs once.

    The last step's input term depends only on final_dirs, Bsel and omega:
    `last_input`, when given, is
    `input_term(final_dirs @ Bsel, omega.vertices, Bsel)`,
    kept by a caller that queries the same directions at every step.
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
    if Bsel.shape[-2] != n:
        raise InvalidInputError("Bsel rows do not match state dimension")
    if any(K.shape != (n, n) for K in K_seq):
        raise InvalidInputError("one-step matrix shape mismatch")
    # costates lam_k, from lam_h = F back, enter only as the input terms of
    # their input-channel projections lam_k @ Bsel
    terms = [None] * (h - 1) + [last_input]
    lam = F
    for k in range(h - 1, -1, -1):
        if terms[k] is None:
            terms[k] = input_term(lam @ Bsel, omega.vertices, Bsel)
        if k:
            lam = lam @ K_seq[k]
    X = np.empty(F.shape[-2:])
    X[...] = x0
    X = X @ K_seq[0].T + terms[0]
    for k in range(1, h):
        X = X @ K_seq[k].T
        X += terms[k]
    return np.einsum("...ij,...ij->...i", F, X), X


def input_term(W, V, Bsel):
    """Bsel u for each row w of the costate projections W (..., m, 2), where
    u is the row of the vertices V (s, 2) that maximizes <w, u>, the first
    on ties."""
    return V[np.argmax(W @ V.T, axis=-1)] @ np.swapaxes(Bsel, -1, -2)


class AgentPolygon:
    """Planar position polygon of one agent's reach set, from `agent_polygon`.

    Vertices are the counter-clockwise boundary of the intersection of the
    supporting half-planes <d_k, p> <= gamma_k. A polygon holds its call's
    read-only `(points, keep, hi, lo, table)` and its row in them: its
    vertices are built from the points when first read, distances read its
    extreme planes hi and lo, and `polygon_distance` reads the pair table.
    """

    def __init__(self, agent, directions, supports):
        self.agent = agent
        self.directions = directions  # (m, 2)
        self.supports = supports      # (m,)
        self._vertices = None         # (v, 2) CCW, built when first read
        self._call = None             # (points, keep, hi, lo, table) of its call,
        self._row = None              # and this polygon's row in them

    @property
    def vertices(self):
        if self._vertices is None:
            P, keep = self._call[:2]
            self._vertices = P[self._row, keep[self._row]]
        return self._vertices


class _Batch(tuple):
    """The polygons of one `agent_polygon` call in row order, carrying the
    `call` record that each of them holds, so that `pair_distances` returns its
    table. A slice, a reversal, `list(batch)` or `tuple(batch)` is not the batch."""


@functools.lru_cache(maxsize=16)
def _adjacent_faces(key, shape):
    """Direction-only part of `_adjacent_pass` for the directions whose
    float64 bytes are `key`.

    Faces sorted by angle merge when they lie within ANGLE_TOL of each other,
    cyclically across +-pi; a merged face keeps the direction and support of
    its member that sorts first in (-pi, pi]. Merged face k and face k + 1
    (cyclically) meet at point k, the polygon's vertex on gap k. For that
    face pair (i, j), oriented i < j, with normals a and b, the point is
    (g[I] * C - g[J] * E) / det, column by column, for the returned index
    pairs I = (i, j), J = (j, i), coefficients C = (b1, a0), E = (a1, b0) and
    determinant det (k, 1). Also returns the gap of every arc of
    `_fan((key,))` and then of its negative. Raises when the directions fail
    to positively span the plane.
    """
    if shape[0] < 3:
        raise DegenerateGeometryError("need at least 3 half-planes")
    D = np.frombuffer(key, dtype=float).reshape(shape)
    ang = np.arctan2(D[:, 1], D[:, 0])
    order = np.argsort(ang)
    ang = ang[order]
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))
    if gaps.max() >= np.pi - 1e-12:
        raise DegenerateGeometryError("directions do not positively span the plane")
    first = np.concatenate([[True], gaps[:-1] > ANGLE_TOL])
    if gaps[-1] <= ANGLE_TOL:  # the last merged face wraps into the first
        first[np.flatnonzero(first)[-1]] = False
    faces = order[first]
    ii, jj = np.sort([faces, np.roll(faces, -1)], axis=0)
    a, b = D[ii], D[jj]
    det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    arcs = _fan((key,))[1]
    return _frozen(np.column_stack([ii, jj]), np.column_stack([jj, ii]),
                   np.column_stack([b[:, 1], a[:, 0]]),
                   np.column_stack([a[:, 1], b[:, 0]]), det[:, None],
                   _holding_arc(ang[first], np.vstack([arcs, -arcs])))


def _holding_arc(ang, dirs):
    """Index k of the cyclic arc (ang[k], ang[k + 1]) holding each row of dirs."""
    return (np.searchsorted(ang, np.arctan2(dirs[:, 1], dirs[:, 0])) - 1) % len(ang)


def agent_polygon(directions, agent, supports):
    """Position polygon of an agent from its support values (m,); for a
    sequence of agents and supports (A, m), the `_Batch` of their polygons.
    The polygons keep the directions read-only: a writable array is copied
    once, so a caller's later edit does not reach them. The call scores every
    pair of its polygons once, as `pair_distances` on the batch returns it.
    """
    D = np.asarray(directions, float)
    if D.flags.writeable or not D.flags.c_contiguous:
        D = _frozen(D.copy())[0]
    G = np.atleast_2d(np.asarray(supports, float))
    faces, P, keep, hi, lo = _adjacent_pass(D, G)
    call = _frozen(P, keep, hi, lo, _pair_table(faces, hi, lo))
    batch = _Batch(AgentPolygon(int(a), D, g) for a, g in zip(np.atleast_1d(agent), G))
    batch.call = call
    for r, p in enumerate(batch):
        p._call, p._row = call, r
    return batch if np.ndim(agent) else batch[0]


def _adjacent_pass(D, G):
    """Faces of the fan of directions D (m, 2), and the adjacent points P
    (A, m, 2), their keep mask (A, m) and the x and y planes hi and lo
    (2, A, arcs) of each row's max and min vertices on the fan's arcs, for
    the support rows G (A, m).

    Each face meets only its angular neighbour (`_adjacent_faces`), at most m
    points per row. Every point must pass every half-plane within
    FEAS_TOL * scale, where scale, the points' rounding scale, is the row's
    largest point coordinate and at least 1. A row with a point that fails
    is no convex set's supports (the set is empty, or a face is not tight):
    the first such row raises, naming the row and the face. Each point lying
    within 1e-9 * scale of its predecessor (in units of 2**e from scale 2**510
    up) merges into the run's first. A fan arc's extreme is the kept point of
    the gap that the arc falls in, the maximiser along it; a row's vertices
    are its kept points in gap order.
    """
    key = D.tobytes()
    faces, arcs = _fan((key,))
    I, J, C, E, det, arc_gaps = _adjacent_faces(key, D.shape)
    P = (G[:, I] * C - G[:, J] * E) / det
    scale = np.maximum(1.0, np.abs(P).max(axis=(1, 2)))
    fails = ~(P @ D.T <= G[:, None] + FEAS_TOL * scale[:, None, None])
    if fails.any():
        r, _, k = np.argwhere(fails)[0]
        raise DegenerateGeometryError(
            f"supports row {r} are no convex set's: face {k} cuts off a point "
            "where adjacent faces meet (the set is empty, or a face is not tight)")
    d, tol = P - P[:, _predecessors(len(I))], 1e-9 * scale  # step from predecessor
    if scale.max(initial=0.0) >= 2.0 ** 510:  # such rows' squares could overflow
        e = np.where(scale < 2.0 ** 510, 0, np.frexp(scale)[1])
        d, tol = np.ldexp(d, -e[:, None, None]), np.ldexp(tol, -e)
    d *= d
    keep = np.sqrt(d[..., 0] + d[..., 1]) > tol[:, None]
    keep[:, 0] |= ~keep.any(axis=1)  # a row of one point keeps its first
    # a gap's vertex is the last kept point at or before it, cyclically
    run = np.maximum.accumulate(np.where(keep, np.arange(len(I)), -1), axis=1)
    run = np.where(run < 0, run[:, -1:], run)
    planes = P.transpose(2, 0, 1)[:, np.arange(len(G))[:, None], run[:, arc_gaps]]
    return faces, P, keep, planes[..., :len(arcs)], planes[..., len(arcs):]


@functools.lru_cache(maxsize=16)
def _fan(keys):
    """Read-only CCW faces and mid-arc directions of the fan of the direction
    arrays whose bytes are `keys` and their negatives, merged within ANGLE_TOL:
    every edge normal of a Minkowski difference of polygons on them is a face."""
    D = np.vstack([np.frombuffer(k, dtype=float).reshape(-1, 2) for k in keys])
    D = np.vstack([D, -D])
    ang = np.sort(np.arctan2(D[:, 1], D[:, 0]))
    ang = ang[np.concatenate([[True], np.diff(ang) > ANGLE_TOL])]
    if ang[-1] - ang[0] > 2 * np.pi - ANGLE_TOL:
        ang = ang[:-1]
    mid = 0.5 * (ang + np.append(ang[1:], ang[0] + 2 * np.pi))
    return _frozen(np.column_stack([np.cos(ang), np.sin(ang)]),
                   np.column_stack([np.cos(mid), np.sin(mid)]))


def _ring_edges(rings):
    """Each ring vertex's predecessor, the edge from it and its squared
    length, for rings given as coordinate planes (2, b, m)."""
    prev = rings.take(_predecessors(rings.shape[-1]), axis=-1)
    E = rings - prev
    return prev, E, E[0] * E[0] + E[1] * E[1]


@functools.lru_cache(maxsize=16)
def _predecessors(m):
    """Read-only index of each of m ring vertices' predecessor."""
    return _frozen(np.arange(-1, m - 1))[0]


def _ring_distances(points, rings, faces, edges=None):
    """Distances from points (2, b) to convex rings (2, 1, m) or (2, b, m),
    all given as x and y coordinate planes.

    The edge from ring vertex k - 1 to vertex k lies on the face line with
    outward normal faces[k], a row of faces (m, 2). A point inside within
    FEAS_TOL scores exactly 0. `edges` is `_ring_edges(rings)` when the
    caller keeps it. Coordinates from 2**510 up, whose squares could
    overflow, are measured in units of 2**e, FEAS_TOL too, and scaled back.
    """
    e = np.frexp(max(np.abs(points).max(initial=0.0),
                     np.abs(rings).max(initial=0.0)))[1]
    if e > 510:  # offsets reach 2**511, sums of two of their products 2**1023
        return np.ldexp(_ring_distances(np.ldexp(points, -e),
                                        np.ldexp(rings, -e), faces), e)
    prev, E, L2 = _ring_edges(rings) if edges is None else edges
    W = points[..., None] - prev
    F = W * faces.T[:, None]
    inside = (F[0] + F[1]).max(axis=1) <= FEAS_TOL
    T = W * E
    t = T[0] + T[1]
    t = np.divide(t, L2, out=np.zeros(t.shape), where=L2 > 0).clip(0.0, 1.0)
    W -= t * E
    W *= W
    d = np.sqrt((W[0] + W[1]).min(axis=1))
    d[inside] = 0.0
    return d


@functools.lru_cache(maxsize=16)
def pair_indices(n):
    """Read-only index arrays (ii, jj) of every pair i < j of n items, in
    lexicographic order."""
    return _frozen(*np.triu_indices(n, k=1))


#: the pair table of no polygons, as every empty sequence returns it
_NO_PAIRS = _frozen(np.zeros(0))[0]


def pair_distances(polygons):
    """dist(polygons[i], polygons[j]) for every pair i < j, in lexicographic
    order. A `_Batch` returns the read-only table its call computed; an empty
    sequence the read-only empty table `_NO_PAIRS`; any other sequence gathers
    its polygons' extremes onto their shared fan (`_arc_map`)."""
    if isinstance(polygons, _Batch):
        return polygons.call[-1]
    own = [p.directions.tobytes() for p in polygons]
    if not own:
        return _NO_PAIRS
    keys = tuple(dict.fromkeys(own))
    hi, lo = (np.stack([p._call[k][:, p._row, _arc_map(key, keys)]
                        for p, key in zip(polygons, own)], axis=1) for k in (2, 3))
    return _pair_table(_fan(keys)[0], hi, lo)


@functools.lru_cache(maxsize=64)
def _arc_map(key, keys):
    """Read-only index of the arc of `_fan((key,))` that holds each arc of the
    shared `_fan(keys)`. The shared faces include the own ones (up to the
    ANGLE_TOL merge), so each shared arc lies inside the own arc that its
    middle falls in, and that arc's extreme is the polygon's maximiser on it."""
    own = _fan((key,))[0]
    return _frozen(_holding_arc(np.arctan2(own[:, 1], own[:, 0]), _fan(keys)[1]))[0]


def _pair_table(faces, hi, lo):
    """Pair distances, lexicographic, of polygons whose max and min vertices
    on the arcs between `faces` are the x and y planes hi and lo (2, A, arcs):
    the distance from the origin to each pair's Minkowski difference ring."""
    ii, jj = pair_indices(hi.shape[1])
    rings = hi.take(jj, axis=1) - lo.take(ii, axis=1)
    return _ring_distances(np.zeros((2, len(ii))), rings, faces)


def input_image_distances(omega: InputPolytope, Bpos, n_directions, shifts):
    """dist(S + s, S) for every row s of `shifts` (k, 2), where S is the image
    {Bpos u : u in omega} (Bpos 2 x 2) on `planar_directions(n_directions)`.

    That is the distance from s to S - S, which depends on nothing else, so
    its ring is built once per (omega, Bpos, n_directions) and cached.
    """
    keys = (np.ascontiguousarray(a, float).tobytes() for a in (omega.vertices, Bpos))
    ring, faces, edges = _input_difference(*keys, n_directions)
    shifts = np.asarray(shifts, float).reshape(-1, 2)
    return _ring_distances(shifts.T, ring, faces, edges)


@functools.lru_cache(maxsize=16)
def _input_difference(vkey, bkey, m):
    """Read-only ring planes (2, 1, m), face normals and `_ring_edges` of
    S - S for `input_image_distances`: S's max minus min vertices on its own
    fan. A ring from 2**510 up has no edges here: `_ring_distances` rescales it."""
    D = planar_directions(m)
    V = np.frombuffer(vkey).reshape(-1, 2)
    G = (D @ np.frombuffer(bkey).reshape(2, 2) @ V.T).max(axis=1)
    faces, _, _, hi, lo = _adjacent_pass(D, G[None])
    ring = hi - lo
    edges = _frozen(*_ring_edges(ring)) if np.abs(ring).max() < 2.0 ** 510 else None
    return _frozen(ring, faces) + (edges,)


def polygon_distance(P: AgentPolygon, Q: AgentPolygon) -> float:
    """Euclidean distance between two convex polygons (0 when they intersect).
    Two polygons of one `agent_polygon` call, P's row before Q's, read their
    call's pair table; every other pair is computed."""
    call, i, j = P._call, P._row, Q._row
    if Q._call is call and i < j:
        n = len(call[1])
        return float(call[-1][i * (2 * n - i - 1) // 2 + j - i - 1])
    return float(pair_distances((P, Q))[0])
