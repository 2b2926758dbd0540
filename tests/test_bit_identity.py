"""Property tests: the batched and vectorised passes return the same bytes as
the per-agent, per-pair and per-step computations they replace.

The benchmark's decision fingerprints allow separations to drift by 1e-9
relative, so these compare with `np.array_equal`, not a tolerance. The one
exception is a polygon vertex that the adjacent-face pass merged from
several points: it may be another float of that run than the all-pairs
oracle keeps, within the 1e-9 * scale that defines one vertex.
"""
from collections import deque

import numpy as np
import pytest
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import laprec_oracle
import plant_oracle
from halfspace_oracle import halfspace_polygon as oracle_polygon
from scenario_helpers import offset_difference, slot

from ncsred import laprec, ncs, reachset
from ncsred.attack import AttackConfig, agent_reach_polygon
from ncsred.dmd import SnapshotBuffer
from ncsred.errors import DegenerateGeometryError, InvalidInputError
from ncsred.graph import Graph
from ncsred.harness import run
from ncsred.reachset import (ANGLE_TOL, AgentPolygon, _direction_fan,
                             _extreme_vertices, _ring_distances,
                             agent_polygon, batch_reach_supports,
                             circumscribe_ball, embed_input_map, pair_distances,
                             planar_directions, polygon_distance)
from ncsred.scenario_io import build_scenario

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def halfspace_polygon(D, g):
    """`agent_polygon`'s vertices, the `_ccw_batch` rows for supports g: one
    array for g (m,), a list of one per row for g (A, m)."""
    g = np.asarray(g, float)
    if g.ndim == 1:
        return agent_polygon(D, 0, g).vertices
    return [p.vertices for p in agent_polygon(D, range(len(g)), g)]


def _outcome(fn, *args):
    """fn's result, or the DegenerateGeometryError message it raised."""
    try:
        return fn(*args)
    except DegenerateGeometryError as exc:
        return str(exc)


def _random_directions(rng):
    """A uniform fan, or random unit normals that may fail to span the plane,
    with some (nearly) parallel face pairs: a repeated normal, a negated one,
    and normals turned by less than the 1e-12 determinant cut-off."""
    if rng.random() < 0.4:
        return planar_directions(int(rng.integers(3, 25)))
    ang = rng.uniform(-np.pi, np.pi, size=int(rng.integers(3, 20)))
    if rng.random() < 0.5:
        ang = np.concatenate([ang, ang[:2], ang[:1] + np.pi,
                              ang[:2] + rng.uniform(1e-14, 5e-13, size=2)])
    return np.column_stack([np.cos(ang), np.sin(ang)])


def _half_planes(kind, seed):
    rng = np.random.default_rng(seed)
    D = _random_directions(rng)
    return D, _supports(kind, D, rng)


def _supports(kind, D, rng):
    """Support values on the directions D: a point's, an empty set's
    (every half-plane pulled in past a common point), or a random point
    cloud's, with redundant faces or at scales of 1e6-1e9."""
    if kind == "point":
        return D @ rng.normal(scale=5.0, size=2)
    if kind == "empty":
        return D @ rng.normal(scale=5.0, size=2) - rng.uniform(0.1, 5.0)
    center, spread = rng.normal(scale=5.0, size=2), 2.0
    if kind == "large":
        scale = 10.0 ** rng.uniform(6, 9)
        center, spread = center * scale, spread * rng.choice([1.0, scale])
    pts = center + rng.normal(scale=spread, size=(int(rng.integers(1, 9)), 2))
    g = (pts @ D.T).max(axis=0)
    if kind == "redundant":
        g = g + rng.exponential(3.0, size=len(g)) * (rng.random(len(g)) < 0.5)
    return g


def _adjacent_points_merge(D, g):
    """Whether the adjacent-face pass may merge two points of this row: no
    two adjacent faces are (nearly) parallel, every point where adjacent
    faces meet is feasible, and two consecutive points lie within 1e-9 *
    scale. Only there may a vertex be another float than the all-pairs
    pass's, since each pass keeps a different member of the run."""
    order = np.argsort(np.arctan2(D[:, 1], D[:, 0]))
    ii, jj = np.sort([order, np.roll(order, -1)], axis=0)
    a, b = D[ii], D[jj]
    det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    if np.abs(det).min() <= 1e-12:
        return False
    P = np.column_stack([g[ii] * b[:, 1] - g[jj] * a[:, 1],
                         g[jj] * a[:, 0] - g[ii] * b[:, 0]]) / det[:, None]
    if not (P @ D.T <= g + 1e-9).all():
        return False
    near = np.linalg.norm(P - np.roll(P, 1, axis=0), axis=1)
    return bool((near <= 1e-9 * max(1.0, np.abs(P).max())).any())


def _assert_matches_oracle(D, g, got, want):
    """got is the oracle's polygon: its bytes, or, where adjacent-face points
    merged, its vertex count with every vertex within the 1e-9 * scale that
    the dedupe takes for one vertex."""
    if not _adjacent_points_merge(D, g):
        assert np.array_equal(got, want)
        return
    assert got.shape == want.shape
    scale = max(1.0, np.abs(want).max())
    assert np.hypot(*(got - want).T).max() <= 1e-9 * scale


class TestHalfspacePolygon:
    @PROPERTY
    @given(seed=seeds, kind=st.sampled_from(["support", "redundant", "point",
                                             "large"]))
    def test_matches_all_pairs_oracle(self, seed, kind):
        D, g = _half_planes(kind, seed)
        want = _outcome(oracle_polygon, D, g)
        got = _outcome(halfspace_polygon, D, g)
        if isinstance(want, str):
            assert got == want
        else:
            _assert_matches_oracle(D, g, got, want)

    @PROPERTY
    @given(seed=seeds, kinds=st.lists(st.sampled_from(["support", "redundant",
                                                       "point", "large"]),
                                      min_size=1, max_size=12),
           empty_row=st.integers(min_value=-12, max_value=11))
    def test_batch_rows_match_oracle(self, seed, kinds, empty_row):
        """Rows of mixed kinds on one direction set; a batch raises what its
        first failing row raises."""
        if 0 <= empty_row < len(kinds):
            kinds[empty_row] = "empty"
        rng = np.random.default_rng(seed)
        D = _random_directions(rng)
        G = np.array([_supports(kind, D, rng) for kind in kinds])
        want = [_outcome(oracle_polygon, D, g) for g in G]
        got = _outcome(halfspace_polygon, D, G)
        errors = [w for w in want if isinstance(w, str)]
        if errors:
            assert got == errors[0]
        else:
            assert len(got) == len(want)
            for g, a, b in zip(G, got, want):
                _assert_matches_oracle(D, g, a, b)

    @pytest.mark.parametrize("m", [9, 15, 35])
    @pytest.mark.parametrize("center, offset", [((0.0, 0.0), 1.0),
                                                ((1.0, 0.0), 1.0),
                                                ((0.0, -3.0), 2.5)])
    def test_regular_polygons_match_oracle(self, m, center, offset):
        """Regular polygons, some with a vertex level with the centroid,
        where a centroid summed in another order sorts the ring otherwise."""
        D = planar_directions(m)
        g = D @ np.array(center) + offset
        assert not _adjacent_points_merge(D, g)
        assert np.array_equal(halfspace_polygon(D, g), oracle_polygon(D, g))

    def test_cached_directions_are_not_shared_state(self):
        D = planar_directions(8)
        first = halfspace_polygon(D, np.ones(8))
        D[:] = -D[::-1]  # the caller's array changes after the first call
        assert np.array_equal(halfspace_polygon(D, np.ones(8)),
                              oracle_polygon(D, np.ones(8)))
        assert np.array_equal(halfspace_polygon(planar_directions(8), np.ones(8)),
                              first)


def _stored_and_projected(p):
    """p's stored extremes, and those a projection pass over its vertices
    gives on the same arcs."""
    _, arcs = _direction_fan([p])
    assert p.extremes[0] is arcs
    hand = AgentPolygon(p.agent, p.directions, p.supports, p.vertices)
    return p.extremes[1:], [e[0] for e in _extreme_vertices([hand], arcs)]


ADJACENT_KINDS = ["support", "point"]
FALLBACK_KINDS = ["redundant", "empty", "large"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestAdjacentFacePass:
    """`agent_polygon` intersects each face with its angular neighbour only
    and falls back to the all-pairs pass per row; rows on direction sets with
    (nearly) parallel neighbours all fall back."""

    @PROPERTY
    @given(seed=seeds,
           kinds=st.lists(st.sampled_from(ADJACENT_KINDS + ["redundant", "large"]),
                          min_size=2, max_size=10),
           uniform=st.booleans())
    def test_mixed_batch_rows_equal_single_row_calls(self, seed, kinds, uniform):
        """Every row has the vertex and extreme bytes of its single-row
        call, and its stored extremes are a projection pass over its vertices;
        a batch with an empty row raises what that row raises."""
        rng = np.random.default_rng(seed)
        kinds[0] = ADJACENT_KINDS[int(rng.integers(2))]
        kinds[1] = FALLBACK_KINDS[int(rng.integers(3))]
        rng.shuffle(kinds)
        D = (planar_directions(int(rng.integers(3, 25))) if uniform
             else _random_directions(rng))
        G = np.array([_supports(kind, D, rng) for kind in kinds])
        want = [_outcome(agent_polygon, D, a, g) for a, g in enumerate(G)]
        got = _outcome(agent_polygon, D, range(len(G)), G)
        errors = [w for w in want if isinstance(w, str)]
        if errors:
            assert got == errors[0]
            return
        for p, q in zip(got, want):
            assert p.vertices.tobytes() == q.vertices.tobytes()
            for a, b in zip(p.extremes[1:], q.extremes[1:]):
                assert a.tobytes() == b.tobytes()
            for a, b in zip(*_stored_and_projected(p)):
                assert a.tobytes() == b.tobytes()

    def test_batch_splits_rows_between_passes(self):
        D = planar_directions(16)
        rng = np.random.default_rng(5)
        G = np.array([_supports(kind, D, rng)
                      for kind in ("support", "redundant", "point")])
        with mock.patch.object(reachset, "_ccw_batch",
                               wraps=reachset._ccw_batch) as batch:
            polys = agent_polygon(D, range(3), G)
        (_, rows), _ = batch.call_args
        assert batch.call_count == 1 and np.array_equal(rows, G[1:2])
        assert polys[1]._kept is None and polys[1]._vertices is not None
        for p in (polys[0], polys[2]):
            assert p._kept is not None and p._vertices is None

    @PROPERTY
    @given(seed=seeds, kind=st.sampled_from(ADJACENT_KINDS + ["redundant"]),
           n=st.integers(min_value=1, max_value=8))
    def test_read_vertices_equal_supports_built_alone(self, seed, kind, n):
        """A ring built when read comes from the points the batch kept: a
        caller's later edit to the supports does not reach it."""
        rng = np.random.default_rng(seed)
        D = planar_directions(int(rng.integers(3, 25)))
        G = np.array([_supports(kind, D, rng) for _ in range(n)])
        alone = [agent_polygon(D, a, g.copy()).vertices for a, g in enumerate(G)]
        polys = agent_polygon(D, range(n), G)
        G[:] = 0.0
        for p, want in zip(polys, alone):
            assert p.vertices.tobytes() == want.tobytes()
            assert p.vertices is p.vertices  # built once

    @PROPERTY
    @given(seed=seeds, log_gap=st.floats(min_value=-11.0, max_value=-5.0))
    def test_arc_next_to_a_face_keeps_projection_extremes(self, seed, log_gap):
        """A face turned 1e-11 to 1e-5 rad from another's negative puts a
        fan arc next to a face normal, where a gathered vertex may not be the
        projection's: the stored extremes still are a projection pass's."""
        rng = np.random.default_rng(seed)
        ang = rng.uniform(-np.pi, np.pi, size=int(rng.integers(5, 12)))
        ang[1] = ang[0] + np.pi + rng.choice([-1.0, 1.0]) * 10.0 ** log_gap
        D = np.column_stack([np.cos(ang), np.sin(ang)])
        pts = rng.normal(scale=5.0, size=2) + rng.normal(
            scale=10.0 ** rng.uniform(-8, 0), size=(int(rng.integers(2, 6)), 2))
        p = _outcome(agent_polygon, D, 0, (pts @ D.T).max(axis=0))
        if not isinstance(p, str):
            for a, b in zip(*_stored_and_projected(p)):
                assert a.tobytes() == b.tobytes()

    @PROPERTY
    @given(seed=seeds, kind=st.sampled_from(ADJACENT_KINDS + FALLBACK_KINDS))
    def test_random_directions_warn_nothing(self, seed, kind):
        """Direction sets with repeated, negated and nearly parallel normals
        divide by no vanishing determinant."""
        D, g = _half_planes(kind, seed)
        _outcome(agent_polygon, D, 0, g)
        _outcome(agent_polygon, D, [0, 1], np.array([g, g + 1.0]))
        _outcome(lambda: AgentPolygon(0, D, g).vertices)


class TestBatchedReachPolygons:
    """Stacked (A, m, n) arrays keep `@` at one m-row product per agent, so
    each agent's supports are bit-identical to its own 2-D call. Stacking the
    rows flat as (A*m, n) and multiplying by K.T is not: OpenBLAS takes
    another kernel path from about 30 rows on (n = 40), and on the 10-agent
    horizon-3 benchmark scenarios that moved `separation_before` by up to
    2.9e-9 relative, past the fingerprint's 1e-9.
    """

    @PROPERTY
    @given(seed=seeds, h=st.integers(min_value=1, max_value=3),
           n_agents=st.integers(min_value=1, max_value=10))
    def test_matches_per_agent_supports(self, seed, h, n_agents):
        rng = np.random.default_rng(seed)
        n = 4 * n_agents
        K = rng.normal(size=(n, n))
        K *= rng.uniform(0.1, 3.0) / np.linalg.norm(K, 2)
        B = rng.normal(size=(4, 2))
        omega = circumscribe_ball(rng.uniform(0.01, 1.0), int(rng.integers(3, 10)),
                                  seed=int(rng.integers(1000)))
        x0 = rng.normal(scale=10.0, size=n)
        m = int(rng.integers(3, 21))
        agents = rng.choice(n_agents, size=int(rng.integers(1, n_agents + 1)),
                            replace=False)
        got = agent_reach_polygon(K, B, agents, x0, omega, m, h)

        dirs = planar_directions(m)
        assert [p.agent for p in got] == agents.tolist()
        for a, poly in zip(agents, got):
            lifts = np.zeros((m, n))
            lifts[:, 4 * a] = dirs[:, 0]
            lifts[:, 4 * a + 2] = dirs[:, 1]
            sup, _ = batch_reach_supports([K] * h, embed_input_map(B, a, n_agents),
                                          x0, omega, lifts)
            want = agent_polygon(dirs, a, sup)
            assert np.array_equal(poly.supports, want.supports)
            assert np.array_equal(poly.vertices, want.vertices)

    def test_rejects_scalar_agent(self):
        omega = circumscribe_ball(0.1, 4)
        with pytest.raises(InvalidInputError):
            agent_reach_polygon(np.eye(8), np.eye(4, 2), 0, np.zeros(8), omega)

    @pytest.mark.parametrize("agent", [7, -1])
    def test_rejects_agent_out_of_range(self, agent):
        omega = circumscribe_ball(0.1, 4)
        with pytest.raises(InvalidInputError, match=f"agent {agent} out of range"):
            agent_reach_polygon(np.eye(20), np.eye(4, 2), [0, agent], np.zeros(20),
                                omega)


def _uncached_fan(polygons):
    """`_direction_fan` as it was before its cache: every polygon's
    directions and their negatives, sorted, merged within ANGLE_TOL."""
    D = np.vstack([p.directions for p in polygons])
    D = np.vstack([D, -D])
    ang = np.sort(np.arctan2(D[:, 1], D[:, 0]))
    ang = ang[np.concatenate([[True], np.diff(ang) > ANGLE_TOL])]
    if ang[-1] - ang[0] > 2 * np.pi - ANGLE_TOL:
        ang = ang[:-1]
    mid = 0.5 * (ang + np.append(ang[1:], ang[0] + 2 * np.pi))
    return (np.column_stack([np.cos(ang), np.sin(ang)]),
            np.column_stack([np.cos(mid), np.sin(mid)]))


class TestDirectionFan:
    @PROPERTY
    @given(seed=seeds, n_polygons=st.integers(min_value=1, max_value=6))
    def test_matches_uncached_fan(self, seed, n_polygons):
        rng = np.random.default_rng(seed)
        sets = [_random_directions(rng) for _ in range(int(rng.integers(1, 3)))]
        polys = [mock.Mock(directions=sets[int(rng.integers(len(sets)))])
                 for _ in range(n_polygons)]
        for got, want in zip(_direction_fan(polys), _uncached_fan(polys)):
            assert np.array_equal(got, want)

    def test_cached_directions_are_not_shared_state(self):
        D = planar_directions(8)
        P = agent_polygon(D, 0, np.ones(8))
        first = _direction_fan([P])
        assert not any(v.flags.writeable for v in first)
        D[:] = np.roll(D, 1, axis=0) * [1.0, 0.5]  # the caller's array changes
        D /= np.linalg.norm(D, axis=1, keepdims=True)
        for got, want in zip(_direction_fan([P]), _uncached_fan([P])):
            assert np.array_equal(got, want)
        fresh = agent_polygon(planar_directions(8), 0, np.ones(8))
        for got, want in zip(_direction_fan([fresh]), first):
            assert np.array_equal(got, want)


def _extreme(P, arcs):
    """One polygon's max and min vertices per arc, first index on ties."""
    proj = P.vertices[:, :1] * arcs[:, 0] + P.vertices[:, 1:] * arcs[:, 1]
    return P.vertices[proj.argmax(axis=0)], P.vertices[proj.argmin(axis=0)]


class TestPaddedExtremeVertices:
    """`pair_distances` and `polygon_distance` take every polygon's extreme
    vertices in one padded pass; the scores equal those from one polygon at a
    time, on polygons with differing vertex counts and direction sets."""

    @PROPERTY
    @given(seed=seeds, n_polygons=st.integers(min_value=2, max_value=10))
    def test_matches_per_polygon_pass(self, seed, n_polygons):
        rng = np.random.default_rng(seed)
        sets = [planar_directions(int(rng.integers(3, 20))) for _ in range(2)]
        polys = []
        for a in range(n_polygons):
            D = sets[int(rng.integers(2))]
            pts = rng.normal(scale=10.0, size=2) + rng.normal(
                scale=rng.choice([0.0, 1.0]), size=(int(rng.integers(1, 6)), 2))
            polys.append(agent_polygon(D, a, (pts @ D.T).max(axis=0)))
        faces, arcs = _uncached_fan(polys)
        hi, lo = map(np.array, zip(*(_extreme(p, arcs) for p in polys)))
        ii, jj = np.triu_indices(n_polygons, k=1)
        want = _ring_distances(np.zeros((len(ii), 2)), hi[jj] - lo[ii], faces)
        assert np.array_equal(pair_distances(polys), want)

        P, Q = polys[:2]
        faces, arcs = _uncached_fan((P, Q))
        want = _ring_distances(np.zeros((1, 2)),
                               _extreme(Q, arcs)[0] - _extreme(P, arcs)[1], faces)
        assert polygon_distance(P, Q) == want[0]


def _plant_scenario(rng, n):
    """n agents on a random edge set (empty in about a fifth of draws) with
    random gains, offsets and initial states."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    p = 0.0 if rng.random() < 0.2 else rng.random()
    edges = {e for e in pairs if rng.random() < p}
    return build_scenario(seed=int(rng.integers(1000)), n_agents=n,
                          horizon_steps=40, edges=edges,
                          gain=rng.normal(size=(2, 4)),
                          leader_gain=rng.normal(size=(2, 4)),
                          offsets=rng.normal(scale=8.0, size=(n, 4)))


class TestStackedPlant:
    """Neighbour terms and agent updates are stacked per-item products, and
    the terms accumulate in the loops' (i, ascending j) order, so the plant
    returns the loop oracle's bytes (`plant_oracle`)."""

    @PROPERTY
    @given(seed=seeds, n=st.integers(min_value=1, max_value=12),
           with_fdi=st.booleans(), random_u=st.booleans())
    def test_matches_loops(self, seed, n, with_fdi, random_u):
        rng = np.random.default_rng(seed)
        s = _plant_scenario(rng, n)
        k = int(rng.integers(0, 40))
        x = rng.normal(scale=20.0, size=4 * n)
        graph = Graph(n, {e for e in s.graph.edges if rng.random() < 0.5})
        want_u = plant_oracle.feedback_inputs(s, k, x, graph) + s.track.acc[k]
        assert np.array_equal(ncs.control_inputs(s, k, x),
                              plant_oracle.feedback_inputs(s, k, x) + s.track.acc[k])
        # the index a run builds once per graph stands in for the graph
        assert np.array_equal(
            ncs.control_inputs(s, k, x, index=ncs.neighbor_index(graph)), want_u)
        fdi = rng.normal(size=2 * n) if with_fdi else None
        u = rng.normal(size=(n, 2)) if random_u else want_u
        assert np.array_equal(ncs.step(s, x, u, fdi), plant_oracle.step(s, x, u, fdi))

    @PROPERTY
    @given(seed=seeds, n=st.integers(min_value=1, max_value=12))
    @example(seed=0, n=1)
    @example(seed=3, n=4)  # draws no edges
    def test_closed_loop_matches_blocks(self, seed, n):
        """kron(I, A) + kron(L, B K) equals the block-by-block assembly, down
        to one agent and graphs without edges."""
        s = _plant_scenario(np.random.default_rng(seed), n)
        assert np.array_equal(ncs.stacked_closed_loop(s),
                              plant_oracle.stacked_closed_loop(s))


class _DequeBuffer:
    """The deque + column_stack window `SnapshotBuffer` used to keep."""

    def __init__(self, width):
        self.cols = deque(maxlen=width + 1)

    def push(self, x):
        self.cols.append(np.array(x, float))

    def matrices(self):
        cols = list(self.cols)
        if len(cols) < 2:
            return None
        return np.column_stack(cols[:-1]), np.column_stack(cols[1:])


class TestSnapshotRing:
    @PROPERTY
    @given(seed=seeds, width=st.integers(min_value=1, max_value=12),
           dim=st.integers(min_value=1, max_value=9))
    def test_matches_deque_through_three_wraps(self, seed, width, dim):
        rng = np.random.default_rng(seed)
        buf, oracle = SnapshotBuffer(width, dim), _DequeBuffer(width)
        for _ in range(3 * (width + 1) + int(rng.integers(0, width + 1))):
            x = rng.normal(size=dim)
            buf.push(x)
            oracle.push(x)
            assert len(buf) == len(oracle.cols)
            assert buf.is_full == (len(oracle.cols) == width + 1)
            assert buf.can_fit == (len(oracle.cols) >= 2)
            want = oracle.matrices()
            X, Xp = buf.X, buf.X_plus
            if want is None:
                assert X.shape == Xp.shape == (dim, 0)
                continue
            for got, ref in zip((X, Xp), want):
                assert np.array_equal(got, ref)
                assert got.flags.c_contiguous and got.tobytes() == ref.tobytes()
            X[:] = np.nan  # a caller's edit stays out of the buffer
            Xp[:] = np.nan
            assert np.array_equal(buf.X, want[0])
            assert np.array_equal(buf.X_plus, want[1])


def _loop_pair_errors(s, x):
    """Per-pair formation errors of one state, one pair at a time."""
    pos = x.reshape(s.n_agents, 4)[:, [0, 2]]
    out = []
    for i in range(s.n_agents):
        for j in range(i + 1, s.n_agents):
            want = offset_difference(s, i, j)[[0, 2]]
            out.append(np.linalg.norm(pos[i] - pos[j] - want))
    return np.array(out)


def _loop_tracking(s, x, k):
    """Per-agent slot deviations of one state, one agent at a time."""
    X = x.reshape(s.n_agents, 4)
    out = []
    for i in range(s.n_agents):
        want = slot(s, i, k)
        out.append(np.hypot(X[i, 0] - want[0], X[i, 2] - want[2]))
    return np.array(out)


def _tree_scenario(n, horizon):
    """n-agent binary tree (agent a under a // 2), fdi_dos-ready."""
    edges = {((a + 1) // 2 - 1, a) for a in range(1, n)}
    offsets = [(8.0 * (a % 4) - 12.0, -4.0 * (a.bit_length() - 1))
               for a in range(1, n + 1)]
    return build_scenario(seed=3, n_agents=n, horizon_steps=horizon,
                          edges=edges, offsets=offsets,
                          attack=AttackConfig(horizon=3))


@pytest.mark.parametrize("scenario, mode", [
    (build_scenario(seed=2, horizon_steps=200), "nominal"),
    (_tree_scenario(10, 120), "fdi_dos"),
], ids=["nominal-5", "fdi_dos-10"])
def test_harness_metrics_match_per_step_loops(scenario, mode):
    record = run(scenario, mode)
    if mode == "fdi_dos":
        assert sum(d is not None for d in record.decisions) > 0
        assert record.dos_events
    want_pairs = np.array([_loop_pair_errors(scenario, x) for x in record.states])
    want_tracking = np.array([_loop_tracking(scenario, x, k)
                              for k, x in enumerate(record.states)])
    assert np.array_equal(record.pair_errors, want_pairs)
    assert np.array_equal(record.tracking, want_tracking)


def _laprec_factors(kind, seed, n_agents):
    """K, T and L for one factor-step check. "structured" builds
    K = S + kron(L0, T0) plus noise; "diagonal_L" gives L no off-diagonal
    mass and "zero_T" sets T = 0, so both ridge branches run."""
    rng = np.random.default_rng(seed)
    n = 4 * n_agents
    K = rng.normal(scale=rng.uniform(0.1, 10.0), size=(n, n))
    T = rng.normal(size=(4, 4))
    L = laprec.project_laplacian_cone(rng.normal(size=(n_agents, n_agents)))
    if kind == "structured":
        K = 1e-3 * K + np.kron(L, T)
    elif kind == "diagonal_L":
        L = np.diag(rng.normal(size=n_agents))
    elif kind == "zero_T":
        T = np.zeros((4, 4))
    return K, T, L


def _recover_input(kind, seed, n_agents):
    """K for a whole recovery. "block_diagonal" has no off-diagonal blocks, so
    the first sweep finds an L with no off-diagonal mass and then T = 0."""
    rng = np.random.default_rng(seed)
    n = 4 * n_agents
    K = rng.normal(size=(n, n))
    if kind == "structured":
        L0 = laprec.project_laplacian_cone(rng.normal(size=(n_agents, n_agents)))
        K = 1e-3 * K + np.kron(L0, rng.normal(size=(4, 4)))
    elif kind == "block_diagonal":
        K = K * np.kron(np.eye(n_agents), np.ones((4, 4)))
    return K


class TestLaprecBlockView:
    """The factor steps reduce over one (N, N, 4, 4) block view of K in the
    same order as the per-block loops they replace (`laprec_oracle`), so
    `recover` takes the same path sweep for sweep."""

    @PROPERTY
    @given(seed=seeds, n_agents=st.integers(min_value=2, max_value=12),
           kind=st.sampled_from(["random", "structured", "diagonal_L", "zero_T"]))
    def test_factor_steps_match_loops(self, seed, n_agents, kind):
        K, T, L = _laprec_factors(kind, seed, n_agents)
        assert np.array_equal(laprec.s_step(K, T, L), laprec_oracle.s_step(K, T, L))
        for got, want in ((laprec.t_step(K, L), laprec_oracle.t_step(K, L)),
                          (laprec.l_step(K, T), laprec_oracle.l_step(K, T))):
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1]
        assert (laprec._offdiag_residual(K, L, T)
                == laprec_oracle.offdiag_residual(K, L, T))

    @PROPERTY
    @given(seed=seeds, n_agents=st.integers(min_value=2, max_value=12),
           kind=st.sampled_from(["random", "structured", "block_diagonal"]))
    def test_recover_matches_loops(self, seed, n_agents, kind):
        K = _recover_input(kind, seed, n_agents)
        got = laprec.recover(K, seed=seed)
        with mock.patch.multiple(laprec, s_step=laprec_oracle.s_step,
                                 t_step=laprec_oracle.t_step,
                                 l_step=laprec_oracle.l_step,
                                 _offdiag_residual=laprec_oracle.offdiag_residual):
            want = laprec.recover(K, seed=seed)
        for name in "LST":
            assert np.array_equal(getattr(got.model, name), getattr(want.model, name))
        assert got.gamma == want.gamma
        assert got.iterations == want.iterations
        assert got.trace == want.trace
        assert got.frobenius_trace == want.frobenius_trace
        assert got.regularized == want.regularized
        if kind == "block_diagonal":
            assert got.regularized
