"""Property tests: the batched and vectorised passes keep the results of the
per-agent, per-pair and per-step computations they replace.

The plant, snapshot, metric and recovery passes must return the loops'
bytes: the benchmark's decision fingerprints allow separations to drift by
1e-9 relative, so these compare with `np.array_equal`, not a tolerance. The
half-plane pass is checked on `agent_polygon` against the all-pairs oracle
(`halfspace_oracle`) and its pair table against the segment oracle: the pass
intersects adjacent faces only, and its ring may start at another vertex than
the oracle's and hold another float of a merged run, so the two agree up to
rotation within the 1e-9 * scale that defines one vertex.
"""
import dataclasses
import re
import warnings
from collections import deque

import numpy as np
import pytest
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import laprec_oracle
import plant_oracle
from halfspace_oracle import halfspace_polygon as oracle_polygon, random_directions
from scenario_helpers import offset_difference, slot
from segment_oracle import segment_distance

from ncsred import laprec, ncs
from ncsred.attack import AttackConfig, agent_reach_polygon
from ncsred.dmd import SnapshotBuffer
from ncsred.errors import DegenerateGeometryError
from ncsred.graph import Graph
from ncsred.harness import run
from ncsred.reachset import (FEAS_TOL, AgentPolygon, agent_polygon,
                             batch_reach_supports, circumscribe_ball,
                             embed_input_map, pair_distances, pair_indices,
                             planar_directions, polygon_distance)
from ncsred.scenario_io import build_scenario

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

#: the named error of supports that are no convex set's
NOT_CONVEX = r"supports row \d+ are no convex set's: face \d+ cuts off"


def halfspace_polygon(D, g):
    """`agent_polygon`'s vertices for supports g: one array for g (m,), a
    list of one per row for g (A, m)."""
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


def _half_planes(kind, seed, parallel=True):
    rng = np.random.default_rng(seed)
    D = random_directions(rng, parallel)
    return D, _supports(kind, D, rng)


def _supports(kind, D, rng):
    """Support values on the directions D: a point's, an empty set's
    (every half-plane pulled in past a common point), or a random point
    cloud's, with faces pushed out (which may leave them tight) or at scales
    of 1e6-1e9."""
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


def _same_ring(got, want):
    """got is want up to rotation, each vertex within 1e-9 * scale."""
    assert got.shape == want.shape
    tol = 1e-9 * max(1.0, np.abs(want).max())
    assert any(np.hypot(*(np.roll(got, k, axis=0) - want).T).max() <= tol
               for k in range(len(got)))


def _assert_extremes_maximise(D, g, V):
    """The polygon of supports g and vertices V, first and last in one `agent_polygon` call
    with a point on each mid-arc direction between its sorted normals and
    their negatives, scores each point at the segment oracle's distance from
    the polygon's ring, within 1e-8 * scale. Those pairs read the polygon's
    min (first row) and max (last row) vertices on every fan arc, which a
    vertex that does not maximise its arc moves off the ring. Direction
    sets on which the pass refuses the points' supports have no probes."""
    ang = np.sort(np.arctan2(*np.vstack([D, -D])[:, ::-1].T))
    arcs = 0.5 * (ang + np.append(ang[1:], ang[0] + 2 * np.pi))
    reach = 10.0 * (np.ptp(V, axis=0).max() + 1.0)
    probes = V.mean(axis=0) + reach * np.column_stack([np.cos(arcs), np.sin(arcs)])
    G = np.vstack([g, probes @ D.T, g])
    polys = _outcome(agent_polygon, D, range(len(G)), G)
    if isinstance(polys, str):
        # a point's exact supports are refused where two adjacent normals
        # are within about 1e-7 rad of anti-parallel: no probe fits there
        assert not polys.startswith(("supports row 0 ", f"supports row {len(G) - 1} "))
        return
    table = pair_distances(polys)
    ii, jj = pair_indices(len(G))
    want = np.array([segment_distance(V, q[None]) for q in probes])
    tol = 1e-8 * max(1.0, np.abs(probes).max())
    last = len(G) - 1
    for pairs in ((ii == 0) & (jj > 0) & (jj < last), (ii > 0) & (jj == last)):
        assert np.abs(table[pairs] - want).max() <= tol


def _assert_polygon_invariants(p, D, g):
    """p's ring is non-empty, counter-clockwise and convex, every vertex
    passes every face within FEAS_TOL * scale, every face is attained, and
    its extremes maximise their arcs (the last two within 1e-8 * scale, the
    dedupe's merge radius chained along a run)."""
    V = p.vertices
    assert len(V) >= 1
    scale = max(1.0, np.abs(V).max())
    E = np.roll(V, -1, axis=0) - V
    F = np.roll(E, -1, axis=0)
    assert (E[:, 0] * F[:, 1] - E[:, 1] * F[:, 0] >= -1e-9 * scale**2).all()
    proj = V @ D.T
    assert (proj <= g + FEAS_TOL * scale).all()
    assert (proj.max(axis=0) >= g - 1e-8 * scale).all()
    _assert_extremes_maximise(D, g, V)


class TestHalfspacePolygon:
    @PROPERTY
    @given(seed=seeds, kind=st.sampled_from(["support", "point"]))
    def test_matches_all_pairs_oracle(self, seed, kind):
        """A convex set's supports at unit scale give the oracle's vertices
        up to rotation, or its error where the directions fail to span."""
        D, g = _half_planes(kind, seed)
        want = _outcome(oracle_polygon, D, g)
        got = _outcome(halfspace_polygon, D, g)
        if isinstance(want, str):
            assert got == want
        else:
            _same_ring(got, want)

    @PROPERTY
    @given(seed=seeds, kinds=st.lists(st.sampled_from(["support", "redundant",
                                                       "point", "empty"]),
                                      min_size=1, max_size=12))
    def test_batch_rows_match_oracle(self, seed, kinds):
        """Rows of mixed kinds on one direction set, without (nearly)
        parallel faces: each row is the oracle's polygon up to rotation, and
        a batch with a row that is no convex set's raises, naming the first
        such row. By the oracle, such a row is empty or has a face at least
        1e-6 short of tight; every other row is tight within 1e-9."""
        rng = np.random.default_rng(seed)
        D = random_directions(rng, parallel=False)
        G = np.array([_supports(kind, D, rng) for kind in kinds])
        want = [_outcome(oracle_polygon, D, g) for g in G]
        got = _outcome(halfspace_polygon, D, G)
        if any("span" in w for w in want if isinstance(w, str)):
            assert got == want[0]
            return
        slack = [np.inf if isinstance(w, str) else (g - (w @ D.T).max(axis=0)).max()
                 for g, w in zip(G, want)]
        assert all(s > 1e-6 or s <= 1e-9 for s in slack)
        bad = [r for r, s in enumerate(slack) if s > 1e-6]
        if bad:
            assert re.match(NOT_CONVEX, got)
            assert got.startswith(f"supports row {bad[0]} ")
            return
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _same_ring(a, b)

    @pytest.mark.parametrize("m", [9, 15, 35])
    @pytest.mark.parametrize("center, offset", [((0.0, 0.0), 1.0),
                                                ((1.0, 0.0), 1.0),
                                                ((0.0, -3.0), 2.5)])
    def test_regular_polygons_match_oracle(self, m, center, offset):
        """Regular polygons, some with a vertex level with the centre, keep
        every vertex."""
        D = planar_directions(m)
        g = D @ np.array(center) + offset
        _same_ring(halfspace_polygon(D, g), oracle_polygon(D, g))

    def test_cached_directions_are_not_shared_state(self):
        D = planar_directions(8)
        first = halfspace_polygon(D, np.ones(8))
        D[:] = -D[::-1]  # the caller's array changes after the first call
        _same_ring(halfspace_polygon(D, np.ones(8)), oracle_polygon(D, np.ones(8)))
        assert np.array_equal(halfspace_polygon(planar_directions(8), np.ones(8)),
                              first)

    @PROPERTY
    @given(seed=seeds)
    def test_large_supports_keep_invariants(self, seed):
        """Supports of 1e6-1e9, where the oracle's absolute FEAS_TOL drops
        true vertices, give a polygon that keeps the invariants."""
        D, g = _half_planes("large", seed)
        p = _outcome(agent_polygon, D, 0, g)
        if isinstance(p, str):
            assert "span" in p and p == _outcome(oracle_polygon, D, g)
        else:
            _assert_polygon_invariants(p, D, g)

    @pytest.mark.parametrize("seed", [1, 309])
    def test_builds_the_ring_the_oracle_finds_empty(self, seed):
        """Large supports that the oracle's absolute FEAS_TOL reports empty:
        a point at |g| ~ 2e8 on 20 directions, and a triangle at ~5e7."""
        D, g = _half_planes("large", seed)
        with pytest.raises(DegenerateGeometryError, match="empty"):
            oracle_polygon(D, g)
        p = agent_polygon(D, 0, g)
        assert len(p.vertices) == {1: 1, 309: 3}[seed]
        _assert_polygon_invariants(p, D, g)

    @PROPERTY
    @given(seed=seeds, kind=st.sampled_from(["redundant", "empty"]))
    def test_redundant_and_empty_rows_raise(self, seed, kind):
        """Supports with a face at least 1e-6 short of tight (by the oracle),
        or an empty set, raise the named error; tight ones give a ring."""
        D, g = _half_planes(kind, seed, parallel=False)
        want = _outcome(oracle_polygon, D, g)
        if isinstance(want, str) and "span" in want:
            return
        if isinstance(want, str) or (g - (want @ D.T).max(axis=0)).max() > 1e-6:
            with pytest.raises(DegenerateGeometryError, match=NOT_CONVEX):
                agent_polygon(D, 0, g)
        else:
            _same_ring(halfspace_polygon(D, g), want)


ROW_KINDS = ["support", "point", "large", "redundant", "empty"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestAdjacentFacePass:
    """`agent_polygon` intersects each face with its angular neighbour only,
    on every row and every direction set."""

    @PROPERTY
    @given(seed=seeds, kinds=st.lists(st.sampled_from(ROW_KINDS),
                                      min_size=2, max_size=10),
           uniform=st.booleans())
    def test_mixed_batch_rows_equal_single_row_calls(self, seed, kinds, uniform):
        """Every row has the vertex bytes of its single-row call and keeps
        the invariants, and a pair of rows scores the bytes of a call on
        those two rows alone; a batch with a row that is no convex set's
        raises what the first such row raises, under its batch row number."""
        rng = np.random.default_rng(seed)
        D = (planar_directions(int(rng.integers(3, 25))) if uniform
             else random_directions(rng))
        G = np.array([_supports(kind, D, rng) for kind in kinds])
        want = [_outcome(agent_polygon, D, a, g) for a, g in enumerate(G)]
        got = _outcome(agent_polygon, D, range(len(G)), G)
        errors = [(r, w) for r, w in enumerate(want) if isinstance(w, str)]
        if errors:
            r, w = errors[0]
            assert got == w.replace("supports row 0 ", f"supports row {r} ")
            return
        for r, (p, q) in enumerate(zip(got, want)):
            assert p.vertices.tobytes() == q.vertices.tobytes()
            _assert_polygon_invariants(p, D, G[r])
        ii, jj = pair_indices(len(G))
        k = int(rng.integers(len(ii)))
        pair = pair_distances(agent_polygon(D, [0, 1], G[[ii[k], jj[k]]]))
        assert pair.tobytes() == pair_distances(got)[k:k + 1].tobytes()

    def test_batch_builds_no_ring(self):
        """A call keeps every row's points and builds no ring until one is
        read: scoring its pairs reads no vertices, and each ring, when read,
        keeps the invariants."""
        D = planar_directions(16)
        rng = np.random.default_rng(5)
        G = np.array([_supports(kind, D, rng)
                      for kind in ("support", "large", "point")])
        reads, prop = [], AgentPolygon.vertices
        with mock.patch.object(AgentPolygon, "vertices", property(
                lambda p: reads.append(p) or prop.fget(p))):
            polys = agent_polygon(D, range(3), G)
            pair_distances(polys)
            polygon_distance(polys[0], polys[2])
        assert reads == []
        for r, p in enumerate(polys):
            _assert_polygon_invariants(p, D, G[r])

    @PROPERTY
    @given(seed=seeds, kind=st.sampled_from(["support", "point", "large"]),
           n=st.integers(min_value=1, max_value=8))
    def test_read_vertices_equal_supports_built_alone(self, seed, kind, n):
        """A ring built when read comes from the points the call kept: a
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
        fan arc next to a face normal: the extremes, taken from the arc's
        gap, still maximise the arc within 1e-8 * scale."""
        rng = np.random.default_rng(seed)
        ang = rng.uniform(-np.pi, np.pi, size=int(rng.integers(5, 12)))
        ang[1] = ang[0] + np.pi + rng.choice([-1.0, 1.0]) * 10.0 ** log_gap
        D = np.column_stack([np.cos(ang), np.sin(ang)])
        pts = rng.normal(scale=5.0, size=2) + rng.normal(
            scale=10.0 ** rng.uniform(-8, 0), size=(int(rng.integers(2, 6)), 2))
        g = (pts @ D.T).max(axis=0)
        p = _outcome(agent_polygon, D, 0, g)
        if not isinstance(p, str):
            _assert_polygon_invariants(p, D, g)

    @pytest.mark.parametrize("turn", [-3e-13, 0.0, 3e-13])
    def test_parallel_normals_across_pi_merge(self, turn):
        """A normal within ANGLE_TOL of (-1, 0) on the other side of +-pi
        merges with it: the pair meets at no far-off point."""
        D = planar_directions(8)
        D = np.vstack([D, [np.cos(np.pi + turn), np.sin(np.pi + turn)]])
        cloud = np.array([[3.5, 39.0], [5.0, 40.3], [2.0, 41.5]])
        g = (cloud @ D.T).max(axis=0)
        _same_ring(halfspace_polygon(D, g), oracle_polygon(D, g))

    @PROPERTY
    @given(seed=seeds, kind=st.sampled_from(ROW_KINDS))
    def test_random_directions_warn_nothing(self, seed, kind):
        """Direction sets with repeated, negated and nearly parallel normals
        divide by no vanishing determinant."""
        D, g = _half_planes(kind, seed)
        _outcome(agent_polygon, D, 0, g)
        _outcome(agent_polygon, D, [0, 1], np.array([g, g + 1.0]))
        _outcome(lambda: agent_polygon(D, 0, g).vertices)


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
        got = agent_reach_polygon(K, B, x0, omega, m, h)

        dirs = planar_directions(m)
        assert [p.agent for p in got] == list(range(n_agents))
        for a, poly in enumerate(got):
            lifts = np.zeros((m, n))
            lifts[:, 4 * a] = dirs[:, 0]
            lifts[:, 4 * a + 2] = dirs[:, 1]
            sup, _ = batch_reach_supports(K, h, embed_input_map(B, a, n_agents),
                                          x0, omega, lifts)
            want = agent_polygon(dirs, a, sup)
            assert np.array_equal(poly.supports, want.supports)
            assert np.array_equal(poly.vertices, want.vertices)


class TestDirectionFan:
    """Pairs are scored on the fan of every polygon's normals and their
    negatives, merged within ANGLE_TOL, on which every edge normal of the
    pairs' Minkowski differences lies."""

    def test_cached_directions_are_not_shared_state(self):
        """An in-place edit of the caller's directions after the call leaves
        the polygon's directions and scores, and a fresh polygon on fresh
        directions scores as the first did."""
        D = planar_directions(8)
        P = agent_polygon(D, 0, np.ones(8))
        Q = agent_polygon(planar_directions(5), 1, planar_directions(5) @ [4.0, 1.0])
        first = polygon_distance(P, Q)
        D[:] = np.roll(D, 1, axis=0) * [1.0, 0.5]  # the caller's array changes
        D /= np.linalg.norm(D, axis=1, keepdims=True)
        assert P.directions.tobytes() == planar_directions(8).tobytes()
        assert polygon_distance(P, Q) == first
        fresh = agent_polygon(planar_directions(8), 0, np.ones(8))
        assert polygon_distance(fresh, Q) == first


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
        assert np.array_equal(
            ncs.control_inputs(s, k, x, ncs.neighbor_index(s.graph, s.formation_offsets)),
            plant_oracle.feedback_inputs(s, k, x) + s.track.acc[k])
        # the index a run builds once per graph stands in for the graph
        assert np.array_equal(
            ncs.control_inputs(s, k, x, ncs.neighbor_index(graph, s.formation_offsets)),
            want_u)
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


class TestRunReplay:
    def test_fdi_dos_run_matches_loop_replay(self):
        """An fdi_dos run whose planned DoS jams node 4 replays on the loop
        oracle: feedback on the graph active at each step, the track's
        feedforward and the recorded injection give every state row's bytes,
        so neighbour terms that kept the first graph's offset differences
        would fail."""
        s = build_scenario(seed=0, horizon_steps=80,
                           attack=AttackConfig(rho=0.05, s=8, start_step=51,
                                               dos_step=60, snapshot_width=50))
        r = run(s, "fdi_dos")
        event = r.dos_events[0]
        assert event.removed_edges == [(2, 4)] and event.k == 60
        after = Graph(s.n_agents, s.graph.edges - set(event.removed_edges))
        x = r.states[0]
        for k in range(r.horizon):
            graph = s.graph if k < event.k else after
            u = plant_oracle.feedback_inputs(s, k, x, graph) + s.track.acc[k]
            d = r.decisions[k]
            x = plant_oracle.step(s, x, u, None if d is None else d.u_a)
            assert np.array_equal(x, r.states[k + 1]), k


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
            window = buf.window
            assert not window.flags.writeable  # a caller cannot edit the buffer
            if want is None:
                assert window.shape == (dim, len(oracle.cols))
                continue
            for got, ref in zip((window[:, :-1], window[:, 1:]), want):
                assert got.tobytes() == ref.tobytes()


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


def test_pair_errors_past_the_square_overflow_take_hypot():
    """An agent slotted 1e160 m away makes its pairs' squared errors overflow
    (at step 0 only its own pairs; the feedback then spreads the error): those
    entries are hypot's finite values, every other entry keeps the per-pair
    loop's bytes, and no numpy warning is raised."""
    offsets = [(0, 0), (-4, -3), (4, -3), (-8, 0), (1e160, 1e160)]
    s = build_scenario(seed=0, horizon_steps=20, offsets=offsets)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        record = run(s, "nominal")
    with np.errstate(over="ignore"):
        want = np.array([_loop_pair_errors(s, x) for x in record.states])
    big = np.isinf(want)
    assert big[0, [3, 6, 8, 9]].all() and not big[0, [0, 1, 2, 4, 5, 7]].any()
    assert np.array_equal(record.pair_errors[~big], want[~big])
    pos = record.states.reshape(len(record.states), s.n_agents, 4)[..., ::2]
    slots = s.formation_offsets[:, ::2]
    for col, (i, j) in enumerate(record.pairs):
        d = pos[:, i] - pos[:, j] - (slots[i] - slots[j])
        rows = big[:, col]
        assert np.array_equal(record.pair_errors[rows, col],
                              np.hypot(d[rows, 0], d[rows, 1]))
    assert np.isfinite(record.pair_errors).all()


def test_pair_errors_of_slots_farther_apart_than_the_float_range():
    """Agents 3 and 4 slotted at -1e308 and 1e308, whose slot difference
    overflows, and started on their slots: every pair error is finite and no
    numpy warning is raised. Pair 3-4 subtracts each agent's slot first and
    takes hypot of (p_3 - o_3) - (p_4 - o_4); every other entry keeps the
    per-pair loop's bytes."""
    offsets = [(0, 0), (-4, -3), (4, -3), (-1e308, -1e308), (1e308, 1e308)]
    s = build_scenario(seed=0, horizon_steps=20, offsets=offsets)
    s = dataclasses.replace(s, initial_states=s.formation_offsets + s.track.states[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        record = run(s, "nominal")
    assert np.isfinite(record.pair_errors).all()
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.array([_loop_pair_errors(s, x) for x in record.states])
    far = ~np.isfinite(want)
    assert far[:, 9].all() and not far[:, :9].any()  # column 9 is pair 3-4
    assert np.array_equal(record.pair_errors[~far], want[~far])
    pos = record.states.reshape(len(record.states), s.n_agents, 4)[..., ::2]
    slots = s.formation_offsets[:, ::2]
    d = (pos[:, 3] - slots[3]) - (pos[:, 4] - slots[4])
    assert np.array_equal(record.pair_errors[:, 9], np.hypot(d[:, 0], d[:, 1]))


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
        assert np.array_equal(laprec.t_step(K, L), laprec_oracle.t_step(K, L))
        assert np.array_equal(laprec.l_step(K, T), laprec_oracle.l_step(K, T))
        assert (laprec._offdiag_residual(K, L, T)
                == laprec_oracle.offdiag_residual(K, L, T))

    @PROPERTY
    @given(seed=seeds, n_agents=st.integers(min_value=2, max_value=12),
           kind=st.sampled_from(["random", "structured", "block_diagonal"]))
    @example(seed=94294, n_agents=3, kind="random")  # x ** 2 != x * x here
    def test_recover_matches_loops(self, seed, n_agents, kind):
        K = _recover_input(kind, seed, n_agents)
        got = laprec.recover(K)
        with mock.patch.multiple(laprec, s_step=laprec_oracle.s_step,
                                 t_step=laprec_oracle.t_step,
                                 l_step=laprec_oracle.l_step,
                                 _offdiag_residual=laprec_oracle.offdiag_residual):
            want = laprec.recover(K)
        for name in "LST":
            assert np.array_equal(getattr(got.model, name), getattr(want.model, name))
        assert got.gamma == want.gamma
        assert got.iterations == want.iterations
        assert got.trace == want.trace
        assert got.frobenius_trace == want.frobenius_trace
