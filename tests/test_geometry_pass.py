"""One geometry pass per attacked step.

`agent_polygon` keeps every polygon's extreme vertices from the pass that
finds its vertices, and the distance queries read them instead of projecting
the vertices again; an attacked run builds no vertex ring. The reach pass's directions, injection maps
and lifts, the injection candidates and the S - S ring's edges are built once
per run and cached read-only, and a run builds each active graph's neighbour
index once. Each must give the bytes of the per-call computation it replaces.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsred import attack, reachset
from ncsred.attack import AttackConfig, agent_reach_polygon
from ncsred.dmd import DEFAULT_SVD_TOL, SnapshotBuffer, fit
from ncsred.errors import InvalidInputError
from ncsred.graph import Graph
from ncsred.harness import run
from ncsred.reachset import (AgentPolygon, _direction_fan, _extreme_vertices,
                             agent_polygon, circumscribe_ball, pair_distances,
                             planar_directions, polygon_distance)
from ncsred.scenario_io import build_scenario

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _batch(rng, n_polygons, m):
    """One `agent_polygon` batch on m uniform directions. Polygon 0 is a
    point and polygon 1 a spread cloud, so vertex counts differ."""
    D = planar_directions(m)
    G = []
    for a in range(n_polygons):
        spread = {0: 0.0, 1: 1.0}.get(a, rng.choice([0.0, 1e-3, 1.0]))
        pts = rng.normal(scale=10.0, size=2) + rng.normal(
            scale=spread, size=(int(rng.integers(3, 8)), 2))
        G.append((pts @ D.T).max(axis=0))
    return agent_polygon(D, np.arange(n_polygons), np.array(G))


def _by_hand(p):
    """The polygon as a caller would build it, without stored extremes."""
    return AgentPolygon(p.agent, p.directions, p.supports, p.vertices)


class TestStoredExtremes:
    @PROPERTY
    @given(seed=seeds, n=st.integers(min_value=2, max_value=10),
           m=st.integers(min_value=3, max_value=24))
    def test_match_recomputed_extremes(self, seed, n, m):
        polys = _batch(np.random.default_rng(seed), n, m)
        assert len({len(p.vertices) for p in polys}) > 1
        _, arcs = _direction_fan(polys)
        assert all(p.extremes[0] is arcs for p in polys)
        got = _extreme_vertices(polys, arcs)
        want = _extreme_vertices([_by_hand(p) for p in polys], arcs)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @PROPERTY
    @given(seed=seeds, n=st.integers(min_value=2, max_value=10),
           m=st.integers(min_value=3, max_value=24))
    def test_distances_match_hand_built_copies(self, seed, n, m):
        rng = np.random.default_rng(seed)
        polys = _batch(rng, n, m)
        hand = [_by_hand(p) for p in polys]
        assert pair_distances(polys).tobytes() == pair_distances(hand).tobytes()
        i, j = map(int, rng.choice(n, size=2, replace=False))
        want = polygon_distance(hand[i], hand[j])
        assert polygon_distance(polys[i], polys[j]) == want
        # one stored and one hand-built polygon take the recompute path
        assert polygon_distance(polys[i], hand[j]) == want

    def test_scalar_agent_keeps_extremes(self):
        D = planar_directions(8)
        p = agent_polygon(D, 3, np.ones(8))
        _, arcs = _direction_fan([p])
        assert p.agent == 3 and p.extremes[0] is arcs
        for g, w in zip(_extreme_vertices([p], arcs),
                        _extreme_vertices([_by_hand(p)], arcs)):
            assert g.tobytes() == w.tobytes()

    def test_changed_directions_are_recomputed(self):
        D = planar_directions(8)
        p = agent_polygon(D, 0, np.ones(8))
        D[:] = np.roll(D, 1, axis=0)  # the caller's array changes
        _, arcs = _direction_fan([p])
        assert p.extremes[0] is not arcs
        for g, w in zip(_extreme_vertices([p], arcs),
                        _extreme_vertices([_by_hand(p)], arcs)):
            assert g.tobytes() == w.tobytes()


def test_attacked_run_builds_no_vertex_ring():
    """An attacked h = 2 run takes every extreme from the adjacent-face pass:
    it makes no all-pairs pass, builds no vertex ring and projects no
    vertices. Its decisions are those of a run whose polygons all take the
    all-pairs pass and project their rings, with the scores within the
    benchmark's 1e-9 relative tolerance."""
    s = build_scenario(seed=4, horizon_steps=70,
                       attack=AttackConfig(start_step=51, dos_step=60, horizon=2))
    spies = [mock.patch.object(reachset, name, wraps=getattr(reachset, name))
             for name in ("_ccw_batch", "_ring", "_padded_extremes")]
    with spies[0] as batch, spies[1] as ring, spies[2] as pad:
        record = run(s, "fdi_dos")
    assert sum(d is not None for d in record.decisions) > 0
    assert record.dos_events
    assert batch.call_count == ring.call_count == pad.call_count == 0
    with mock.patch.object(reachset, "_adjacent_faces", return_value=None):
        want = run(s, "fdi_dos")
    assert len(record.decisions) == len(want.decisions)
    for got, ref in zip(record.decisions, want.decisions):
        assert (got is None) == (ref is None)
        if got is not None:
            assert got.targets == ref.targets
            assert got.u_a.tobytes() == ref.u_a.tobytes()
            # a merged vertex may be another float of the same run (1e-9 *
            # scale); the benchmark's fingerprints allow 1e-9 relative
            for name in ("separation_before", "separation_after"):
                assert getattr(got, name) == pytest.approx(getattr(ref, name),
                                                           rel=1e-9, abs=0)
    assert record.states.tobytes() == want.states.tobytes()


def _random_problem(rng):
    n_agents = int(rng.integers(2, 7))
    n = 4 * n_agents
    K = rng.normal(size=(n, n))
    K *= rng.uniform(0.1, 3.0) / np.linalg.norm(K, 2)
    omega = circumscribe_ball(rng.uniform(0.01, 1.0), int(rng.integers(3, 10)),
                              seed=int(rng.integers(1000)))
    return n_agents, K, rng.normal(size=(4, 2)), omega


class TestRunConstantTables:
    @pytest.mark.parametrize("seed", range(5))
    def test_read_only_and_equal_to_per_step_build(self, seed):
        rng = np.random.default_rng(seed)
        n_agents, K, B, omega = _random_problem(rng)
        agents = rng.permutation(n_agents)[:int(rng.integers(1, n_agents + 1))]
        m = int(rng.integers(3, 20))
        x = rng.normal(size=4 * n_agents)
        first = agent_reach_polygon(K, B, agents, x, omega, m, 2)

        dirs, Bsel, lifts = attack._reach_operands(
            B.tobytes(), B.shape, agents.tobytes(), n_agents, m)
        assert all(p.directions is dirs for p in first)
        rows = np.arange(len(agents))
        want_B = np.zeros((len(agents), 4 * n_agents, 2))
        want_B[rows[:, None], 4 * agents[:, None] + np.arange(4)] = B
        want_L = np.zeros((len(agents), m, 4 * n_agents))
        want_L[rows, :, 4 * agents] = planar_directions(m)[:, 0]
        want_L[rows, :, 4 * agents + 2] = planar_directions(m)[:, 1]
        for got, want in ((dirs, planar_directions(m)), (Bsel, want_B),
                          (lifts, want_L)):
            assert got.tobytes() == want.tobytes()

        V = omega.vertices
        Ui, Uj = attack._candidates(V.tobytes())
        s = len(V)
        assert Ui.tobytes() == np.vstack([np.repeat(V, s, axis=0), np.zeros(2)]).tobytes()
        assert Uj.tobytes() == np.vstack([np.tile(V, (s, 1)), np.zeros(2)]).tobytes()

        Bpos = np.ascontiguousarray(B[[0, 2]])
        ring, faces, edges = reachset._input_difference(V.tobytes(), Bpos.tobytes(), m)
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(edges, reachset._ring_edges(ring)))

        for v in (dirs, Bsel, lifts, Ui, Uj, ring, faces, *edges):
            assert not v.flags.writeable
            with pytest.raises(ValueError):
                v[(0,) * v.ndim] = 1.0

        # directions handed to callers stay fresh and writable
        fresh = planar_directions(m)
        assert fresh.flags.writeable and fresh is not dirs
        fresh[:] = 0.0
        again = agent_reach_polygon(K, B, agents, x, omega, m, 2)
        for p, q in zip(first, again):
            assert p.vertices.tobytes() == q.vertices.tobytes()


def test_reach_polygon_names_empty_agent_list():
    omega = circumscribe_ball(0.1, 4)
    with pytest.raises(InvalidInputError, match="non-empty sequence"):
        agent_reach_polygon(np.eye(8), np.eye(4, 2), [], np.zeros(8), omega)


class TestNeighborIndex:
    @pytest.mark.parametrize("mode, graphs", [("nominal", 1), ("fdi_dos", 2)])
    def test_run_indexes_each_graph_once(self, mode, graphs):
        s = build_scenario(seed=2, horizon_steps=40,
                           attack=AttackConfig(start_step=20, dos_step=25,
                                               snapshot_width=10,
                                               dos_edge=(0, 1)))
        with mock.patch.object(Graph, "neighbors", autospec=True,
                               side_effect=Graph.neighbors) as nbrs:
            record = run(s, mode)
        assert len(record.graphs) == graphs
        assert nbrs.call_count == graphs * s.n_agents


def _diag_fit(buf, svd_tol):
    """`dmd.fit`'s K with the diagonal-matrix product it used to take."""
    X, Xp = buf.X, buf.X_plus
    U, sig, Vt = np.linalg.svd(X, full_matrices=False)
    if sig.size == 0 or sig[0] == 0.0:
        return np.zeros((buf.dim, buf.dim))
    rank = int(np.sum(sig > svd_tol * sig[0]))
    return (Xp @ Vt[:rank].T) @ np.diag(1.0 / sig[:rank]) @ U[:, :rank].T


class TestFitColumnScaling:
    @PROPERTY
    @given(seed=seeds, dim=st.integers(min_value=1, max_value=12),
           width=st.integers(min_value=1, max_value=15),
           rank=st.integers(min_value=0, max_value=12),
           svd_tol=st.sampled_from([DEFAULT_SVD_TOL, 1e-2]))
    def test_matches_diagonal_product(self, seed, dim, width, rank, svd_tol):
        """Low-rank snapshot windows, down to all-zero ones, give the K of
        the diagonal-matrix form."""
        rng = np.random.default_rng(seed)
        rank = min(rank, dim, width + 1)
        cols = rng.normal(size=(dim, rank)) @ rng.normal(
            scale=10.0 ** rng.uniform(-3, 3), size=(rank, width + 1))
        buf = SnapshotBuffer(width, dim)
        for col in cols.T:
            buf.push(col)
        got = fit(buf, svd_tol=svd_tol)
        assert got.rank_used <= rank
        assert np.array_equal(got.K, _diag_fit(buf, svd_tol))
