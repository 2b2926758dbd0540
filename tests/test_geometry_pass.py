"""One geometry pass per attacked step.

`agent_polygon` takes every polygon's extreme vertices from the pass that
finds its vertices and scores each pair of its polygons once, as it builds
them; selection and the chosen pair's separation read that table, and an
attacked run builds no vertex ring. The reach pass's directions, injection
maps and lifts, the injection candidates and the S - S ring's edges are
built once per run and cached read-only, and a run builds each active
graph's neighbour index once. Each must give the bytes of the per-call
computation it replaces.
"""
import gc
import sys
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsred import attack, harness, reachset
from ncsred.attack import AttackConfig, agent_reach_polygon, synthesize_fdi
from ncsred.dmd import DEFAULT_SVD_TOL, DmdModel, SnapshotBuffer, fit
from ncsred.graph import Graph
from ncsred.harness import run
from ncsred.reachset import (AgentPolygon, _adjacent_pass, _direction_fan,
                             _extreme_vertices, agent_polygon, circumscribe_ball,
                             pair_distances, pair_indices, planar_directions,
                             polygon_distance)
from ncsred.scenario_io import build_scenario, load_scenario

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from scenarios import WORKLOADS, scenario_text  # noqa: E402

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
    """The polygon as a caller would build it, without its call's record."""
    return AgentPolygon(p.agent, p.directions, p.supports, p.vertices)


def _pass_extremes(polys):
    """The max and min vertices (A, arcs, 2) that the adjacent-face pass
    finds for the polygons' directions and supports."""
    G = np.array([p.supports for p in polys])
    *_, hi, lo = _adjacent_pass(polys[0].directions, G)
    return hi.transpose(1, 2, 0), lo.transpose(1, 2, 0)


class TestStoredExtremes:
    """The adjacent-face pass's extremes, which build the pair table, are
    the bytes of projecting each polygon's vertices."""

    @PROPERTY
    @given(seed=seeds, n=st.integers(min_value=2, max_value=10),
           m=st.integers(min_value=3, max_value=24))
    def test_match_recomputed_extremes(self, seed, n, m):
        polys = _batch(np.random.default_rng(seed), n, m)
        assert len({len(p.vertices) for p in polys}) > 1
        _, arcs = _direction_fan(polys)
        want = _extreme_vertices([_by_hand(p) for p in polys], arcs)
        for got in (_pass_extremes(polys), _extreme_vertices(polys, arcs)):
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
        assert p.agent == 3 and p._row == 0 and len(p._call[1]) == 1
        for g, w in zip(_pass_extremes([p]),
                        _extreme_vertices([_by_hand(p)], arcs)):
            assert g.tobytes() == w.tobytes()


def test_attacked_run_builds_no_vertex_ring():
    """An attacked h = 2 run takes every extreme from the adjacent-face pass:
    it builds no vertex ring and projects no vertices. Its decisions are
    those of a run whose polygons are built by hand from their rings, so
    that every query projects the ring."""
    s = build_scenario(seed=4, horizon_steps=70,
                       attack=AttackConfig(start_step=51, dos_step=60, horizon=2))
    built = []

    def keep(*args):
        polys = agent_polygon(*args)
        built.extend(polys)
        return polys

    with mock.patch.object(attack, "agent_polygon", side_effect=keep), \
            mock.patch.object(reachset, "_extremes",
                              wraps=reachset._extremes) as extremes:
        record = run(s, "fdi_dos")
    assert sum(d is not None for d in record.decisions) > 0
    assert record.dos_events
    assert built and all(p._vertices is None for p in built)
    assert extremes.call_count == 0

    def by_hand(*args):
        return [_by_hand(p) for p in agent_polygon(*args)]

    with mock.patch.object(attack, "agent_polygon", side_effect=by_hand):
        want = run(s, "fdi_dos")
    assert len(record.decisions) == len(want.decisions)
    for got, ref in zip(record.decisions, want.decisions):
        assert (got is None) == (ref is None)
        if got is not None:
            assert got.targets == ref.targets
            assert got.u_a.tobytes() == ref.u_a.tobytes()
            for name in ("separation_before", "separation_after"):
                assert getattr(got, name) == getattr(ref, name)
    assert record.states.tobytes() == want.states.tobytes()


def _pool_run(tmp_path, workload, seed):
    """A benchmark pool scenario's run, with each attacked step's targets and
    polygons, and the count of `_ring_distances` calls."""
    path = tmp_path / f"{workload}-{seed}.scn"
    path.write_text(scenario_text(WORKLOADS[workload], seed))
    steps = []

    def keep(targets, model, omega, x, B, polygons):
        steps.append((targets, polygons))
        return synthesize_fdi(targets, model, omega, x, B, polygons)

    with mock.patch.object(harness, "synthesize_fdi", side_effect=keep), \
            mock.patch.object(reachset, "_ring_distances",
                              wraps=reachset._ring_distances) as rings:
        record = run(load_scenario(str(path)), WORKLOADS[workload].mode)
    return record, steps, rings.call_count


class TestPairTable:
    @pytest.mark.parametrize("workload, seed", [("stock_fdi_dos", 0),
                                                ("wide_h3_fdi_dos", 3)])
    def test_separation_before_is_the_table_entry(self, tmp_path, workload, seed):
        """Each attacked step scores its pairs once: the `agent_polygon`
        call builds the table that selection reads, and `separation_before`
        is the chosen pair's entry, equal to a fresh two-polygon computation.
        A step makes two ring passes: the pair table and the candidate
        scores."""
        record, steps, ring_passes = _pool_run(tmp_path, workload, seed)
        decisions = [d for d in record.decisions if d is not None]
        assert len(decisions) == len(steps) == 99
        assert ring_passes == 2 * len(steps)
        for d, (targets, polys) in zip(decisions, steps):
            table = polys[0]._call[2]
            assert pair_distances(polys) is table
            ii, jj = pair_indices(len(polys))
            k = int(np.flatnonzero((ii == targets[0]) & (jj == targets[1]))[0])
            assert d.separation_before == table[k]
            fresh = [agent_polygon(p.directions, p.agent, p.supports)
                     for p in (polys[i] for i in targets)]
            assert d.separation_before == polygon_distance(*fresh)

    @PROPERTY
    @given(seed=seeds, n=st.integers(min_value=4, max_value=10),
           m=st.integers(min_value=3, max_value=24))
    def test_other_queries_read_no_table(self, seed, n, m):
        """Reversed pairs, polygons from two calls, a batch copied to a list
        or a tuple, slices, a reversed batch and hand-built polygons compute
        their distances, with the bytes of another call on the same
        supports; in-order pairs of one call read its read-only table."""
        rng = np.random.default_rng(seed)
        polys = _batch(rng, n, m)
        D, G = polys[0].directions, np.array([p.supports for p in polys])
        other = agent_polygon(D, np.arange(n), G)
        second = _batch(rng, n, m)  # other polygons on equal directions
        hand = [_by_hand(p) for p in polys]
        i, j = sorted(map(int, rng.choice(n, size=2, replace=False)))
        queries = (lambda P: polygon_distance(P[j], P[i]),
                   lambda P: polygon_distance(P[i], (other if P is polys else polys)[j]),
                   lambda P: pair_distances(list(P)).tobytes(),
                   lambda P: pair_distances(tuple(P)).tobytes(),
                   lambda P: pair_distances(P[:3]).tobytes(),
                   lambda P: pair_distances(P[1:]).tobytes(),
                   lambda P: pair_distances(P[::-1]).tobytes())
        want = [q(other) for q in queries]
        want_in_order = polygon_distance(other[i], other[j])
        want_second = polygon_distance(second[i], second[j])

        whole = pair_distances(polys)
        assert not whole.flags.writeable
        with pytest.raises(ValueError):
            whole[0] = np.nan
        assert whole.tobytes() == pair_distances(hand).tobytes()
        assert polygon_distance(polys[i], polys[j]) == want_in_order
        assert [q(polys) for q in queries] == want
        assert polygon_distance(other[i], other[j]) == want_in_order
        assert polygon_distance(second[i], second[j]) == want_second
        assert polygon_distance(hand[i], hand[j]) == want_in_order
        assert pair_distances(hand).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("n", [2, 4])
    def test_list_directions_give_the_array_bytes(self, n):
        """`agent_polygon` takes directions as any array-like; a batch built
        from a list of pairs builds and reads its table as the array form."""
        D = planar_directions(8)
        G = np.arange(n)[:, None] * 3.0 * D[:, 0] + 1.0
        polys = {kind: agent_polygon(dirs, range(n), G)
                 for kind, dirs in (("array", D), ("list", D.tolist()))}
        got = {kind: (pair_distances(P).tobytes(), polygon_distance(P[0], P[-1]),
                      pair_distances(P) is P[0]._call[2])
               for kind, P in polys.items()}
        assert got["list"] == got["array"]
        assert got["list"][2]


class TestBatchContract:
    """`agent_polygon` on a sequence of agents returns its `_Batch`: a tuple
    of the polygons in row order whose one attribute is the call's read-only
    `(points, keep, table)` record, which each polygon holds with its row."""

    def test_sequence_returns_the_batch(self):
        D = planar_directions(8)
        polys = agent_polygon(D, [4, 2, 7], np.ones((3, 8)) + np.arange(3)[:, None])
        assert isinstance(polys, reachset._Batch) and isinstance(polys, tuple)
        assert [p.agent for p in polys] == [4, 2, 7]
        assert list(vars(polys)) == ["call"]
        assert not any(v.flags.writeable for v in polys.call)
        assert all(p._call is polys.call and p._row == r for r, p in enumerate(polys))
        assert not any(isinstance(v, reachset._Batch)
                       for p in polys for v in vars(p).values())
        for copy in (list(polys), tuple(polys), polys[:2], polys[1:], polys[::-1]):
            assert not isinstance(copy, reachset._Batch)
        one = agent_polygon(D, 3, np.ones(8))
        assert isinstance(one, AgentPolygon) and one._row == 0
        assert len(one._call[1]) == 1 and len(one._call[2]) == 0

    def test_caller_edit_of_directions_reaches_nothing(self):
        """An in-place edit of the caller's writable directions after the
        call leaves the polygons' directions, their table and every distance
        as a fresh computation gives them."""
        D = planar_directions(8)
        G = np.ones((3, 8)) + 2.0 * np.arange(3)[:, None] * D[:, 0]
        polys = agent_polygon(D, range(3), G)
        table = pair_distances(polys)
        dirs = polys[0].directions
        assert dirs is not D and not dirs.flags.writeable
        assert all(p.directions is dirs for p in polys)
        D[:] = np.roll(D, 1, axis=0)
        fresh = agent_polygon(planar_directions(8), range(3), G)
        assert dirs.tobytes() == fresh[0].directions.tobytes()
        assert pair_distances(polys) is table
        assert table.tobytes() == pair_distances(fresh).tobytes()
        assert pair_distances(list(polys)).tobytes() == table.tobytes()
        for i, j in ((0, 1), (1, 2), (2, 0)):
            assert polygon_distance(polys[i], polys[j]) == polygon_distance(
                fresh[i], fresh[j])

    def test_read_only_directions_are_shared(self):
        D = planar_directions(8)
        D.flags.writeable = False
        polys = agent_polygon(D, range(2), np.ones((2, 8)))
        assert all(p.directions is D for p in polys)
        assert agent_polygon(D, 0, np.ones(8)).directions is D


def test_attacked_step_frees_its_polygons_without_the_collector():
    """Nothing an `agent_polygon` call builds refers back to its batch, so
    an attacked step's polygons are freed by reference counting alone, with
    the cyclic garbage collector off."""
    n_agents, K, B, omega = _random_problem(np.random.default_rng(3))
    x = np.random.default_rng(4).normal(size=4 * n_agents)
    model = DmdModel(K=K, residual=0.0, rank_used=4 * n_agents)
    gc.disable()
    try:
        polys = agent_reach_polygon(K, B, x, omega, 16, 2)
        targets = attack.select_targets(polys)
        synthesize_fdi(targets, model, omega, x, B, polys)
        polys[0].vertices
        refs = [weakref.ref(p) for p in polys]
        del polys
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


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
        agents = np.arange(n_agents)
        m = int(rng.integers(3, 20))
        x = rng.normal(size=4 * n_agents)
        first = agent_reach_polygon(K, B, x, omega, m, 2)

        dirs, Bsel, lifts = attack._reach_operands(B.tobytes(), B.shape, n_agents, m)
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
        again = agent_reach_polygon(K, B, x, omega, m, 2)
        for p, q in zip(first, again):
            assert p.vertices.tobytes() == q.vertices.tobytes()


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
