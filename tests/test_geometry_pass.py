"""One geometry pass per attacked step, stated on public functions.

`agent_polygon` scores each pair of its polygons once, as it builds them:
`pair_distances` of its result returns that read-only table, and
`polygon_distance` of two of its polygons, in row order, reads their entry.
Every other query (reversed pairs, polygons of two calls, copies, slices)
gathers each polygon's extremes from its call's adjacent-face pass onto the
polygons' shared fan, with the bytes the table would give, and reads no
vertex ring either. An attacked run reads the table. What the reach pass
and the candidate scoring keep per run is out of every caller's reach, and a
run builds each active graph's neighbour index once.
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

from halfspace_oracle import random_directions
from segment_oracle import segment_distance

from ncsred import attack, harness
from ncsred.attack import AttackConfig, agent_reach_polygon, synthesize_fdi
from ncsred.dmd import DEFAULT_SVD_TOL, SnapshotBuffer, fit
from ncsred.errors import DegenerateGeometryError
from ncsred.graph import Graph
from ncsred.harness import run
from ncsred.reachset import (AgentPolygon, agent_polygon, circumscribe_ball,
                             input_image_distances, pair_distances, pair_indices,
                             planar_directions, polygon_distance)
from ncsred.scenario_io import build_scenario, load_scenario

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from scenarios import WORKLOADS, scenario_text  # noqa: E402

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _batch(rng, n_polygons, m):
    """One `agent_polygon` call on m uniform directions, its supports, and
    copies of its polygons from one single-agent call each. Polygon 0 is a
    point and polygon 1 a spread cloud, so vertex counts differ."""
    D = planar_directions(m)
    G = []
    for a in range(n_polygons):
        spread = {0: 0.0, 1: 1.0}.get(a, rng.choice([0.0, 1e-3, 1.0]))
        pts = rng.normal(scale=10.0, size=2) + rng.normal(
            scale=spread, size=(int(rng.integers(3, 8)), 2))
        G.append((pts @ D.T).max(axis=0))
    G = np.array(G)
    single = [agent_polygon(D, a, g) for a, g in enumerate(G)]
    return agent_polygon(D, np.arange(n_polygons), G), G, single


def _count_vertex_reads():
    """A patch of `AgentPolygon.vertices` and the list of polygons it read."""
    reads, prop = [], AgentPolygon.vertices
    return reads, mock.patch.object(
        AgentPolygon, "vertices", property(lambda p: reads.append(p) or prop.fget(p)))


class TestStoredExtremes:
    """The pair table that `agent_polygon` builds from the adjacent-face
    pass's extremes has the bytes of projecting each polygon's vertices,
    which is how polygons of different calls are scored."""

    @PROPERTY
    @given(seed=seeds, n=st.integers(min_value=2, max_value=10),
           m=st.integers(min_value=3, max_value=24))
    def test_match_recomputed_extremes(self, seed, n, m):
        """A list or tuple copy of the call's polygons, and the polygons of
        one call per agent, score the table's bytes, which is the segment
        oracle's distance between the vertex rings."""
        polys, _, single = _batch(np.random.default_rng(seed), n, m)
        assert len({len(p.vertices) for p in polys}) > 1
        whole = pair_distances(polys)
        for copy in (list(polys), tuple(polys), single):
            assert pair_distances(copy).tobytes() == whole.tobytes()
        ii, jj = pair_indices(n)
        want = [segment_distance(polys[i].vertices, polys[j].vertices)
                for i, j in zip(ii, jj)]
        assert np.allclose(whole, want, rtol=0.0, atol=1e-9)

    @PROPERTY
    @given(seed=seeds, n=st.integers(min_value=2, max_value=10),
           m=st.integers(min_value=3, max_value=24))
    def test_distances_match_hand_built_copies(self, seed, n, m):
        """Copies built by one call per agent: an in-order pair of the call
        reads its table, a pair of copies and a pair of one polygon and one
        copy are computed, all with the same bytes."""
        rng = np.random.default_rng(seed)
        polys, _, single = _batch(rng, n, m)
        i, j = sorted(map(int, rng.choice(n, size=2, replace=False)))
        want = polygon_distance(single[i], single[j])
        assert polygon_distance(polys[i], polys[j]) == want
        assert polygon_distance(polys[i], single[j]) == want
        assert polygon_distance(single[i], polys[j]) == want

    def test_scalar_agent_keeps_extremes(self):
        """A scalar agent gives one polygon, the bytes of its one-row call,
        and is scored as a two-row call scores it."""
        D = planar_directions(8)
        G = np.array([np.ones(8), D @ [5.0, 1.0]])
        p, q = (agent_polygon(D, a, g) for a, g in zip((3, 0), G))
        assert isinstance(p, AgentPolygon) and p.agent == 3
        assert p.vertices.tobytes() == agent_polygon(D, [3], G[:1])[0].vertices.tobytes()
        pair = pair_distances(agent_polygon(D, [3, 0], G))
        assert polygon_distance(p, q) == pair[0] > 0


def _fan_directions(rng, m, phase):
    """m unit directions, a uniform fan turned by `phase` with each direction
    jittered by up to a fifth of its spacing, so that they span the plane."""
    ang = phase + 2 * np.pi * (np.arange(m) + rng.uniform(-0.2, 0.2, m)) / m
    return np.column_stack([np.cos(ang), np.sin(ang)])


def _direction_set(rng):
    """A jittered fan (`_fan_directions`) or, as often, a `random_directions`
    set that spans the plane: a uniform fan of 3-24, or random normals, half
    of them with repeated, negated and nearly parallel normals."""
    if rng.random() < 0.5:
        return _fan_directions(rng, int(rng.integers(3, 25)), rng.uniform(0, 7))
    while True:
        D = random_directions(rng)
        try:
            agent_polygon(D, 0, np.ones(len(D)))
        except DegenerateGeometryError:
            continue
        return D


def _supports(rng, D):
    """Exact supports on D of a random point cloud: a point, a sliver or a
    spread polygon about 10 from the origin."""
    spread = rng.choice([0.0, 1e-3, 1.0])
    pts = rng.normal(scale=10.0, size=2) + rng.normal(
        scale=spread, size=(int(rng.integers(3, 8)), 2))
    return (pts @ D.T).max(axis=0)


class TestCrossCallExtremes:
    @PROPERTY
    @given(seed=seeds, n=st.integers(min_value=2, max_value=6),
           tilt=st.sampled_from([1e-14, 1e-11, 1e-8, 1e-4, 0.3]))
    def test_read_no_vertices_and_match_the_oracle(self, seed, n, tilt):
        """Polygons of calls on different direction sets (`_direction_set`),
        among them one set turned by `tilt` from another (down to nearly
        parallel normals, merged within ANGLE_TOL), a list copy and a reversal
        of one call, and reversed pairs are scored from the adjacent-face
        pass's extremes: no vertex ring is read, each table entry is the
        pair's own `polygon_distance` within 1e-12, and each distance is the
        segment oracle's within 1e-9 * scale."""
        rng = np.random.default_rng(seed)
        dirs = [_direction_set(rng) for _ in range(n)]
        dirs[-1] = dirs[0] @ np.array([[np.cos(tilt), np.sin(tilt)],
                                       [-np.sin(tilt), np.cos(tilt)]])
        polys = [agent_polygon(D, a, _supports(rng, D)) for a, D in enumerate(dirs)]
        batch = agent_polygon(dirs[0], range(n), [_supports(rng, dirs[0])
                                                  for _ in range(n)])
        ii, jj = pair_indices(n)
        queries = (polys, list(batch), batch[::-1])
        reads, vertices = _count_vertex_reads()
        with vertices:
            got = [(pair_distances(P), [polygon_distance(P[j], P[i])
                                        for i, j in zip(ii, jj)]) for P in queries]
            pairs = [[polygon_distance(P[i], P[j]) for i, j in zip(ii, jj)]
                     for P in queries]
        assert reads == []
        for P, (table, reversed_pairs), own in zip(queries, got, pairs):
            assert np.allclose(table, own, rtol=0.0, atol=1e-12)
            want = [segment_distance(P[i].vertices, P[j].vertices)
                    for i, j in zip(ii, jj)]
            scale = max(1.0, max(np.abs(p.vertices).max() for p in P))
            for dist in (table, reversed_pairs):
                assert np.allclose(dist, want, rtol=0.0, atol=1e-9 * scale)


def test_attacked_run_builds_no_vertex_ring():
    """An attacked h = 2 run takes every extreme from the adjacent-face pass:
    it reads no polygon's vertices. Its decisions are those of a run whose
    polygons each come from their own call, so that every query gathers
    extremes across calls, which reads no vertices either; the counter sees
    a direct read."""
    s = build_scenario(seed=4, horizon_steps=70,
                       attack=AttackConfig(start_step=51, dos_step=60, horizon=2))
    reads, vertices = _count_vertex_reads()
    with vertices:
        record = run(s, "fdi_dos")
    assert sum(d is not None for d in record.decisions) > 0
    assert record.dos_events
    assert reads == []

    def one_call_per_agent(D, agents, G):
        return [agent_polygon(D, a, g) for a, g in zip(agents, G)]

    with mock.patch.object(attack, "agent_polygon", side_effect=one_call_per_agent), \
            vertices:
        want = run(s, "fdi_dos")
        assert reads == []
        agent_polygon(planar_directions(8), 0, np.ones(8)).vertices
    assert len(reads) == 1
    assert len(record.decisions) == len(want.decisions)
    for got, ref in zip(record.decisions, want.decisions):
        assert (got is None) == (ref is None)
        if got is not None:
            assert got.targets == ref.targets
            assert got.u_a.tobytes() == ref.u_a.tobytes()
            for name in ("separation_before", "separation_after"):
                assert getattr(got, name) == getattr(ref, name)
    assert record.states.tobytes() == want.states.tobytes()


class TestPairTable:
    @pytest.mark.parametrize("workload, seed", [("stock_fdi_dos", 0),
                                                ("wide_h3_fdi_dos", 3)])
    def test_separation_before_is_the_table_entry(self, tmp_path, workload, seed):
        """Each attacked step scores its pairs once: the `agent_polygon`
        call builds the table that selection reads, and `separation_before`
        is the chosen pair's entry, equal to a fresh two-polygon computation.
        No vertex ring is built, and the candidates take one
        `input_image_distances` call."""
        path = tmp_path / f"{workload}-{seed}.scn"
        path.write_text(scenario_text(WORKLOADS[workload], seed))
        steps = []

        def keep(targets, K, omega, x, B, polygons):
            steps.append((targets, polygons))
            return synthesize_fdi(targets, K, omega, x, B, polygons)

        reads, vertices = _count_vertex_reads()
        with mock.patch.object(harness, "synthesize_fdi", side_effect=keep), \
                mock.patch.object(attack, "input_image_distances",
                                  wraps=attack.input_image_distances) as scores, \
                vertices:
            record = run(load_scenario(str(path)), WORKLOADS[workload].mode)
            decisions = [d for d in record.decisions if d is not None]
            assert len(decisions) == len(steps) == scores.call_count == 99
            for d, (targets, polys) in zip(decisions, steps):
                table = pair_distances(polys)
                assert pair_distances(polys) is table
                ii, jj = pair_indices(len(polys))
                k = int(np.flatnonzero((ii == targets[0]) & (jj == targets[1]))[0])
                assert d.separation_before == table[k]
            assert reads == []
        for d, (targets, polys) in zip(decisions, steps):
            fresh = [agent_polygon(p.directions, p.agent, p.supports)
                     for p in (polys[i] for i in targets)]
            assert d.separation_before == polygon_distance(*fresh)

    @PROPERTY
    @given(seed=seeds, n=st.integers(min_value=4, max_value=10),
           m=st.integers(min_value=3, max_value=24))
    def test_other_queries_read_no_table(self, seed, n, m):
        """Reversed pairs, polygons from two calls, a copy to a list or a
        tuple, slices and a reversal are computed, with the bytes of the same
        query on another call on the same supports; a pair of polygons from
        calls on different supports is the segment oracle's distance. The
        call's own table is read-only, returned as it is, and in-order pairs
        read it."""
        rng = np.random.default_rng(seed)
        polys, G, _ = _batch(rng, n, m)
        other = agent_polygon(polys[0].directions, np.arange(n), G)
        second = _batch(rng, n, m)[0]  # other polygons on equal directions
        i, j = sorted(map(int, rng.choice(n, size=2, replace=False)))
        queries = (lambda P: polygon_distance(P[j], P[i]),
                   lambda P: polygon_distance(P[i], (other if P is polys else polys)[j]),
                   lambda P: polygon_distance(P[i], second[j]),
                   lambda P: pair_distances(list(P)).tobytes(),
                   lambda P: pair_distances(tuple(P)).tobytes(),
                   lambda P: pair_distances(P[:3]).tobytes(),
                   lambda P: pair_distances(P[1:]).tobytes(),
                   lambda P: pair_distances(P[::-1]).tobytes())
        want = [q(other) for q in queries]

        whole = pair_distances(polys)
        assert pair_distances(polys) is whole and not whole.flags.writeable
        with pytest.raises(ValueError):
            whole[0] = np.nan
        assert [q(polys) for q in queries] == want
        assert polygon_distance(polys[i], polys[j]) == polygon_distance(other[i], other[j])
        assert polygon_distance(polys[i], second[j]) == pytest.approx(
            segment_distance(polys[i].vertices, second[j].vertices), abs=1e-9)

    @pytest.mark.parametrize("n", [2, 4])
    def test_list_directions_give_the_array_bytes(self, n):
        """`agent_polygon` takes directions as any array-like; a call given
        a list of pairs builds its table as the array form, and returns it
        as it is."""
        D = planar_directions(8)
        G = np.arange(n)[:, None] * 3.0 * D[:, 0] + 1.0
        polys = {kind: agent_polygon(dirs, range(n), G)
                 for kind, dirs in (("array", D), ("list", D.tolist()))}
        got = {kind: (pair_distances(P).tobytes(), polygon_distance(P[0], P[-1]),
                      pair_distances(P) is pair_distances(P))
               for kind, P in polys.items()}
        assert got["list"] == got["array"]
        assert got["list"][2]


class TestBatchContract:
    """`agent_polygon` on a sequence of agents returns a tuple of their
    polygons in row order, and on one agent that agent's polygon."""

    def test_sequence_returns_the_batch(self):
        """The call's result scores its pairs from its read-only table; a
        list, slice or reversal of its polygons is scored afresh, with the
        bytes of a call on those rows."""
        D = planar_directions(8)
        G = np.ones((3, 8)) + np.arange(3)[:, None] * D[:, 0]
        polys = agent_polygon(D, [4, 2, 7], G)
        assert isinstance(polys, tuple) and len(polys) == 3
        assert all(type(p) is AgentPolygon for p in polys)
        assert [p.agent for p in polys] == [4, 2, 7]
        table = pair_distances(polys)
        assert pair_distances(polys) is table and not table.flags.writeable
        for rows in ([0, 1, 2], [0, 1], [1, 2], [2, 1, 0]):
            got = pair_distances([polys[r] for r in rows])
            assert got is not table and got.flags.writeable
            assert got.tobytes() == pair_distances(agent_polygon(D, rows, G[rows])).tobytes()
        one = agent_polygon(D, 3, np.ones(8))
        assert type(one) is AgentPolygon and one.agent == 3
        assert len(pair_distances(agent_polygon(D, [3], np.ones((1, 8))))) == 0

    @pytest.mark.parametrize("empty", [[], ()], ids=["list", "tuple"])
    def test_empty_sequence_has_an_empty_table(self, empty):
        """An empty list or tuple has no pairs, as a call on no agents has
        none: every empty sequence returns one read-only empty float table."""
        table = pair_distances(empty)
        assert table is pair_distances([]) is pair_distances(())
        assert table.dtype == np.float64 and table.shape == (0,)
        assert not table.flags.writeable
        call = pair_distances(agent_polygon(planar_directions(8), [], np.zeros((0, 8))))
        assert call.dtype == np.float64 and call.shape == (0,)
        assert not call.flags.writeable

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


def _random_problem(rng):
    n_agents = int(rng.integers(2, 7))
    n = 4 * n_agents
    K = rng.normal(size=(n, n))
    K *= rng.uniform(0.1, 3.0) / np.linalg.norm(K, 2)
    omega = circumscribe_ball(rng.uniform(0.01, 1.0), int(rng.integers(3, 10)),
                              seed=int(rng.integers(1000)))
    return n_agents, K, rng.normal(size=(4, 2)), omega


def test_attacked_step_frees_its_polygons_without_the_collector():
    """Nothing an `agent_polygon` call builds refers back to its result, so
    an attacked step's polygons are freed by reference counting alone, with
    the cyclic garbage collector off."""
    n_agents, K, B, omega = _random_problem(np.random.default_rng(3))
    x = np.random.default_rng(4).normal(size=4 * n_agents)
    gc.disable()
    try:
        polys = agent_reach_polygon(K, B, x, omega, 16, 2)
        targets = attack.select_targets(polys)
        synthesize_fdi(targets, K, omega, x, B, polys)
        polys[0].vertices
        refs = [weakref.ref(p) for p in polys]
        del polys
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


class TestRunConstantTables:
    @pytest.mark.parametrize("seed", range(5))
    def test_read_only_and_equal_to_per_step_build(self, seed):
        """What the reach pass, the candidate scoring and
        `input_image_distances` keep per run is out of every caller's reach.
        The polygons share one read-only direction array with the bytes of
        `planar_directions(m)`, which still hands out fresh writable arrays.
        After the caller writes over everything the first calls returned,
        the same calls give the same bytes. The values themselves are the
        per-step formulas' (`reach_oracle` in `test_run_constants.py`,
        `synth_oracle` and the segment oracle in `test_input_difference.py`)."""
        rng = np.random.default_rng(seed)
        n_agents, K, B, omega = _random_problem(rng)
        x = rng.normal(size=4 * n_agents)
        m = int(rng.integers(3, 20))
        shifts = rng.normal(scale=0.5, size=(7, 2))

        def calls():
            polys = agent_reach_polygon(K, B, x, omega, m, 2)
            d = synthesize_fdi((0, n_agents - 1), K, omega, x, B, polys)
            return polys, d, input_image_distances(omega, B[::2], m, shifts.copy())

        def record(polys, d, dist):
            return ([(p.supports.tobytes(), p.vertices.tobytes()) for p in polys],
                    pair_distances(polys).tobytes(), d.u_a.tobytes(),
                    d.separation_before, d.separation_after, dist.tobytes())

        polys, d, dist = calls()
        dirs = polys[0].directions
        assert all(p.directions is dirs for p in polys) and not dirs.flags.writeable
        assert dirs.tobytes() == planar_directions(m).tobytes()
        fresh = planar_directions(m)
        assert fresh.flags.writeable and fresh is not dirs
        want = record(polys, d, dist)
        for v in (fresh, d.u_a, dist, *(a for p in polys for a in (p.supports, p.vertices))):
            v[...] = np.nan
        assert record(*calls()) == want


class TestNeighborIndex:
    @pytest.mark.parametrize("mode, graphs", [("nominal", 1), ("fdi_dos", 2)])
    def test_run_indexes_each_graph_once(self, mode, graphs):
        s = build_scenario(seed=2, horizon_steps=40,
                           attack=AttackConfig(start_step=20, dos_step=25,
                                               snapshot_width=10,
                                               dos_edge=(0, 1)))
        with mock.patch.object(Graph, "neighbors", autospec=True,
                               side_effect=Graph.neighbors) as nbrs:
            if mode == "nominal":
                record = run(s, mode)
            else:
                with pytest.warns(UserWarning, match="snapshot_width"):
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
