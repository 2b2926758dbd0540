from unittest import mock

import numpy as np
import pytest

from ncsred import attack
from ncsred.attack import (AttackConfig, agent_reach_polygon, plan_dos,
                           recovered_graph, select_targets, synthesize_fdi)
from ncsred.errors import InvalidInputError
from ncsred.graph import Graph, laplacian
from ncsred.harness import OMEGA_SEED_OFFSET
from ncsred.ncs import AgentModel
from ncsred.reachset import (agent_polygon, circumscribe_ball, embed_input_map,
                             polygon_distance)
from segment_oracle import segment_distance

FIG_EDGES = {(0, 1), (0, 2), (1, 3), (2, 4)}


def square_at(c, half=0.5):
    dirs = np.array([[1.0, 0], [0, 1.0], [-1.0, 0], [0, -1.0]])
    return agent_polygon(dirs, 0, np.array([c[0] + half, c[1] + half,
                                            -c[0] + half, -c[1] + half]))


def current_polygons(K, B, x, omega, n_directions=16):
    """Every agent's 1-step reach polygon from x, as the selection stage
    hands them to `synthesize_fdi`."""
    return agent_reach_polygon(K, B, x, omega, n_directions)


class TestSelectTargets:
    def test_two_agents(self):
        assert select_targets([square_at((0, 0)), square_at((5, 0))]) == (0, 1)

    def test_three_collinear(self):
        polys = [square_at((0, 0)), square_at((3, 0)), square_at((10, 0))]
        assert select_targets(polys) == (0, 2)

    def test_tie_break_lexicographic(self):
        polys = [square_at((0, 0)), square_at((4, 0)), square_at((-4, 0))]
        # pairs (0,1), (0,2) and (1,2) give distances 3, 3, 7
        assert select_targets(polys) == (1, 2)
        # duplicate far polygons: (0,1) ties (0,2) at the max; lexicographic
        polys = [square_at((0, 0)), square_at((4, 0)), square_at((4, 0))]
        assert select_targets(polys) == (0, 1)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            polys = [square_at(rng.normal(scale=6, size=2)) for _ in range(5)]
            got = select_targets(polys)
            best, best_d = None, -1.0
            for i in range(5):
                for j in range(i + 1, 5):
                    d = polygon_distance(polys[i], polys[j])
                    if d > best_d:
                        best, best_d = (i, j), d
            assert got == best

    def test_exact_ties_take_first_pair(self):
        # every pair overlaps: all score 0
        assert select_targets([square_at((0, 0))] * 4) == (0, 1)
        # (0,2), (0,3), (1,2) and (1,3) all score 5; (0,1) and (2,3) score 0
        polys = [square_at((0, 0)), square_at((0, 0)),
                 square_at((6, 0)), square_at((6, 0))]
        assert select_targets(polys) == (0, 2)

    def test_needs_two(self):
        with pytest.raises(InvalidInputError):
            select_targets([square_at((0, 0))])


class TestSynthesizeFdi:
    def test_zero_input_map_ties_to_first_vertex_pair(self):
        rng = np.random.default_rng(1)
        K = 0.9 * np.linalg.qr(rng.normal(size=(8, 8)))[0]
        omega = circumscribe_ball(0.05, 8, seed=4)
        x = rng.normal(size=8)
        B0 = np.zeros((4, 2))
        d = synthesize_fdi((0, 1), K, omega, x, B0,
                           current_polygons(K, B0, x, omega, 8))
        assert np.allclose(d.u_a[0:2], omega.vertices[0], atol=0)
        assert np.allclose(d.u_a[2:4], omega.vertices[0], atol=0)
        # with no injection channel the polygons are propagated points
        p0, p1 = agent_reach_polygon(K, B0, K @ x, omega, 8)
        assert d.separation_after == pytest.approx(polygon_distance(p0, p1), abs=1e-12)

    def test_decoupled_integrators_push_apart(self):
        # two decoupled single integrators along x; agents already separated
        K = np.eye(8)
        omega = circumscribe_ball(0.1, 4, seed=None)  # axis-aligned square
        B = AgentModel(0.2).B
        x = np.zeros(8)
        x[0], x[4] = -1.0, 1.0  # agent 0 left, agent 1 right
        d = synthesize_fdi((0, 1), K, omega, x, B,
                           current_polygons(K, B, x, omega, 8))
        u0, u1 = d.u_a[0:2], d.u_a[2:4]
        # hand enumeration: maximal separation pushes agent 0 further left,
        # agent 1 further right, at the square's x-extremes
        assert u0[0] == pytest.approx(-0.1, abs=1e-12)
        assert u1[0] == pytest.approx(0.1, abs=1e-12)
        assert d.separation_after >= d.separation_before - 1e-9

    def test_budget_and_membership(self):
        rng = np.random.default_rng(5)
        K = 0.95 * np.linalg.qr(rng.normal(size=(20, 20)))[0]
        omega = circumscribe_ball(0.05, 8, seed=9)
        B = AgentModel(0.2).B
        x = rng.normal(scale=3, size=20)
        d = synthesize_fdi((1, 4), K, omega, x, B,
                           current_polygons(K, B, x, omega))
        for a in range(5):
            ua = d.u_a[2 * a:2 * a + 2]
            if a in (1, 4):
                assert omega.contains(ua, tol=1e-12)
                assert np.linalg.norm(ua) <= 0.05 / np.cos(np.pi / 8) * 1.01
            else:
                assert np.array_equal(ua, np.zeros(2))

    def test_never_worse_than_zero_injection(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            K = rng.normal(size=(8, 8))
            K *= 0.9 / np.abs(np.linalg.eigvals(K)).max()
            omega = circumscribe_ball(0.2, 6, seed=trial)
            B = AgentModel(0.2).B
            x = rng.normal(size=8)
            d = synthesize_fdi((0, 1), K, omega, x, B,
                               current_polygons(K, B, x, omega, 8))
            p0, p1 = agent_reach_polygon(K, B, K @ x, omega, 8)
            zero_score = polygon_distance(p0, p1)
            assert d.separation_after >= zero_score - 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        K = 0.9 * np.linalg.qr(rng.normal(size=(8, 8)))[0]
        omega = circumscribe_ball(0.05, 8, seed=2)
        B = AgentModel(0.2).B
        x = rng.normal(size=8)
        polys = current_polygons(K, B, x, omega)
        a = synthesize_fdi((0, 1), K, omega, x, B, polys)
        b = synthesize_fdi((0, 1), K, omega, x, B, polys)
        assert np.array_equal(a.u_a, b.u_a)
        assert a.separation_after == b.separation_after

    def test_overlapping_targets_score_zero_and_take_first_vertex_pair(self):
        # decoupled agents at one position: for any (ui, uj) both translated
        # polygons hold c + B(ui + uj), so every candidate scores 0
        K = np.eye(8)
        omega = circumscribe_ball(0.1, 8, seed=3)
        B = AgentModel(0.2).B
        x = np.array([1.0, 0.5, -2.0, 0.3, 1.0, -0.4, -2.0, 0.1])
        d = synthesize_fdi((0, 1), K, omega, x, B,
                           current_polygons(K, B, x, omega, 8))
        assert d.separation_before == 0.0
        assert d.separation_after == 0.0
        assert np.array_equal(d.u_a[0:2], omega.vertices[0])
        assert np.array_equal(d.u_a[2:4], omega.vertices[0])

    def test_matches_brute_force_over_translated_polygons(self):
        rng = np.random.default_rng(29)
        B = AgentModel(0.2).B
        for trial in range(25):
            n_agents = int(rng.integers(2, 6))
            n = 4 * n_agents
            K = rng.normal(size=(n, n))
            K *= rng.uniform(0.5, 1.0) / np.abs(np.linalg.eigvals(K)).max()
            omega = circumscribe_ball(rng.uniform(0.02, 0.5), int(rng.integers(3, 9)),
                                      seed=trial)
            x = rng.normal(scale=3.0, size=n)
            i, j = map(int, rng.choice(n_agents, size=2, replace=False))
            got = synthesize_fdi((i, j), K, omega, x, B,
                                 current_polygons(K, B, x, omega))

            next_polys = current_polygons(K, B, K @ x, omega)
            Pi0, Pj0 = next_polys[i], next_polys[j]
            KBi = K @ embed_input_map(B, i, n_agents)
            KBj = K @ embed_input_map(B, j, n_agents)
            candidates = [(ui, uj) for ui in omega.vertices for uj in omega.vertices]
            candidates.append((np.zeros(2), np.zeros(2)))
            best, best_score = None, -np.inf
            for ui, uj in candidates:
                delta = KBi @ ui + KBj @ uj
                Pi = translated(Pi0, delta[[4 * i, 4 * i + 2]])
                Pj = translated(Pj0, delta[[4 * j, 4 * j + 2]])
                score = segment_distance(Pi.vertices, Pj.vertices)
                if score > best_score:
                    best, best_score = (ui, uj), score
            want = np.zeros(2 * n_agents)
            want[2 * i:2 * i + 2], want[2 * j:2 * j + 2] = best
            assert got.u_a.tobytes() == want.tobytes()
            assert got.separation_after == pytest.approx(best_score, abs=1e-9)

    def test_rejects_equal_targets(self):
        omega = circumscribe_ball(0.05, 4)
        with pytest.raises(InvalidInputError):
            synthesize_fdi((1, 1), np.eye(8), omega, np.zeros(8),
                           AgentModel(0.2).B, [])


def translated(P, d):
    """P moved by d: the polygon of P's supports shifted by <direction, d>."""
    return agent_polygon(P.directions, P.agent, P.supports + P.directions @ d)


class TestRecoveredGraph:
    def test_threshold_relative_to_max(self):
        L = np.array([[2.0, -1.0, -1.0, 0.0],
                      [-1.0, 1.2, -0.2, 0.0],
                      [-1.0, -0.2, 1.4, -0.2],
                      [0.0, 0.0, -0.2, 0.2]])
        g = recovered_graph(L)
        assert g.edges == frozenset({(0, 1), (0, 2)})

    def test_zero_matrix_has_no_edges(self):
        assert recovered_graph(np.zeros((4, 4))).edges == frozenset()


class TestPlanDos:
    def test_exact_formation_laplacian(self):
        L = laplacian(Graph(5, frozenset(FIG_EDGES)))
        plan = plan_dos(L)
        assert plan.node == 4
        assert plan.edge == (2, 4)

    def test_star_graph_targets_a_leaf(self):
        g = Graph(5, frozenset({(0, 1), (0, 2), (0, 3), (0, 4)}))
        plan = plan_dos(laplacian(g))
        assert plan.node in {1, 2, 3, 4}
        assert 0 in plan.edge and plan.node in plan.edge

    def test_path_three_skips_middle(self):
        g = Graph(3, frozenset({(0, 1), (1, 2)}))
        # Fiedler vector of the 3-path is (1, 0, -1)/sqrt(2): ends dominate
        plan = plan_dos(laplacian(g))
        assert plan.node == 2  # tie between the two ends goes to the larger index
        assert plan.edge == (1, 2)

    def test_disconnected_recovery_reports_noop(self):
        g = Graph(4, frozenset({(0, 1), (2, 3)}))
        assert plan_dos(laplacian(g)) is None

    def test_near_ties_match_the_ascending_scan(self):
        def scan_node(v):
            # the ascending scan that the vectorised pick replaced: it keeps
            # the last node within the tolerance of the running maximum
            best_node, best_mag = None, -1.0
            for node in range(1, len(v)):
                mag = abs(v[node])
                if best_node is None or mag >= best_mag - attack.FIEDLER_TIE_TOL:
                    if mag > best_mag:
                        best_mag = mag
                    best_node = node
            return best_node

        real = attack.algebraic_connectivity
        rng = np.random.default_rng(17)
        offsets = np.array([0.0, 0.5e-9, -0.5e-9, 1e-9, -1e-9, 2e-9, -2e-9])
        for _ in range(400):
            n = int(rng.integers(3, 10))
            v = rng.normal(size=n)
            top = np.abs(v).max() + rng.uniform(0.0, 1.0)
            chain = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
            v[chain] = rng.choice([-1.0, 1.0], size=len(chain)) * (
                top + rng.choice(offsets, size=len(chain)))
            complete = Graph(n, frozenset((i, j) for i in range(n)
                                          for j in range(i + 1, n)))
            # the first call answers with v; the edge scan's calls are real
            answers = iter([(1.0, v)])
            with mock.patch.object(attack, "algebraic_connectivity",
                                   lambda g: next(answers, None) or real(g)):
                plan = plan_dos(laplacian(complete))
            assert plan.node == scan_node(v), v


class TestAttackConfig:
    def test_defaults_match_experiment(self):
        cfg = AttackConfig()
        assert cfg.rho == 0.05
        assert cfg.s == 8
        assert cfg.snapshot_width == 50
        assert cfg.start_step == 51
        assert cfg.dos_step == 100

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            AttackConfig(rho=-0.1)
        with pytest.raises(InvalidInputError):
            AttackConfig(s=2)
        with pytest.raises(InvalidInputError):
            AttackConfig(refit_every=0)
        with pytest.raises(InvalidInputError):
            AttackConfig(n_directions=2)
        # at 0.6 the Omega draw of scenario seed 2 puts the tangent angles
        # out of order, so the polygon crosses itself; a negative jitter is
        # an empty draw interval
        for jitter in (0.6, 0.5, -0.01):
            with pytest.raises(InvalidInputError, match="jitter"):
                AttackConfig(vertex_jitter=jitter)
            with pytest.raises(InvalidInputError, match="jitter"):
                circumscribe_ball(0.05, 8, seed=2 + OMEGA_SEED_OFFSET, jitter=jitter)
        assert AttackConfig(vertex_jitter=0.0).vertex_jitter == 0.0

    def test_zero_budget_allowed_as_guard(self):
        assert AttackConfig(rho=0.0).rho == 0.0


class TestOnExperimentPipeline:
    def test_sampled_step_selection_matches_pair_oracle(self):
        from ncsred.attack import agent_reach_polygon as arp
        from ncsred.dmd import SnapshotBuffer, fit
        from ncsred.harness import OMEGA_SEED_OFFSET, run
        from ncsred.scenario_io import build_scenario

        s = build_scenario(seed=4, horizon_steps=120)
        record = run(s, "nominal")
        buf = SnapshotBuffer(s.attack.snapshot_width, s.dim)
        for k in range(101):
            buf.push(record.states[k])
        model = fit(buf)
        omega = circumscribe_ball(s.attack.rho, s.attack.s,
                                  seed=s.rng_seed + OMEGA_SEED_OFFSET,
                                  jitter=s.attack.vertex_jitter)
        polys = arp(model.K, s.agent_model.B, record.states[100], omega)
        got = select_targets(polys)
        best, best_d = None, -1.0
        for i in range(5):
            for j in range(i + 1, 5):
                d = polygon_distance(polys[i], polys[j])
                if d > best_d:
                    best, best_d = (i, j), d
        assert got == best
        # the far outriders sit 16 m apart in the desired formation
        assert got == (3, 4)
