import numpy as np
import pytest

from ncsred.errors import DegenerateGeometryError, InvalidInputError
from ncsred.reachset import (agent_polygon, batch_reach_supports,
                             circumscribe_ball, embed_input_map,
                             planar_directions, polygon_distance, reach_support)


def square_polygon(center, half):
    cx, cy = center
    dirs = np.array([[1.0, 0], [0, 1.0], [-1.0, 0], [0, -1.0]])
    sup = np.array([cx + half, cy + half, -cx + half, -cy + half])
    return agent_polygon(dirs, 0, sup)


def cloud_supports(dirs, center, rng):
    """Supports of a random point cloud about center: a convex set's, so
    every face is tight."""
    pts = center + rng.normal(size=(int(rng.integers(3, 9)), 2))
    return (pts @ dirs.T).max(axis=0)


def sample_omega(omega, n, rng):
    """Admissible inputs: polytope vertices plus interior convex combinations."""
    s = omega.vertices.shape[0]
    w = rng.exponential(size=(n, s))
    w /= w.sum(axis=1, keepdims=True)
    pts = w @ omega.vertices
    pts[: min(s, n)] = omega.vertices[: min(s, n)]
    return pts


class TestCircumscribeBall:
    def test_axis_aligned_square(self):
        omega = circumscribe_ball(1.0, 4, seed=None)
        assert np.allclose(np.sort(omega.offsets), np.ones(4))
        want_normals = {(1, 0), (0, 1), (-1, 0), (0, -1)}
        got = {tuple(np.round(nv, 12)) for nv in omega.normals}
        assert got == want_normals
        got_verts = {tuple(np.round(v, 12)) for v in omega.vertices}
        assert got_verts == {(1, 1), (-1, 1), (1, -1), (-1, -1)}
        # disc touches each face at its midpoint
        for nv in omega.normals:
            assert omega.contains(nv * 1.0, tol=1e-12)

    def test_contains_disc_sampled(self):
        omega = circumscribe_ball(0.05, 8, seed=123)
        rng = np.random.default_rng(0)
        ang = rng.uniform(0, 2 * np.pi, 10_000)
        r = 0.05 * np.sqrt(rng.uniform(0, 1, 10_000))
        pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        assert np.all(pts @ omega.normals.T <= omega.offsets[None, :] + 1e-12)

    def test_edge_distance_at_least_rho(self):
        for seed in [None, 1, 2, 3]:
            omega = circumscribe_ball(0.3, 7, seed=seed)
            v = omega.vertices
            for i in range(len(v)):
                a, b = v[i], v[(i + 1) % len(v)]
                d = b - a
                t = np.clip(-(a @ d) / (d @ d), 0, 1)
                assert np.linalg.norm(a + t * d) >= 0.3 - 1e-9

    def test_faces_tight_on_own_vertices(self):
        omega = circumscribe_ball(0.5, 6, seed=11)
        vals = omega.vertices @ omega.normals.T  # (vertex, face)
        s = len(omega.vertices)
        assert np.all(vals <= omega.offsets[None, :] + 1e-12)
        for i in range(s):
            # vertex i sits on faces i and i+1 by construction
            assert vals[i, i] == pytest.approx(omega.offsets[i], abs=1e-12)
            j = (i + 1) % s
            assert vals[i, j] == pytest.approx(omega.offsets[j], abs=1e-12)

    @pytest.mark.parametrize("rho, s, seed", [(0.05, 8, None), (0.05, 8, 7), (3, 3, 1),
                                              (1e155, 17, 2), (0.3, 128, 5)])
    def test_vertices_are_each_face_pairs_solve(self, rho, s, seed):
        """The one batched solve gives the bytes of solving each adjacent face
        pair's 2 x 2 tangent system on its own."""
        omega = circumscribe_ball(rho, s, seed=seed)
        n = omega.normals
        want = [np.linalg.solve(np.array([n[i], n[(i + 1) % s]]), np.array([rho, rho]))
                for i in range(s)]
        assert omega.vertices.tobytes() == np.array(want).tobytes()

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            circumscribe_ball(1.0, 2)
        with pytest.raises(InvalidInputError):
            circumscribe_ball(0.0, 4)


class TestReachSupport:
    def test_no_injection_channel_propagates_point(self):
        rng = np.random.default_rng(1)
        K = 0.9 * np.linalg.qr(rng.normal(size=(4, 4)))[0]
        x0 = rng.normal(size=4)
        omega = circumscribe_ball(0.1, 4)
        d = np.array([1.0, 0, 0, 0])
        gamma, xs = reach_support(K, 3, np.zeros((4, 2)), x0, omega, d)
        want = K @ K @ K @ x0
        assert gamma == pytest.approx(want[0], abs=1e-12)
        assert np.allclose(xs, want, atol=1e-12)

    def test_one_step_minkowski_square(self):
        # identity dynamics, injection on agent 0 of a 2-agent stack
        n_agents = 2
        K = np.eye(8)
        B = np.array([[0.5, 0], [1.0, 0], [0, 0.5], [0, 1.0]])
        Bsel = embed_input_map(B, 0, n_agents)
        omega = circumscribe_ball(0.2, 4)  # axis-aligned square, radius 0.2
        x0 = np.arange(8.0)
        d = np.zeros(4 * n_agents)
        d[0] = 1.0  # agent 0's x position
        gamma, xs = reach_support(K, 1, Bsel, x0, omega, d)
        # position support = x position + rho * B position weight, corner input
        assert gamma == pytest.approx(x0[0] + 0.2 * 0.5, abs=1e-12)

    def test_monte_carlo_containment(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            dim = 8
            K = rng.normal(size=(dim, dim))
            K *= 0.95 / np.abs(np.linalg.eigvals(K)).max()
            B = rng.normal(size=(dim, 2))
            omega = circumscribe_ball(rng.uniform(0.05, 0.5), int(rng.integers(3, 9)),
                                      seed=int(rng.integers(10_000)))
            x0 = rng.normal(size=dim)
            h = int(rng.integers(1, 6))
            dirs = planar_directions(8)
            lifts = np.zeros((8, dim))
            lifts[:, 0] = dirs[:, 0]
            lifts[:, 2] = dirs[:, 1]
            gammas = np.empty(8)
            points = np.empty((8, dim))
            for i in range(8):
                gammas[i], points[i] = reach_support(K, h, B, x0, omega, lifts[i])
            # support points attain their support values
            att = np.einsum("ij,ij->i", lifts, points)
            assert np.abs(att - gammas).max() <= 1e-9
            # admissible Monte-Carlo endpoints never break a half-space
            n_mc = 2000
            X = np.tile(x0, (n_mc, 1))
            for _ in range(h):
                U = sample_omega(omega, n_mc, rng)
                X = X @ K.T + U @ B.T
            vals = X @ lifts.T
            assert np.all(vals <= gammas[None, :] + 1e-9)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        K = 0.9 * np.linalg.qr(rng.normal(size=(8, 8)))[0]
        B = rng.normal(size=(8, 2))
        omega = circumscribe_ball(0.3, 6, seed=5)
        x0 = rng.normal(size=8)
        dirs = planar_directions(6)
        lifts = np.zeros((6, 8))
        lifts[:, 4] = dirs[:, 0]
        lifts[:, 6] = dirs[:, 1]
        g_b, p_b = batch_reach_supports(K, 2, B, x0, omega, lifts)
        for i in range(6):
            g, p = reach_support(K, 2, B, x0, omega, lifts[i])
            assert g == pytest.approx(g_b[i], abs=1e-12)
            assert np.allclose(p, p_b[i], atol=1e-12)

    def test_budget_monotonicity(self):
        rng = np.random.default_rng(11)
        K = rng.normal(size=(4, 4))
        K *= 0.9 / np.abs(np.linalg.eigvals(K)).max()
        B = rng.normal(size=(4, 2))
        omega = circumscribe_ball(0.1, 5, seed=2)
        x0 = rng.normal(size=4)
        d = np.array([0.6, 0, 0.8, 0])
        base, _ = reach_support(K, 3, B, x0, omega, d)
        for alpha in [1.0, 1.5, 2.0, 5.0]:
            scaled = circumscribe_ball(0.1 * alpha, 5, seed=2)
            g, _ = reach_support(K, 3, B, x0, scaled, d)
            assert g >= base - 1e-12

    def test_rejects_non_unit_direction(self):
        omega = circumscribe_ball(0.1, 4)
        with pytest.raises(InvalidInputError):
            reach_support(np.eye(2), 1, np.zeros((2, 1)), np.zeros(2), omega,
                          np.array([2.0, 0.0]))

    def test_batch_checks_agent_axis_inputs(self):
        omega = circumscribe_ball(0.1, 4)
        K, B, x0 = np.eye(8), np.zeros((2, 8, 2)), np.zeros(8)
        lifts = np.zeros((2, 3, 8))
        lifts[:, :, 0] = 1.0
        batch_reach_supports(K, 1, B, x0, omega, lifts)
        cases = [
            (K, 1, B, x0, lifts[..., :6], "final_dir length"),
            (K, 1, B[:, :6], x0, lifts, "Bsel rows"),
            (np.eye(6), 2, B, x0, lifts, "shape mismatch"),
            (K, 0, B, x0, lifts, "horizon"),
        ]
        for K, h, Bsel, x, F, match in cases:
            with pytest.raises(InvalidInputError, match=match):
                batch_reach_supports(K, h, Bsel, x, omega, F)


class TestAgentPolygon:
    def test_disc_supports_give_octagon(self):
        dirs = planar_directions(8)
        poly = agent_polygon(dirs, 0, np.ones(8))
        # circumscribing octagon of the unit disc: vertex radius 1/cos(pi/8)
        radii = np.linalg.norm(poly.vertices, axis=1)
        assert len(poly.vertices) == 8
        assert np.allclose(radii, 1.0 / np.cos(np.pi / 8), atol=1e-9)

    def test_point_collapse(self):
        dirs = planar_directions(8)
        p = np.array([0.3, -0.7])
        poly = agent_polygon(dirs, 0, dirs @ p)
        assert np.linalg.norm(poly.vertices - p[None, :], axis=1).max() < 1e-9

    def test_ccw_and_convex(self):
        rng = np.random.default_rng(3)
        dirs = planar_directions(12)
        poly = agent_polygon(dirs, 0, cloud_supports(dirs, rng.normal(size=2), rng))
        v = poly.vertices
        n = len(v)
        for i in range(n):
            a, b, c = v[i], v[(i + 1) % n], v[(i + 2) % n]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            assert cross >= -1e-9

    def test_unbounded_directions_rejected(self):
        dirs = np.array([[1.0, 0], [0.9, 0.1], [0.9, -0.1]])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        with pytest.raises(DegenerateGeometryError):
            agent_polygon(dirs, 0, np.ones(3))

    def test_monte_carlo_endpoints_inside(self):
        rng = np.random.default_rng(13)
        n_agents = 2
        dim = 8
        K = rng.normal(size=(dim, dim))
        K *= 0.9 / np.abs(np.linalg.eigvals(K)).max()
        B = rng.normal(size=(4, 2))
        Bsel = embed_input_map(B, 1, n_agents)
        omega = circumscribe_ball(0.2, 8, seed=3)
        x0 = rng.normal(size=dim)
        dirs = planar_directions(16)
        lifts = np.zeros((16, dim))
        lifts[:, 4], lifts[:, 6] = dirs[:, 0], dirs[:, 1]  # agent 1's position
        sup = np.empty(16)
        for i, d in enumerate(lifts):
            sup[i], _ = reach_support(K, 1, Bsel, x0, omega, d)
        poly = agent_polygon(dirs, 1, sup)
        U = sample_omega(omega, 5000, rng)
        ends = x0[None, :] @ K.T + U @ Bsel.T
        pos = ends[:, [4, 6]]
        assert np.all(pos @ dirs.T <= sup[None, :] + 1e-9)
        # and every endpoint is inside the vertex polygon too
        for d, g in zip(poly.directions, poly.supports):
            assert np.all(pos @ d <= g + 1e-9)


class TestPolygonDistance:
    def test_separated_squares(self):
        P = square_polygon((0, 0), 0.5)
        Q = square_polygon((3, 0), 0.5)
        assert polygon_distance(P, Q) == pytest.approx(2.0, abs=1e-12)

    def test_overlapping_squares(self):
        P = square_polygon((0, 0), 1.0)
        Q = square_polygon((0.5, 0.5), 1.0)
        assert polygon_distance(P, Q) == 0.0

    def test_nested(self):
        P = square_polygon((0, 0), 3.0)
        Q = square_polygon((0.1, -0.2), 0.5)
        assert polygon_distance(P, Q) == 0.0
        assert polygon_distance(Q, P) == 0.0

    def test_crossing_edges(self):
        P = square_polygon((0, 0), 1.0)
        Q = agent_polygon(planar_directions(4), 0,
                          np.array([2.5, 0.3, 2.5, 0.3]))  # thin slab through P
        assert polygon_distance(P, Q) == 0.0

    def test_point_to_polygon(self):
        dirs = planar_directions(8)
        pt = agent_polygon(dirs, 0, dirs @ np.array([5.0, 0.0]))
        sq = square_polygon((0, 0), 1.0)
        assert polygon_distance(pt, sq) == pytest.approx(4.0, abs=1e-9)

    def test_symmetry_and_triangle_consistency(self):
        rng = np.random.default_rng(17)
        dirs = planar_directions(10)
        polys = []
        for _ in range(12):
            sup = cloud_supports(dirs, rng.normal(scale=5.0, size=2), rng)
            polys.append(agent_polygon(dirs, 0, sup))
        for a in range(len(polys)):
            for b in range(a + 1, len(polys)):
                dab = polygon_distance(polys[a], polys[b])
                assert dab == pytest.approx(polygon_distance(polys[b], polys[a]),
                                            abs=1e-12)
                for c in range(len(polys)):
                    if c in (a, b):
                        continue
                    # going through a third set can shorten the gap by at most
                    # its diameter
                    diam = np.linalg.norm(
                        polys[c].vertices[:, None, :] - polys[c].vertices[None, :, :],
                        axis=2).max()
                    dac = polygon_distance(polys[a], polys[c])
                    dcb = polygon_distance(polys[c], polys[b])
                    assert dab <= dac + diam + dcb + 1e-9

    def test_matches_boundary_sampling_oracle(self):
        rng = np.random.default_rng(19)
        dirs = planar_directions(9)
        for _ in range(25):
            c1 = rng.normal(scale=2.0, size=2)
            offset_dir = rng.normal(size=2)
            offset_dir /= np.linalg.norm(offset_dir)
            c2 = c1 + offset_dir * rng.uniform(6.0, 12.0)
            P = agent_polygon(dirs, 0, cloud_supports(dirs, c1, rng))
            Q = agent_polygon(dirs, 0, cloud_supports(dirs, c2, rng))
            got = polygon_distance(P, Q)
            oracle = _boundary_sample_distance(P.vertices, Q.vertices, 2000)
            assert abs(got - oracle) < 1e-4


def _boundary_sample_distance(va, vb, n_samples):
    def boundary(v, n):
        segs = np.roll(v, -1, axis=0) - v
        lens = np.linalg.norm(segs, axis=1)
        total = lens.sum()
        pts = [v]
        for i in range(len(v)):
            cnt = max(2, int(round(n * lens[i] / total)))
            t = np.linspace(0, 1, cnt, endpoint=False)[:, None]
            pts.append(v[i][None, :] + t * segs[i][None, :])
        return np.vstack(pts)

    pa = boundary(va, n_samples)
    pb = boundary(vb, n_samples)
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.min()))
