import numpy as np
import pytest

from ncsred.errors import EdgeNotFoundError, InvalidInputError
from ncsred.graph import (Graph, algebraic_connectivity, is_connected,
                          laplacian, remove_edge)

FIG_EDGES = {(0, 1), (0, 2), (1, 3), (2, 4)}


def fig_graph():
    return Graph(5, frozenset(FIG_EDGES))


def path_eigenvalues(n):
    # analytic spectrum of the n-node path Laplacian: 2 - 2 cos(k pi / n)
    return np.array([2.0 - 2.0 * np.cos(k * np.pi / n) for k in range(n)])


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidInputError):
            Graph(3, frozenset({(1, 1)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            Graph(3, frozenset({(0, 3)}))

    def test_reversed_pairs_collapse(self):
        g = Graph(3, frozenset({(1, 0), (0, 1), (2, 1)}))
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_adjacency_symmetric_zero_diagonal(self):
        A = fig_graph().adjacency()
        assert np.array_equal(A, A.T)
        assert np.array_equal(np.diag(A), np.zeros(5))


class TestLaplacian:
    def test_path_three_nodes(self):
        g = Graph(3, frozenset({(0, 1), (1, 2)}))
        expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], float)
        assert np.array_equal(laplacian(g), expected)

    def test_single_node(self):
        assert np.array_equal(laplacian(Graph(1)), np.zeros((1, 1)))

    def test_formation_graph(self):
        L = laplacian(fig_graph())
        assert np.array_equal(np.diag(L), np.array([2, 2, 2, 1, 1], float))
        for i, j in FIG_EDGES:
            assert L[i, j] == -1 and L[j, i] == -1
        for i, j in [(0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (3, 4)]:
            assert L[i, j] == 0


class TestAlgebraicConnectivity:
    def test_complete_pair(self):
        lam2, _ = algebraic_connectivity(Graph(2, frozenset({(0, 1)})))
        assert lam2 == pytest.approx(2.0, abs=1e-12)

    def test_disconnected_pair(self):
        lam2, _ = algebraic_connectivity(Graph(2))
        assert lam2 == pytest.approx(0.0, abs=1e-12)

    def test_single_node_rejected(self):
        with pytest.raises(InvalidInputError):
            algebraic_connectivity(Graph(1))

    def test_formation_graph_spectrum(self):
        # the formation graph is the 5-node path 3-1-0-2-4 relabeled
        lam2, v = algebraic_connectivity(fig_graph())
        assert lam2 == pytest.approx(path_eigenvalues(5)[1], abs=1e-12)
        # Fiedler magnitudes follow the path profile cos((2t+1) pi / 10)
        path_order = [3, 1, 0, 2, 4]
        prof = np.cos((2 * np.arange(5) + 1) * np.pi / 10.0)
        prof /= np.linalg.norm(prof)
        expected = np.empty(5)
        for t, node in enumerate(path_order):
            expected[node] = prof[t]
        assert np.abs(np.abs(v) - np.abs(expected)).max() < 1e-9
        L = laplacian(fig_graph())
        assert np.linalg.norm(L @ v - lam2 * v) < 1e-8


class TestRemoveEdge:
    def test_disconnects_formation_graph(self):
        g2 = remove_edge(fig_graph(), 2, 4)
        assert g2.neighbors(4) == []
        lam2, _ = algebraic_connectivity(g2)
        assert lam2 == pytest.approx(0.0, abs=1e-12)

    def test_original_untouched(self):
        g = fig_graph()
        remove_edge(g, 2, 4)
        assert (2, 4) in g.edges

    def test_complete_pair(self):
        g2 = remove_edge(Graph(2, frozenset({(0, 1)})), 0, 1)
        assert g2.edges == frozenset()

    def test_triangle_minus_edge_spectrum(self):
        tri = Graph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
        g2 = remove_edge(tri, 0, 2)
        w = np.linalg.eigvalsh(laplacian(g2))
        assert np.allclose(w, path_eigenvalues(3), atol=1e-12)
        lam2, _ = algebraic_connectivity(g2)
        assert lam2 == pytest.approx(1.0, abs=1e-12)

    def test_missing_edge(self):
        with pytest.raises(EdgeNotFoundError):
            remove_edge(fig_graph(), 3, 4)


class TestIsConnected:
    def test_formation_graph(self):
        assert is_connected(fig_graph())

    def test_leaf_removed(self):
        assert not is_connected(remove_edge(fig_graph(), 1, 3))

    def test_single_node(self):
        assert is_connected(Graph(1))


def random_graph(rng):
    n = int(rng.integers(2, 13))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = rng.random(len(pairs)) < rng.uniform(0.05, 0.9)
    return Graph(n, frozenset(p for p, m in zip(pairs, mask) if m))


class TestInvariants:
    def test_laplacian_row_sums_symmetry_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            g = random_graph(rng)
            L = laplacian(g)
            assert np.array_equal(L, L.T)
            assert np.array_equal(L @ np.ones(g.n_nodes), np.zeros(g.n_nodes))
            assert np.linalg.eigvalsh(L).min() >= -1e-9

    def test_connectivity_matches_lambda2(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            g = random_graph(rng)
            lam2, _ = algebraic_connectivity(g)
            assert is_connected(g) == (lam2 > 1e-9)

    def test_remove_then_add_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            g = random_graph(rng)
            if not g.edges:
                continue
            edge = sorted(g.edges)[int(rng.integers(len(g.edges)))]
            assert Graph(g.n_nodes, remove_edge(g, *edge).edges | {edge}) == g

    def test_fiedler_residual(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            g = random_graph(rng)
            lam2, v = algebraic_connectivity(g)
            L = laplacian(g)
            assert np.linalg.norm(L @ v - lam2 * v) <= 1e-8
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def scan_neighbors(g, i):
    """Neighbours of node i by a scan over every edge, as `neighbors` once was."""
    return sorted(b if a == i else a for a, b in g.edges if i in (a, b))


class TestNeighborTable:
    def test_matches_edge_scan(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            g = random_graph(rng)
            while True:
                assert [g.neighbors(i) for i in range(g.n_nodes)] == \
                    [scan_neighbors(g, i) for i in range(g.n_nodes)]
                if not g.edges:
                    break
                g = remove_edge(g, *sorted(g.edges)[int(rng.integers(len(g.edges)))])

    def test_returns_a_fresh_list(self):
        g = fig_graph()
        g.neighbors(0).append(4)
        assert g.neighbors(0) == [1, 2]

    @pytest.mark.parametrize("node", [-1, 5])
    def test_rejects_node_out_of_range(self, node):
        with pytest.raises(InvalidInputError, match="out of range"):
            fig_graph().neighbors(node)
