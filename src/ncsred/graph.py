"""Undirected communication-graph algebra: adjacency, Laplacian, connectivity."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EdgeNotFoundError, InvalidInputError


def _canonical(i, j):
    if i == j:
        raise InvalidInputError(f"self-loop ({i},{j}) not allowed")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph on nodes 0..n_nodes-1.

    Edges are stored as a frozenset of (i, j) pairs with i < j; duplicate
    and reversed pairs collapse to one edge. Each node's sorted neighbours are
    tabulated once, at construction.
    """

    n_nodes: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n_nodes < 1:
            raise InvalidInputError(f"n_nodes must be >= 1, got {self.n_nodes}")
        canon = set()
        for i, j in self.edges:
            i, j = int(i), int(j)
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise InvalidInputError(
                    f"edge ({i},{j}) out of range for {self.n_nodes} nodes")
            canon.add(_canonical(i, j))
        adj = [[] for _ in range(self.n_nodes)]
        for i, j in sorted(canon):  # sorted edges list each node's neighbours in order
            adj[i].append(j)
            adj[j].append(i)
        object.__setattr__(self, "edges", frozenset(canon))
        object.__setattr__(self, "_adj", tuple(map(tuple, adj)))

    def has_edge(self, i, j):
        return _canonical(i, j) in self.edges

    def neighbors(self, i):
        """Sorted neighbor indices of node i."""
        if not 0 <= i < self.n_nodes:
            raise InvalidInputError(f"node {i} out of range for {self.n_nodes} nodes")
        return list(self._adj[i])

    def adjacency(self):
        A = np.zeros((self.n_nodes, self.n_nodes))
        for i, j in self.edges:
            A[i, j] = A[j, i] = 1.0
        return A


def laplacian(g: Graph) -> np.ndarray:
    """Degree matrix minus adjacency matrix; symmetric with zero row sums."""
    A = g.adjacency()
    return np.diag(A.sum(axis=1)) - A


def algebraic_connectivity(g: Graph):
    """Second-smallest Laplacian eigenvalue and an associated unit eigenvector.

    Returns (lambda2, fiedler). lambda2 > 0 iff the graph is connected; when
    lambda2 is a repeated eigenvalue any unit vector of the eigenspace may be
    returned.
    """
    if g.n_nodes < 2:
        raise InvalidInputError("algebraic connectivity needs at least 2 nodes")
    w, V = np.linalg.eigh(laplacian(g))
    lam2 = float(max(w[1], 0.0))
    v = V[:, 1]
    return lam2, v / np.linalg.norm(v)


def remove_edge(g: Graph, i, j) -> Graph:
    """New graph without edge (i, j); the input graph is unmodified."""
    e = _canonical(i, j)
    if e not in g.edges:
        raise EdgeNotFoundError(f"edge {e} not in graph")
    return Graph(g.n_nodes, g.edges - {e})


def is_connected(g: Graph) -> bool:
    """Breadth-first connectivity over all nodes."""
    if g.n_nodes == 1:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in g.neighbors(i):
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return len(seen) == g.n_nodes
