"""Undirected connected communication graphs and their generators."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Graph", "GraphError", "random_connected", "line", "complete",
           "to_edge_list_text", "from_edge_list_text"]

_MAX_RETRIES = 10_000


class GraphError(ValueError):
    """Invalid graph construction or generation failure."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1, connected by construction.

    Edges are stored as a sorted tuple of (i, j) pairs with i < j; the boolean
    adjacency matrix and degree sequence are derived once.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: np.ndarray = field(init=False, repr=False, compare=False)
    degrees: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise GraphError(f"need at least one node, got n={self.n}")
        canon = []
        for i, j in self.edges:
            if i == j:
                raise GraphError(f"self-loop at node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise GraphError(f"edge ({i}, {j}) out of range for n={self.n}")
            canon.append((min(i, j), max(i, j)))
        canon = tuple(sorted(set(canon)))
        object.__setattr__(self, "edges", canon)
        adj = np.zeros((self.n, self.n), dtype=bool)
        for i, j in canon:
            adj[i, j] = True
            adj[j, i] = True
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)
        deg = adj.sum(axis=1).astype(int)
        deg.setflags(write=False)
        object.__setattr__(self, "degrees", deg)
        if not self.is_connected():
            raise GraphError(f"graph on {self.n} nodes with {len(canon)} edges is not connected")

    def is_connected(self) -> bool:
        """Breadth-first search from node 0 reaches every node."""
        seen = np.zeros(self.n, dtype=bool)
        seen[0] = True
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in np.nonzero(self.adjacency[u])[0]:
                    if not seen[v]:
                        seen[v] = True
                        nxt.append(int(v))
            frontier = nxt
        return bool(seen.all())

    def neighbors(self, i: int) -> list[int]:
        return [int(v) for v in np.nonzero(self.adjacency[i])[0]]


def random_connected(n: int, edge_prob: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) sample, rejected until connected.

    Deterministic for a fixed (n, edge_prob, seed) triple.
    """
    if n < 2:
        raise GraphError(f"need n >= 2, got {n}")
    if not (0.0 < edge_prob <= 1.0):
        raise GraphError(f"edge_prob must be in (0, 1], got {edge_prob}")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RETRIES):
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(iu.size) < edge_prob
        edges = tuple((int(i), int(j)) for i, j in zip(iu[mask], ju[mask]))
        try:
            return Graph(n, edges)
        except GraphError:
            continue
    raise GraphError(
        f"no connected G({n}, {edge_prob}) sample after {_MAX_RETRIES} draws (seed {seed})"
    )


def line(n: int) -> Graph:
    """Path graph 0-1-2-...-(n-1)."""
    if n < 2:
        raise GraphError(f"need n >= 2, got {n}")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def complete(n: int) -> Graph:
    """Complete graph on n nodes (test fixture)."""
    if n < 2:
        raise GraphError(f"need n >= 2, got {n}")
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def to_edge_list_text(g: Graph) -> str:
    """One 'i j' line per edge, 0-based node indices."""
    return "".join(f"{i} {j}\n" for i, j in g.edges)


def from_edge_list_text(text: str) -> Graph:
    """Parse the edge-list format written by `to_edge_list_text`.

    The ids must be exactly 0..N-1: an id no edge uses would be an isolated
    node, so a gap is rejected here, before `Graph` allocates N x N storage.
    """
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2 or not all(tok.isdecimal() for tok in parts):
            raise GraphError(f"line {lineno}: expected 'i j' with non-negative integer ids, "
                             f"got {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if not edges:
        raise GraphError("edge list is empty")
    ids = sorted({v for edge in edges for v in edge})
    if ids[-1] >= len(ids):
        gap = next(k for k, v in enumerate(ids) if v != k)
        raise GraphError(f"node {gap} is in no edge (ids run to {ids[-1]}), so it would be "
                         f"isolated and the graph disconnected")
    return Graph(len(ids), tuple(edges))
