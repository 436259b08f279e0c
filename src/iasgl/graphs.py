"""Simple finite undirected graphs and the standard families under study.

Graphs are immutable: a sorted tuple of opaque string vertex ids plus a
frozenset of sorted id pairs. No loops, no parallel edges, and no
isolated vertices (every graph here must have each vertex on at least
one edge). Generators for stars, paths, cycles and complete graphs are
deterministic, and free trees are enumerated one representative per
isomorphism class.
"""

from __future__ import annotations

from collections import deque

from .sets import KeyRecord

FREE_TREE_CAP = 10

Edge = tuple[str, str]


def _norm_edge(u: str, v: str) -> Edge:
    return (u, v) if u <= v else (v, u)


class Graph(KeyRecord):
    """An immutable simple graph; equality, hash and repr read only
    ``vertex_ids`` and ``edges``, and repr lists the edges sorted.

    The adjacency, the sorted edge list and the pendant vertices are
    derived once, when the graph is built, and kept in slots of their
    own, as is the hash once first computed; ``sorted_edges`` and
    ``pendant_vertices`` hand out fresh lists.
    """

    __slots__ = ("vertex_ids", "edges", "_adj", "_sorted_edges", "_pendants")
    _fields = ("vertex_ids", "edges")

    def __init__(self, vertex_ids: tuple[str, ...], edges: frozenset[Edge]) -> None:
        ids = tuple(sorted(vertex_ids))
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex ids")
        known = set(ids)
        touched: set[str] = set()
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u!r}")
            if u not in known or v not in known:
                raise ValueError(f"edge endpoint not a vertex: {(u, v)!r}")
            norm.add(_norm_edge(u, v))
            touched.add(u)
            touched.add(v)
        isolated = known - touched
        if isolated:
            raise ValueError(f"isolated vertices: {sorted(isolated)}")
        adj: dict[str, list[str]] = {v: [] for v in ids}
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "vertex_ids", ids)
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "_adj", {v: tuple(sorted(ns)) for v, ns in adj.items()})
        object.__setattr__(self, "_sorted_edges", tuple(sorted(norm)))
        object.__setattr__(self, "_pendants", tuple(v for v in ids if len(adj[v]) == 1))

    @classmethod
    def from_edges(cls, vertices, edges) -> "Graph":
        return cls(tuple(vertices), frozenset(_norm_edge(u, v) for u, v in edges))

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self._adj[v]

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[Edge]:
        return list(self._sorted_edges)

    def __repr__(self) -> str:
        # A frozenset prints in an order that depends on how it was
        # built; listing the sorted edges gives equal graphs one repr.
        edges = ", ".join(map(repr, self._sorted_edges))
        return f"Graph(vertex_ids={self.vertex_ids!r}, edges=frozenset({{{edges}}}))"


def generate(kind: str, size: int) -> Graph:
    """Build a named family member with deterministic ids v0, v1, ...

    star m   -> K(1,m), center v0, m leaves (size >= 1)
    path m   -> P_m on m vertices (size >= 2)
    cycle m  -> C_m (size >= 3)
    complete m -> K_m (size >= 2)
    """
    if kind == "star":
        if size < 1:
            raise ValueError("star size must be >= 1")
        vertices = [f"v{i}" for i in range(size + 1)]
        edges = [("v0", f"v{i}") for i in range(1, size + 1)]
    elif kind == "path":
        if size < 2:
            raise ValueError("path size must be >= 2")
        vertices = [f"v{i}" for i in range(size)]
        edges = [(f"v{i}", f"v{i + 1}") for i in range(size - 1)]
    elif kind == "cycle":
        if size < 3:
            raise ValueError("cycle size must be >= 3")
        vertices = [f"v{i}" for i in range(size)]
        edges = [(f"v{i}", f"v{(i + 1) % size}") for i in range(size)]
    elif kind == "complete":
        if size < 2:
            raise ValueError("complete graph size must be >= 2")
        vertices = [f"v{i}" for i in range(size)]
        edges = [(f"v{i}", f"v{j}") for i in range(size) for j in range(i + 1, size)]
    else:
        raise ValueError(f"unknown graph kind: {kind!r}")
    return Graph.from_edges(vertices, edges)


def family_edge_count(kind: str, size: int) -> int:
    """|E| of ``generate(kind, size)``, read off the spec without
    building the graph (sizes are not validated here)."""
    if kind == "star":
        return size
    if kind == "path":
        return size - 1
    if kind == "cycle":
        return size
    if kind == "complete":
        return size * (size - 1) // 2
    raise ValueError(f"unknown graph kind: {kind!r}")


def pendant_vertices(g: Graph) -> list[str]:
    """Vertices of degree exactly 1, in id order."""
    return list(g._pendants)


def is_bipartite(g: Graph) -> bool:
    """2-colorability by breadth-first traversal."""
    color: dict[str, int] = {}
    for start in g.vertex_ids:
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if w not in color:
                    color[w] = color[u] ^ 1
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


# ---------------------------------------------------------------------------
# Free-tree enumeration
# ---------------------------------------------------------------------------
#
# Level by level: every free tree on m vertices arises from some tree on
# m-1 vertices by attaching one leaf, so attaching a leaf to every vertex
# of every (m-1)-tree and deduplicating by a canonical certificate yields
# exactly one representative per isomorphism class. The certificate roots
# the tree at its centroid (or the smaller-certified of two centroids)
# and writes the classic nested-parentheses form with children sorted.


def _tree_certificate(adj: dict[int, list[int]]) -> str:
    def rooted(root: int, parent: int) -> str:
        parts = sorted(rooted(c, root) for c in adj[root] if c != parent)
        return "(" + "".join(parts) + ")"

    # Centroid(s): peel leaves until one or two vertices remain.
    degree = {v: len(ns) for v, ns in adj.items()}
    remaining = set(adj)
    layer = [v for v in remaining if degree[v] <= 1]
    while len(remaining) > 2:
        nxt = []
        for leaf in layer:
            remaining.discard(leaf)
            for w in adj[leaf]:
                if w in remaining:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    return min(rooted(c, -1) for c in remaining)


def enumerate_free_trees(m: int) -> list[Graph]:
    """One representative per isomorphism class of free trees on m vertices.

    Results are ordered by certificate, so repeated calls agree exactly.
    """
    if m < 2 or m > FREE_TREE_CAP:
        raise ValueError(f"free-tree order must be in [2, {FREE_TREE_CAP}]")
    level: dict[str, dict[int, list[int]]] = {"()": {0: []}}
    for size in range(2, m + 1):
        nxt: dict[str, dict[int, list[int]]] = {}
        for adj in level.values():
            for attach in range(size - 1):
                grown = {v: list(ns) for v, ns in adj.items()}
                grown[attach].append(size - 1)
                grown[size - 1] = [attach]
                cert = _tree_certificate(grown)
                if cert not in nxt:
                    nxt[cert] = grown
        level = nxt

    graphs = []
    for cert in sorted(level):
        adj = level[cert]
        vertices = [f"v{i}" for i in range(m)]
        edges = [(f"v{u}", f"v{w}") for u, ns in adj.items() for w in ns if u < w]
        graphs.append(Graph.from_edges(vertices, edges))
    return graphs

