"""Shared independent oracles for the test suite.

Everything here recomputes results from definitions using plain Python
sets and exhaustive loops, deliberately avoiding the library's bitmask
fast paths, so oracle agreement is a genuine dual-route check.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations, permutations, product

import pytest

import iasgl.labeling
import iasgl.realisation
import iasgl.search
from iasgl.graphs import Graph, generate
from iasgl.labeling import Labeling, verify_iasgl
from iasgl.sets import GroundSet, IntegerSet, additive_type, subset_algebra


def nonempty_subsets(elements) -> list[frozenset[int]]:
    elems = sorted(elements)
    out = []
    for r in range(1, len(elems) + 1):
        for combo in combinations(elems, r):
            out.append(frozenset(combo))
    return out


def naive_sumset(a, b) -> frozenset[int]:
    return frozenset(x + y for x in a for y in b)


def oracle_classify(elements, distinct: bool = True):
    """Brute-force double loop over all subset pairs, in plain sets.

    Returns (non_sumsets, non_summands, neither) as sets of frozensets,
    covering every non-empty subset except {0}.
    """
    ground = frozenset(elements)
    zero = frozenset({0})
    subsets = nonempty_subsets(elements)
    candidates = [s for s in subsets if s != zero]

    sumsets = set()
    for a in subsets:
        for b in subsets:
            if a == zero or b == zero:
                continue
            if distinct and a == b:
                continue
            sumsets.add(naive_sumset(a, b))

    non_sumsets = {c for c in candidates if c not in sumsets}
    non_summands = set()
    for a in candidates:
        is_summand = False
        for b in subsets:
            if b == zero or (distinct and b == a):
                continue
            if naive_sumset(a, b) <= ground:
                is_summand = True
                break
        if not is_summand:
            non_summands.add(a)
    return non_sumsets, non_summands, non_sumsets & non_summands


def oracle_is_iasgl(graph: Graph, ground: frozenset[int], labels: dict[str, frozenset[int]]) -> bool:
    """Definition-level check of a graceful set-indexer, no library code."""
    if set(labels) != set(graph.vertex_ids):
        return False
    values = list(labels.values())
    if len(set(values)) != len(values):
        return False
    if any(not lab or not lab <= ground for lab in values):
        return False
    edge_labels = [naive_sumset(labels[u], labels[v]) for u, v in graph.sorted_edges()]
    if len(set(edge_labels)) != len(edge_labels):
        return False
    targets = {s for s in nonempty_subsets(ground) if s != frozenset({0})}
    return set(edge_labels) == targets


def oracle_search_all(graph: Graph, ground_elements) -> list[dict[str, frozenset[int]]]:
    """Every graceful labeling of the graph, by raw enumeration of all
    injective assignments of non-empty subsets to vertices."""
    ground = frozenset(ground_elements)
    subsets = nonempty_subsets(ground_elements)
    vertices = list(graph.vertex_ids)
    witnesses = []
    if len(vertices) > len(subsets):
        return witnesses
    for combo in permutations(subsets, len(vertices)):
        labels = dict(zip(vertices, combo))
        if oracle_is_iasgl(graph, ground, labels):
            witnesses.append(labels)
    return witnesses


def assignment_labeling(x: GroundSet, seed: int) -> tuple[Graph, Labeling]:
    """A graph that X labels by construction, with that labeling; an
    instance generator rather than an oracle: for each target in
    ascending mask order one seeded random label pair of the kernel's
    pair table, each label one vertex, the vertex ids v0, v1, ...
    shuffled by the same generator."""
    rng = random.Random(seed)
    pairs = subset_algebra(additive_type(x)).pairs
    edges = [rng.choice(pairs[t]) for t in range(2, 1 << x.n)]
    labels = sorted({m for e in edges for m in e})
    ids = [f"v{i}" for i in range(len(labels))]
    rng.shuffle(ids)
    name = dict(zip(labels, ids))
    graph = Graph.from_edges(ids, [(name[a], name[b]) for a, b in edges])
    elements = x.base.elements
    subset = {
        m: IntegerSet.of(*(e for i, e in enumerate(elements) if m >> i & 1)) for m in labels
    }
    return graph, Labeling.from_mapping(x, {name[m]: subset[m] for m in labels})


def assignment_graph(x: GroundSet, seed: int) -> Graph:
    """The graph of ``assignment_labeling(x, seed)``."""
    return assignment_labeling(x, seed)[0]


def twin_classes(graph: Graph) -> list[list[str]]:
    """The classes of two or more vertices with one open neighbourhood
    (false twins) or one closed neighbourhood (true twins), read off the
    edge set in plain sets."""
    adj: dict[str, set[str]] = {v: set() for v in graph.vertex_ids}
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    classes = []
    for closed in (False, True):
        groups: dict[frozenset[str], list[str]] = {}
        for v in graph.vertex_ids:
            groups.setdefault(frozenset(adj[v] | ({v} if closed else set())), []).append(v)
        classes += [members for members in groups.values() if len(members) > 1]
    return classes


def expand_orbits(graph: Graph, outcome) -> list[Labeling]:
    """Every labeling that a search outcome's canonical witnesses stand
    for, sorted by assignment: each witness with its labels permuted
    within each twin class of the graph in every way. Each labeling is
    verified, all are distinct, and their number is ``outcome.labelings``.
    """
    classes = twin_classes(graph)
    expanded = []
    for w in outcome.witnesses:
        labels = dict(w.assignment)
        for perms in product(*(permutations([labels[v] for v in c]) for c in classes)):
            relabeled = dict(labels)
            for members, perm in zip(classes, perms):
                relabeled.update(zip(members, perm))
            f = Labeling.from_mapping(w.ground, relabeled)
            assert verify_iasgl(graph, f), relabeled
            expanded.append(f)
    assert len(set(expanded)) == len(expanded) == outcome.labelings
    return sorted(expanded, key=lambda f: f.assignment)


def prufer_trees(m: int):
    """All labeled trees on m vertices, decoded from Prufer sequences."""
    import bisect
    from itertools import product

    if m == 2:
        yield [(0, 1)]
        return
    for seq in product(range(m), repeat=m - 2):
        degree = [1] * m
        for v in seq:
            degree[v] += 1
        edges = []
        leaves = sorted(v for v in range(m) if degree[v] == 1)
        for v in seq:
            leaf = leaves.pop(0)
            edges.append((leaf, v))
            degree[v] -= 1
            if degree[v] == 1:
                # v becomes a leaf; keep the pool sorted for determinism.
                bisect.insort(leaves, v)
        edges.append((leaves[0], leaves[1]))
        yield edges


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Brute-force isomorphism with degree pruning; meant for small
    graphs. The free-tree tests' reference for "one representative per
    isomorphism class"."""
    if len(g1.vertex_ids) != len(g2.vertex_ids) or g1.edge_count() != g2.edge_count():
        return False
    if sorted(map(g1.degree, g1.vertex_ids)) != sorted(map(g2.degree, g2.vertex_ids)):
        return False
    order = sorted(g1.vertex_ids, key=lambda v: (-g1.degree(v), v))
    candidates = {
        v: [w for w in g2.vertex_ids if g2.degree(w) == g1.degree(v)] for v in order
    }
    mapping: dict[str, str] = {}

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in candidates[v]:
            if w in mapping.values():
                continue
            # Mapped neighbours must stay adjacent, mapped non-neighbours not.
            if all(
                (u in g1.neighbors(v)) == (wu in g2.neighbors(w)) for u, wu in mapping.items()
            ):
                mapping[v] = w
                if extend(i + 1):
                    return True
                del mapping[v]
        return False

    return extend(0)


def is_bipartite(g: Graph) -> bool:
    """2-colorability by breadth-first traversal: the reference for
    ``RealisationResult.non_bipartite``, which reads it off the degrees."""
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


def labeling_to_frozensets(labeling) -> dict[str, frozenset[int]]:
    return {vid: frozenset(s.elements) for vid, s in labeling.assignment}


def zero_vertex(g: Graph, f: Labeling) -> str | None:
    """The first vertex, in id order, labeled {0}, if any."""
    for vid in g.vertex_ids:
        if f.label_of(vid).elements == (0,):
            return vid
    return None


def clear_result_caches() -> None:
    """Empty the per-type caches of ``search_iasgl`` and
    ``build_realisation``, so the next call of each decides afresh."""
    iasgl.search._outcomes.clear()
    iasgl.realisation._build.cache_clear()


@pytest.fixture(autouse=True)
def cold_result_caches() -> None:
    """Start every test with both result caches empty, so that no result
    depends on the order tests run in."""
    clear_result_caches()


def count_calls(monkeypatch, module, name: str) -> list[int]:
    """Count the calls of module.name; the one-item list holds the count."""
    count = [0]
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return count


@pytest.fixture
def x01() -> GroundSet:
    return GroundSet.of(0, 1)


@pytest.fixture
def x012() -> GroundSet:
    return GroundSet.of(0, 1, 2)


@pytest.fixture
def x0123() -> GroundSet:
    return GroundSet.of(0, 1, 2, 3)


def iset(*elements: int) -> IntegerSet:
    return IntegerSet.of(*elements)


def star_witness(n: int) -> tuple[Graph, Labeling]:
    """K(1, 2^n - 2) over {0..n-1}: {0} at the centre and one non-{0}
    subset on each leaf, the star theorem's labeling."""
    x = GroundSet.of(*range(n))
    leaves = [s for s in nonempty_subsets(range(n)) if s != frozenset({0})]
    mapping = {"v0": iset(0)}
    mapping.update((f"v{i}", IntegerSet.from_iterable(s)) for i, s in enumerate(leaves, 1))
    return generate("star", len(leaves)), Labeling.from_mapping(x, mapping)


@pytest.fixture
def edge_steps(monkeypatch) -> dict[str, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Record the verification ladder's per-edge work, on the endpoint
    labels' element tuples: its ``sum_label`` calls (the edges with no
    {0}-labeled endpoint, whose sums it tests against X) and its
    ``induced_edge_label`` calls (the edges a violation names)."""
    calls: dict[str, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {
        "sum_label": [], "induced_edge_label": [],
    }
    sum_label, induced_edge_label = iasgl.labeling.sum_label, iasgl.labeling.induced_edge_label

    def summed(a, b, x):
        calls["sum_label"].append((a, b))
        return sum_label(a, b, x)

    def induced(f, u, v):
        calls["induced_edge_label"].append((f.label_of(u).elements, f.label_of(v).elements))
        return induced_edge_label(f, u, v)

    monkeypatch.setattr(iasgl.labeling, "sum_label", summed)
    monkeypatch.setattr(iasgl.labeling, "induced_edge_label", induced)
    return calls


def summed_edges(
    graph: Graph, labeling: Labeling
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The endpoint element tuples of the edges with no {0}-labeled
    endpoint, in sorted edge order: the edges whose label is a sum."""
    label = dict(labeling.assignment)
    pairs = [(label[u].elements, label[v].elements) for u, v in graph.sorted_edges()]
    return [(a, b) for a, b in pairs if (0,) not in (a, b)]
