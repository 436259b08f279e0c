"""Negative verdicts checked without the DFS: the assignment oracle.

A graph G without isolated vertices admits an IASGL over X iff G is
isomorphic to the graph of an exact assignment of X: for every target
(every non-empty subset of X but {0}) one pair {A, B} of distinct
non-empty subsets with A + B equal to it, each label one vertex, each
pair one edge. So a search verdict is confirmed by comparing G with
every assignment graph of X, first by sorted degree sequence, then with
``is_isomorphic``. The pair table is rebuilt here from plain sumsets,
so no P-rule, twin rule, gate or subset kernel is involved.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product
from math import prod

import iasgl.search
from iasgl.graphs import Graph, enumerate_free_trees, generate
from iasgl.search import SearchConfig, SearchStatus, search_iasgl
from iasgl.sets import GroundSet, additive_type, enumerate_canonical_ground_sets

from conftest import is_isomorphic, naive_sumset, nonempty_subsets

GATE = SearchConfig()
NO_GATE = SearchConfig(disabled_rules=frozenset({"gate"}))

#: The graphs the theorem harness sweeps at |X| = 3: the 11 trees on 7
#: vertices, P_7, C_6 and K_4, each with 2^3 - 2 edges.
FIXED_SWEEP = [
    *enumerate_free_trees(7),
    generate("path", 7),
    generate("cycle", 6),
    generate("complete", 4),
]

#: Hub v0 with leaves v1..v12 and the path v0-v13-v14: a non-star tree
#: with 2^4 - 2 edges.
BROOM15 = Graph.from_edges(
    [f"v{i}" for i in range(15)],
    [("v0", f"v{i}") for i in range(1, 14)] + [("v13", "v14")],
)


@cache
def pair_table(elements: tuple[int, ...]) -> dict[frozenset[int], list[tuple]]:
    """Each target of X -> its unordered pairs of distinct non-empty
    subsets of X that sum to it, in plain sets."""
    subsets = nonempty_subsets(elements)
    table = {t: [] for t in subsets if t != frozenset({0})}
    for a, b in combinations(subsets, 2):
        target = naive_sumset(a, b)
        if target in table:
            table[target].append((a, b))
    return table


@cache
def assignment_graphs(elements: tuple[int, ...]) -> list[tuple[list[int], Graph]]:
    """(sorted degree sequence, graph) of every choice of one pair per
    target: one vertex per label used, one edge per target."""
    graphs = []
    for choice in product(*pair_table(elements).values()):
        labels = sorted({s for pair in choice for s in pair}, key=sorted)
        ids = {s: f"v{i}" for i, s in enumerate(labels)}
        g = Graph.from_edges(ids.values(), [(ids[a], ids[b]) for a, b in choice])
        graphs.append((sorted(map(g.degree, g.vertex_ids)), g))
    return graphs


def oracle_admits(g: Graph, x: GroundSet) -> bool:
    degrees = sorted(map(g.degree, g.vertex_ids))
    return any(
        seq == degrees and is_isomorphic(g, h) for seq, h in assignment_graphs(x.base.elements)
    )


def disagreements(graphs, family, cfg: SearchConfig) -> list[tuple[int, GroundSet, SearchStatus]]:
    """(graph index, X, status) of every search that hits its budget or
    whose FOUND disagrees with the oracle."""
    wrong = []
    for i, g in enumerate(graphs):
        for x in family:
            status = search_iasgl(g, x, cfg).status
            if status is SearchStatus.BUDGET_EXCEEDED or (
                (status is SearchStatus.FOUND) != oracle_admits(g, x)
            ):
                wrong.append((i, x, status))
    return wrong


def test_fixed_sweep_graphs_match_the_oracle():
    # Of the 14 graphs, only the star K(1,6) admits over each of the 31
    # canonical ground sets of size 3 with max element <= 10, with the
    # gate on and with it off.
    family = enumerate_canonical_ground_sets(3, 10)
    assert len(FIXED_SWEEP) == 14 and len(family) == 31
    for cfg in (GATE, NO_GATE):
        assert disagreements(FIXED_SWEEP, family, cfg) == []
    admitting = [g for g in FIXED_SWEEP if all(oracle_admits(g, x) for x in family)]
    assert [max(map(g.degree, g.vertex_ids)) for g in admitting] == [6]
    assert not any(oracle_admits(g, x) for g in FIXED_SWEEP if g not in admitting for x in family)


def test_broom_sweep_matches_the_oracle():
    # sweep:n=4,max=5: 10 ground sets of 6 additive types, whose 241
    # choice functions hold no broom, while K(1,14) admits everywhere.
    family = enumerate_canonical_ground_sets(4, 5)
    choices = {
        additive_type(x): prod(map(len, pair_table(x.base.elements).values()))
        for x in family
    }
    assert (len(family), len(choices), sum(choices.values())) == (10, 6, 241)
    star = generate("star", 14)
    assert disagreements([BROOM15, star], family, GATE) == []
    assert [oracle_admits(BROOM15, x) for x in family] == [False] * 10
    assert [oracle_admits(star, x) for x in family] == [True] * 10


def test_oracle_flags_an_unsound_p4(monkeypatch):
    # A P4 that prunes every node exhausts K(1,14) over {0,1,2,3}, which
    # admits: the oracle reports that one search.
    monkeypatch.setattr(iasgl.search._State, "coverage_ok", lambda self, vi, mask: False)
    x = GroundSet.of(0, 1, 2, 3)
    assert disagreements([generate("star", 14)], [x], GATE) == [
        (0, x, SearchStatus.EXHAUSTED_NONE)
    ]


def test_every_assignment_graph_is_found():
    # The oracle's positive side: the search finds every assignment
    # graph over its own X, stars and non-stars alike.
    for n, max_element in ((3, 10), (4, 5)):
        for x in enumerate_canonical_ground_sets(n, max_element):
            graphs = [g for _, g in assignment_graphs(x.base.elements)]
            assert all(search_iasgl(g, x).found for g in graphs), x
