"""Search engine: soundness, completeness against brute force, pruning."""

import random
import time

import pytest

from iasgl.graphs import Graph, enumerate_free_trees, generate
from iasgl.labeling import GateReport, Labeling, Violation, verify_iasgl
from iasgl.realisation import build_realisation
from iasgl.search import (
    PRUNE_RULES,
    SearchConfig,
    SearchOutcome,
    SearchStats,
    SearchStatus,
    _Layout,
    _State,
    _graph_layout,
    search_iasgl,
    sweep_ground_sets,
)
from iasgl.sets import (
    GroundSet,
    IntegerSet,
    SummandMode,
    additive_type,
    classify_ground_set,
    enumerate_canonical_ground_sets,
    subset_algebra,
)

from conftest import (
    assignment_graph,
    clear_result_caches,
    count_calls,
    expand_orbits,
    labeling_to_frozensets,
    oracle_search_all,
    zero_vertex,
)


def nogate(**kw) -> SearchConfig:
    return SearchConfig(disabled_rules=frozenset({"gate"}), **kw)


# Graphs for the oracle cross-check: every valid simple graph without
# isolated vertices on <= 3 vertices, plus a spread of small families
# checked at n = 3.
CORPUS_N2 = [generate("path", 2), generate("path", 3), generate("cycle", 3)]
CORPUS_N3 = [
    generate("star", 6),
    generate("path", 5),
    generate("path", 7),
    generate("cycle", 6),
    generate("complete", 4),
    Graph.from_edges(
        ["a", "b", "c", "d", "e", "f", "g"],
        [("a", "b"), ("a", "c"), ("a", "d"), ("a", "e"), ("e", "f"), ("a", "g")],
    ),
]


def broom15(path: tuple[str, str] = ("v13", "v14")) -> Graph:
    """Hub v0 with the path v0-a-b and leaves on v1..v14 but a, b."""
    a, b = path
    leaves = [f"v{i}" for i in range(1, 15) if f"v{i}" not in path]
    return Graph.from_edges(
        [f"v{i}" for i in range(15)], [("v0", v) for v in leaves] + [("v0", a), (a, b)]
    )


# Hub v0 with leaves v1..v12 and the path v0-v13-v14: a tree with 2^4 - 2
# edges that is not a star, so no ground set of size 4 labels it.
BROOM15 = broom15()

# K(2, 7): 2^4 - 2 edges, and each side is one class of false twins.
K2_7 = Graph.from_edges(
    ["a0", "a1", *(f"b{j}" for j in range(7))],
    [(f"a{i}", f"b{j}") for i in range(2) for j in range(7)],
)


def hub_graph(seed: int, edges: int = 14, vertices: int = 15) -> Graph:
    """A seeded random graph whose low-numbered vertices are hubs: each
    edge joins the smaller of two uniform draws to a uniform vertex."""
    rng = random.Random(seed)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < edges:
        u = min(rng.randrange(vertices), rng.randrange(vertices))
        w = rng.randrange(vertices)
        if u != w:
            chosen.add((min(u, w), max(u, w)))
    ids = sorted({f"v{i}" for e in chosen for i in e})
    return Graph.from_edges(ids, [(f"v{u}", f"v{w}") for u, w in chosen])


class TestBasics:
    def test_star6_found(self, x012):
        out = search_iasgl(generate("star", 6), x012)
        assert out.status is SearchStatus.FOUND
        w = out.witnesses[0]
        assert verify_iasgl(generate("star", 6), w).passed
        assert w.label_of(zero_vertex(generate("star", 6), w)).elements == (0,)

    def test_c6_rejected(self, x012):
        out = search_iasgl(generate("cycle", 6), x012)
        assert out.status is SearchStatus.GATE_REJECTED
        assert not out.witnesses

    def test_c6_exhausted_without_gate(self, x012):
        out = search_iasgl(generate("cycle", 6), x012, nogate())
        assert out.status is SearchStatus.EXHAUSTED_NONE

    def test_k4_gate_vs_exhaustive(self):
        k4 = generate("complete", 4)
        x = GroundSet.of(0, 1, 3)
        assert search_iasgl(k4, x).status is SearchStatus.GATE_REJECTED
        assert search_iasgl(k4, x, nogate()).status is SearchStatus.EXHAUSTED_NONE

    def test_requires_zero(self):
        with pytest.raises(ValueError, match="must contain 0"):
            search_iasgl(generate("star", 2), GroundSet.of(1, 2))

    def test_budget_exceeded(self, x012):
        out = search_iasgl(generate("star", 6), x012, SearchConfig(node_budget=1))
        assert out.status is SearchStatus.BUDGET_EXCEEDED

    def test_empty_graph(self, x01):
        # Its one assignment is a leaf at depth 0: over {0} it has no
        # target to miss, over {0,1} it misses {1}.
        empty = Graph.from_edges([], [])
        out = search_iasgl(empty, GroundSet.of(0))
        assert (out.status, out.stats.nodes, out.labelings) == (SearchStatus.FOUND, 0, 1)
        assert out.witnesses[0].assignment == ()
        assert search_iasgl(empty, x01, nogate()).status is SearchStatus.EXHAUSTED_NONE

    def test_more_vertices_than_labels(self, x01):
        out = search_iasgl(generate("star", 6), x01, nogate())
        assert out.status is SearchStatus.EXHAUSTED_NONE

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(node_budget=0)
        with pytest.raises(ValueError):
            SearchConfig(disabled_rules=frozenset({"P9"}))

    def test_disabled_rules_any_iterable(self, x012):
        # A set or a list of rule names is kept as a frozenset: configs
        # compare equal, share one outcome-cache entry and one outcome.
        import iasgl.search

        configs = [
            SearchConfig(disabled_rules=rules)
            for rules in ({"gate", "twins"}, ["twins", "gate"], frozenset({"gate", "twins"}))
        ]
        assert configs[0] == configs[1] == configs[2]
        assert all(type(cfg.disabled_rules) is frozenset for cfg in configs)
        outs = [search_iasgl(generate("cycle", 6), x012, cfg) for cfg in configs]
        assert len(iasgl.search._outcomes) == 1
        assert [out.status for out in outs] == [SearchStatus.EXHAUSTED_NONE] * 3
        assert len({out.stats.nodes for out in outs}) == 1


def assert_same_labelings(labelings, expected):
    """The labelings, as plain sets, are the oracle's list up to order."""
    got = [labeling_to_frozensets(w) for w in labelings]
    key = lambda d: sorted((vid, tuple(sorted(s))) for vid, s in d.items())
    assert sorted(got, key=key) == sorted(expected, key=key)


def find_all_matching_oracle(graph, x, expected) -> SearchOutcome:
    """The gate-free find_all search of graph over X, checked against the
    oracle's list: its canonical witnesses' twin orbits, listed and
    verified, are that list, and so is the witness list of the same
    search without the twin rule, where each labeling counts once."""
    out = search_iasgl(graph, x, nogate(find_all=True))
    assert_same_labelings(expand_orbits(graph, out), expected)
    plain = search_iasgl(
        graph, x, SearchConfig(disabled_rules=frozenset({"gate", "twins"}), find_all=True)
    )
    assert plain.labelings == len(plain.witnesses)
    assert_same_labelings(plain.witnesses, expected)
    return out


class TestCompleteness:
    """find_all search equals raw enumeration over injective labelings."""

    @pytest.mark.parametrize("graph", CORPUS_N2, ids=lambda g: f"V{len(g.vertex_ids)}E{g.edge_count()}")
    def test_matches_oracle_n2(self, graph, x01):
        self._cross_check(graph, x01)

    @pytest.mark.parametrize("graph", CORPUS_N3, ids=lambda g: f"V{len(g.vertex_ids)}E{g.edge_count()}")
    def test_matches_oracle_n3(self, graph, x012):
        self._cross_check(graph, x012)

    @staticmethod
    def _cross_check(graph, x):
        expected = oracle_search_all(graph, x.base.elements)
        out = find_all_matching_oracle(graph, x, expected)
        assert out.status is not SearchStatus.BUDGET_EXCEEDED
        assert out.budget_stop is None
        if expected:
            assert out.status is SearchStatus.FOUND
        else:
            assert out.status is SearchStatus.EXHAUSTED_NONE


class TestLeafAcceptance:
    def test_realized_target_count_alone_matches_oracle(self, monkeypatch, x01, x012):
        # With the gate, P3, P4 and twins off, complete assignments whose
        # edge labels escape X, collide or miss a target reach the leaf,
        # where the realized-target count alone must reject them.
        leaves = count_calls(monkeypatch, _State, "leaf")
        cfg = SearchConfig(disabled_rules=frozenset({"gate", "P3", "P4", "twins"}), find_all=True)
        found = 0
        for graph, x in [(g, x01) for g in CORPUS_N2] + [(g, x012) for g in CORPUS_N3]:
            out = search_iasgl(graph, x, cfg)
            assert out.budget_stop is None
            assert_same_labelings(out.witnesses, oracle_search_all(graph, x.base.elements))
            found += len(out.witnesses)
        assert leaves[0] > found  # the reject branch ran

    def test_failing_leaf_is_internal_error_for_every_x_of_the_type(self, monkeypatch, capsys):
        # A leaf the count accepts goes through the one mapping step: if
        # the checker disagrees with the kernel, the search raises rather
        # than report a false "exhausted-none", and nothing is kept.
        import iasgl.labeling
        from iasgl.cli import EXIT_INTERNAL_ERROR, main

        rejected = GateReport((Violation("injected", "injected rejection"),))
        monkeypatch.setattr(iasgl.labeling, "verify_iasgl", lambda g, f: rejected)
        star = generate("star", 6)
        # {0,2,4} has {0,1,2}'s additive type.
        for x in (GroundSet.of(0, 1, 2), GroundSet.of(0, 2, 4)):
            with pytest.raises(RuntimeError, match="failed re-verification: injected rejection"):
                search_iasgl(star, x)
        for ground_set in ("0,1,2", "sweep:n=3,max=6"):
            code = main(["search", "--graph", "star:6", "--ground-set", ground_set])
            assert code == EXIT_INTERNAL_ERROR
            err = capsys.readouterr().err
            assert "Traceback" in err and "RuntimeError: mapped witness over {0,1,2}" in err


class TestPruneSafety:
    """Disabling any single rule changes node counts, never the verdict."""

    @pytest.mark.parametrize("rule", sorted(set(PRUNE_RULES) - {"gate"}))
    def test_single_rule_off(self, rule, x01, x012):
        corpus = [(g, x01) for g in CORPUS_N2] + [(g, x012) for g in CORPUS_N3]
        for graph, x in corpus:
            base = search_iasgl(graph, x, nogate(find_all=True))
            relaxed = search_iasgl(
                graph,
                x,
                SearchConfig(disabled_rules=frozenset({"gate", rule}), find_all=True),
            )
            assert base.status is relaxed.status
            if rule == "twins":
                # The twin rule lists one witness per orbit; the orbits,
                # listed, are every labeling the relaxed search finds.
                assert relaxed.labelings == len(relaxed.witnesses)
                assert expand_orbits(graph, base) == relaxed.witnesses
            else:
                assert base.witnesses == relaxed.witnesses
                assert base.labelings == relaxed.labelings


class TestTwins:
    def test_twin_rule_prunes_and_keeps_verdict(self, x0123):
        # Every vertex of K(2, 7) has twins, so the twin rule, not the
        # vertex order, decides how often each side is labelled.
        base = search_iasgl(K2_7, x0123, nogate())
        relaxed = search_iasgl(
            K2_7, x0123, SearchConfig(disabled_rules=frozenset({"gate", "twins"}))
        )
        assert base.status is relaxed.status
        assert base.stats.nodes < relaxed.stats.nodes

    def test_find_all_counts_twin_orbits(self, x0123):
        # Every labeling of star:14 over {0,1,2,3} is a permutation of
        # one canonical witness over the 14 twin leaves: the search lists
        # that witness and counts the 14! labelings, at the default
        # budgets, with the DFS run to its end.
        star = generate("star", 14)
        out = search_iasgl(star, x0123, SearchConfig(find_all=True))
        assert out.status is SearchStatus.FOUND
        assert len(out.witnesses) == 1
        assert verify_iasgl(star, out.witnesses[0])
        assert out.labelings == 87_178_291_200
        assert out.budget_stop is None
        assert out.stats.nodes == 16_422


def full_coverage_ok(state, vi, mask):
    """Reference P4: a full rescan of every unrealized target.

    Everything but the kernel's tables is derived here from the graph
    and ``state.assigned`` (label masks by DFS index): the labelled
    vertices, the placed edges and their labels, and which labelled
    vertices keep an unlabelled neighbour. None of the DFS's own counts
    is read."""
    g = state.g
    label = {v: m for v, m in zip(state.order, state.assigned) if m is not None}
    owner = {m: v for v, m in label.items()}
    placed = [(u, w) for u, w in g.edges if u in label and w in label]
    realized = {state.pair_sums[label[u]].get(label[w]) for u, w in placed}
    unrealized = [t for t in state.targets if t not in realized]
    if len(unrealized) > len(g.edges) - len(placed):
        return False
    unassigned = len(g.vertex_ids) - len(label)
    for t in unrealized:
        viable = False
        for a, b in state.pairs_by_target[t]:
            va, vb = owner.get(a), owner.get(b)
            if va is None and vb is None:
                viable = unassigned >= 2
            elif va is None or vb is None:
                v = vb if va is None else va
                viable = any(w not in label for w in g.neighbors(v))
            if viable:
                break
        if not viable:
            return False
    return True


class TestIncrementalCoverage:
    """P4's incremental recheck gives the verdicts of a full rescan."""

    @pytest.mark.parametrize("rule", PRUNE_RULES)
    @pytest.mark.parametrize("find_all", [False, True])
    def test_matches_full_rescan(self, rule, find_all, monkeypatch, x012, x0123):
        # hub_graph(264) takes 1,668 nodes over {0,1,2,3} with every
        # rule on: the corpus's deepest search.
        corpus = [
            (CORPUS_N3[0], x012),
            (CORPUS_N3[-1], x012),
            (BROOM15, x0123),
            (hub_graph(264), x0123),
        ]
        cfg = SearchConfig(
            disabled_rules=frozenset({"gate", rule}), find_all=find_all, node_budget=120_000
        )
        incremental = [search_iasgl(g, x, cfg) for g, x in corpus]
        compared = 0

        def counted(state, vi, mask):
            nonlocal compared
            compared += 1
            return full_coverage_ok(state, vi, mask)

        monkeypatch.setattr(_State, "coverage_ok", counted)
        clear_result_caches()
        for (g, x), inc in zip(corpus, incremental):
            full = search_iasgl(g, x, cfg)
            assert inc.status is full.status
            assert inc.witnesses == full.witnesses
            assert inc.stats.nodes == full.stats.nodes
            assert inc.stats.prunes == full.stats.prunes
        # A corpus that got cheap would compare too few P4 verdicts.
        if rule == "P4":
            assert compared == 0
        else:
            assert compared >= 1_000

    @pytest.mark.parametrize("rule", sorted(set(PRUNE_RULES) - {"P4"}))
    def test_every_node_matches_full_rescan(self, rule, monkeypatch, x012, x0123):
        # BROOM15 (a 13-leaf hub) and assignment_graph's seed-0 graph
        # over {0..5} (164 nodes, 20 P4 prunes with every rule on) make
        # P4 fire well before the last vertex, so the depth-read counts
        # are compared where they decide a verdict.
        x6 = GroundSet.of(*range(6))
        corpus = [(tree, x012) for tree in enumerate_free_trees(7)] + [
            (BROOM15, x0123),
            (assignment_graph(x6, 0), x6),
        ]
        incremental = _State.coverage_ok
        verdicts = []

        def compare(state, vi, mask):
            verdict = incremental(state, vi, mask)
            assert verdict == full_coverage_ok(state, vi, mask)
            verdicts.append((state.g, verdict))
            return verdict

        monkeypatch.setattr(_State, "coverage_ok", compare)
        cfg = SearchConfig(disabled_rules=frozenset({"gate", rule}))
        for g, x in corpus:
            search_iasgl(g, x, cfg)
        for g, _ in corpus[-2:]:
            assert (g, False) in verdicts and (g, True) in verdicts

    def test_unassigned_count_decides_at_the_last_but_one_vertex(self, monkeypatch, x012):
        # With P1, P2, P3 and the twin rule off, this graph's DFS reaches
        # depth nv - 2 with {0}, {2}, {1,2}, {0,2}, {0,1,2} placed: {1,2}
        # is missing, ({0}, {1,2}) is dead (v0 and v5 are not adjacent),
        # and its other pair, {1} + {0,1}, needs two more vertices where
        # one is left. Only the unassigned count makes P4 prune here.
        g = Graph.from_edges(
            [f"v{i}" for i in range(6)],
            [("v0", "v1"), ("v0", "v2"), ("v0", "v3"), ("v0", "v4"), ("v1", "v2"),
             ("v1", "v3"), ("v1", "v4"), ("v2", "v5"), ("v3", "v5"), ("v4", "v5")],
        )
        incremental = _State.coverage_ok
        verdicts = []

        def compare(state, vi, mask):
            verdict = incremental(state, vi, mask)
            assert verdict == full_coverage_ok(state, vi, mask)
            verdicts.append((vi, tuple(state.assigned), verdict))
            return verdict

        monkeypatch.setattr(_State, "coverage_ok", compare)
        rules = frozenset({"gate", "P1", "P2", "P3", "twins"})
        search_iasgl(g, x012, SearchConfig(disabled_rules=rules))
        assert (4, (1, 4, 6, 5, 7, None), False) in verdicts

    def test_broom15_counts(self, x0123):
        out = search_iasgl(BROOM15, x0123, nogate())
        assert out.status is SearchStatus.EXHAUSTED_NONE
        # Both parts of P2 live in the candidate lists: no P2 prunes.
        assert out.stats.nodes == 145
        assert out.stats.prunes == {"P3": 50, "P4": 64}


#: Status, nodes and prunes of every ground set of the broom sweep
#: (|X| = 4, max 5). A change that only makes nodes cheaper keeps them.
BROOM15_SWEEP = {
    (0, 1, 2, 3): ("exhausted-none", 145, {"P3": 50, "P4": 64}),
    (0, 1, 2, 4): ("exhausted-none", 41, {"P3": 24, "P4": 4}),
    (0, 1, 2, 5): ("exhausted-none", 9, {"P4": 2}),
    (0, 1, 3, 4): ("exhausted-none", 49, {"P3": 16, "P4": 16}),
    (0, 1, 3, 5): ("gate-rejected", 0, {"gate": 1}),
    (0, 1, 4, 5): ("exhausted-none", 49, {"P3": 16, "P4": 16}),
    (0, 2, 3, 4): ("exhausted-none", 9, {"P4": 2}),
    (0, 2, 3, 5): ("exhausted-none", 49, {"P3": 16, "P4": 16}),
    (0, 2, 4, 5): ("exhausted-none", 9, {"P4": 2}),
    (0, 3, 4, 5): ("gate-rejected", 0, {"gate": 1}),
}


def id_order_layout(g: Graph) -> _Layout:
    """The DFS layout under the plain (-degree, id) vertex order, without
    twin-class sizes in the key; every rule holds under it as well."""
    order = tuple(sorted(g.vertex_ids, key=lambda v: (-g.degree(v), v)))
    index = {v: i for i, v in enumerate(order)}
    neighbors = tuple(tuple(index[w] for w in g.neighbors(v)) for v in order)
    false_twins: dict[frozenset[int], list[int]] = {}
    true_twins: dict[frozenset[int], list[int]] = {}
    for v, nbrs in enumerate(neighbors):
        false_twins.setdefault(frozenset(nbrs), []).append(v)
        true_twins.setdefault(frozenset(nbrs) | {v}, []).append(v)
    twin_classes = tuple(
        tuple(members)
        for kind in (false_twins, true_twins)
        for members in kind.values()
        if len(members) > 1
    )
    twin_prev: list[int | None] = [None] * len(order)
    for members in twin_classes:
        for prev, v in zip(members, members[1:]):
            twin_prev[v] = prev
    return _Layout(
        order=order,
        neighbors=neighbors,
        earlier=tuple(tuple(w for w in nbrs if w < i) for i, nbrs in enumerate(neighbors)),
        twin_classes=twin_classes,
        twin_prev=tuple(twin_prev),
    )


def two_pass_layout(g: Graph) -> _Layout:
    """The twin-aware layout as first written: twin classes found on a
    provisional (-degree, id) numbering, then stable-sorted by class
    size and renumbered. The one-sort layout must equal it."""
    order = tuple(sorted(g.vertex_ids, key=lambda v: (-g.degree(v), v)))
    index = {v: i for i, v in enumerate(order)}
    neighbors = tuple(tuple(index[w] for w in g.neighbors(v)) for v in order)
    degree = tuple(map(len, neighbors))
    false_twins: dict[frozenset[int], list[int]] = {}
    true_twins: dict[frozenset[int], list[int]] = {}
    for v, nbrs in enumerate(neighbors):
        key = frozenset(nbrs)
        false_twins.setdefault(key, []).append(v)
        true_twins.setdefault(key | {v}, []).append(v)
    classes = [
        members
        for kind in (false_twins, true_twins)
        for members in kind.values()
        if len(members) > 1
    ]
    nv = len(order)
    size = [1] * nv
    for members in classes:
        for v in members:
            size[v] = len(members)
    if any(d0 == d1 and s0 > s1 for d0, d1, s0, s1 in zip(degree, degree[1:], size, size[1:])):
        perm = sorted(range(nv), key=lambda i: (-degree[i], size[i]))
        rank = [0] * nv
        for i, old in enumerate(perm):
            rank[old] = i
        order = tuple(order[old] for old in perm)
        neighbors = tuple(tuple(rank[w] for w in neighbors[old]) for old in perm)
        classes = [[rank[v] for v in members] for members in classes]
    twin_classes = tuple(map(tuple, classes))
    twin_prev: list[int | None] = [None] * nv
    for members in twin_classes:
        for prev, v in zip(members, members[1:]):
            twin_prev[v] = prev
    return _Layout(
        order=order,
        neighbors=neighbors,
        earlier=tuple(tuple(w for w in nbrs if w < i) for i, nbrs in enumerate(neighbors)),
        twin_classes=twin_classes,
        twin_prev=tuple(twin_prev),
    )


def dense_graph(seed: int, vertices: int = 9, p: float = 0.6) -> Graph:
    """A seeded G(n, p) graph, its isolated vertices dropped: dense, so
    it has true twins as well as false ones."""
    rng = random.Random(seed)
    edges = [
        (f"v{u}", f"v{w}")
        for u in range(vertices)
        for w in range(u + 1, vertices)
        if rng.random() < p
    ]
    return Graph.from_edges(sorted({v for e in edges for v in e}), edges)


class TestVertexOrder:
    """The DFS vertex order moves node and prune counts only: statuses
    and find_all witness lists equal those of the (-degree, id) order."""

    @staticmethod
    def corpus() -> list[tuple[Graph, GroundSet]]:
        x012, x0123 = GroundSet.of(0, 1, 2), GroundSet.of(0, 1, 2, 3)
        one_per_type = {}
        for x in enumerate_canonical_ground_sets(4, 6):
            one_per_type.setdefault(additive_type(x), x)
        assert len(one_per_type) == 7
        return [
            *((g, x012) for g in CORPUS_N3 + enumerate_free_trees(7)),
            *((BROOM15, x) for x in enumerate_canonical_ground_sets(4, 5)),
            *((hub_graph(seed), x) for seed in range(20) for x in one_per_type.values()),
            # Labelled graphs whose twin-aware order differs from the
            # (-degree, id) one, so the reordering meets witnesses.
            *((assignment_graph(x0123, seed), x0123) for seed in (1, 6)),
        ]

    def test_one_sort_matches_two_pass_layout(self):
        graphs = [g for g, _ in self.corpus()] + [
            generate("star", 510),
            generate("complete", 4),
            *(hub_graph(seed, edges=20, vertices=12) for seed in range(50)),
            *(dense_graph(seed) for seed in range(50)),
        ]
        for g in graphs:
            ours, ref = _graph_layout(g), two_pass_layout(g)
            assert ours.order == ref.order, g.sorted_edges()
            assert ours.neighbors == ref.neighbors
            assert ours.earlier == ref.earlier
            assert ours.twin_prev == ref.twin_prev
            # Only the list order of the classes may differ.
            assert set(ours.twin_classes) == set(ref.twin_classes)
            assert len(ours.twin_classes) == len(ref.twin_classes)

    def test_matches_id_order(self, monkeypatch):
        import iasgl.search

        corpus = self.corpus()
        cfg = nogate(find_all=True, node_budget=200_000)
        ours = [search_iasgl(g, x, cfg) for g, x in corpus]
        reordered = [_graph_layout(g).order != id_order_layout(g).order for g, _ in corpus]
        monkeypatch.setattr(iasgl.search, "_graph_layout", id_order_layout)
        clear_result_caches()
        moved = reordered_found = 0
        for (g, x), out, other_order in zip(corpus, ours, reordered):
            ref = search_iasgl(g, x, cfg)
            assert out.status is ref.status, (g.sorted_edges(), x)
            assert out.budget_stop is ref.budget_stop is None
            assert out.witnesses == ref.witnesses, (g.sorted_edges(), x)
            moved += out.stats.nodes != ref.stats.nodes
            reordered_found += other_order and out.found
        assert moved > 0 and reordered_found == 2


class TestPinnedCounts:
    """Counters pinned across changes to the DFS's cost per node or its
    control flow: each was measured before such a change, and the DFS
    must reproduce it exactly."""

    def test_broom15_sweep(self):
        # The path's first vertex is the hub's one neighbour without a
        # twin, so it is decided right after the hub, whatever its id.
        for path in [("v13", "v14"), ("v1", "v2"), ("v7", "v3")]:
            got = {
                x.base.elements: (out.status.value, out.stats.nodes, out.stats.prunes)
                for x, out in sweep_ground_sets(broom15(path), 4, 5).items()
            }
            assert got == BROOM15_SWEEP, path

    def test_builder_graph_n7(self):
        x = GroundSet.of(*range(7))
        out = search_iasgl(build_realisation(x).graph, x)
        assert (out.status, out.stats.nodes, out.stats.prunes, out.budget_stop) == (
            SearchStatus.FOUND, 147_652, {"P3": 135_499}, None
        )

    @pytest.mark.parametrize(
        "seed, nodes, prunes",
        [
            (0, 164, {"P3": 94, "P4": 20}),
            (1, 23_695, {"P3": 20_719, "P4": 50}),
            (2, 4_370, {"P3": 3_926, "P4": 147}),
            (3, 197_663, {"P3": 187_568, "P4": 696}),
        ],
    )
    def test_assignment_graph_n6(self, seed, nodes, prunes):
        x = GroundSet.of(*range(6))
        out = search_iasgl(assignment_graph(x, seed), x)
        assert (out.status, out.stats.nodes, out.stats.prunes, out.budget_stop) == (
            SearchStatus.FOUND, nodes, prunes, None
        )

    @pytest.mark.parametrize("n", [9, 10])
    def test_star_theorem_nodes(self, n):
        # One node per vertex: the hub takes {0}, and each leaf's scan
        # starts past its twin predecessor's label, at a free label.
        out = search_iasgl(generate("star", (1 << n) - 2), GroundSet.of(*range(n)))
        assert out.status is SearchStatus.FOUND
        assert out.stats.nodes == (1 << n) - 1


class TestCandidateLists:
    @pytest.mark.parametrize("off", [(), ("P1",), ("P2",), ("P1", "P2")])
    def test_strictly_ascending(self, off, x01, x012, x0123):
        # The twin cursor bisects these lists.
        corpus = [(g, x012) for g in CORPUS_N3] + [
            (BROOM15, x0123),
            (generate("star", 14), x0123),
            (generate("path", 3), x01),
            (generate("star", 30), GroundSet.of(0, 1, 2, 4, 7)),
        ]
        cfg = SearchConfig(disabled_rules=frozenset(off))
        for g, x in corpus:
            state = _State(g, x, cfg, SearchStats(), float("inf"))
            lists = [*state.candidates, *(s for s in state.summand_only if s is not None)]
            assert lists
            for labels in lists:
                assert all(a < b for a, b in zip(labels, labels[1:])), (g, x)


class TestDeadline:
    def test_set_up_counts_against_time_budget(self, monkeypatch, x0123):
        # The clock starts on entry and is read once set-up ends, so slow
        # set-up stops the search before its first node.
        import iasgl.search

        kernel = iasgl.search.subset_algebra

        def slow_kernel(*args):
            time.sleep(0.03)
            return kernel(*args)

        monkeypatch.setattr(iasgl.search, "subset_algebra", slow_kernel)
        out = search_iasgl(BROOM15, x0123, nogate(time_budget_ms=20))
        assert out.status is SearchStatus.BUDGET_EXCEEDED
        assert out.stats.nodes == 0
        assert out.budget_stop == "time"

    def test_budget_spent_in_gate_stops_before_set_up(self, monkeypatch, x0123):
        import iasgl.search

        gate = iasgl.search.structural_gate

        def slow_gate(*args):
            time.sleep(0.03)
            return gate(*args)

        def no_state(*args, **kwargs):
            raise AssertionError("set-up ran after the budget was spent")

        monkeypatch.setattr(iasgl.search, "structural_gate", slow_gate)
        monkeypatch.setattr(_State, "__init__", no_state)
        out = search_iasgl(generate("star", 14), x0123, SearchConfig(time_budget_ms=20))
        assert (out.status, out.stats.nodes, out.budget_stop) == (
            SearchStatus.BUDGET_EXCEEDED, 0, "time"
        )

    def test_leaf_verification_spends_the_time_budget(self, x0123):
        # Without the twin rule every one of K(1,14)'s 14! labelings is a
        # leaf that is mapped and verified inside the DFS, so the time
        # budget, not the number of leaves, ends the search.
        cfg = SearchConfig(
            disabled_rules=frozenset({"twins"}), find_all=True, time_budget_ms=500
        )
        start = time.process_time()
        out = search_iasgl(generate("star", 14), x0123, cfg)
        assert out.budget_stop == "time"
        assert out.status is SearchStatus.FOUND
        assert time.process_time() - start < 1.5

    def test_node_budget_stop_is_named(self, x0123):
        out = search_iasgl(BROOM15, x0123, nogate(node_budget=10))
        assert (out.status, out.budget_stop) == (SearchStatus.BUDGET_EXCEEDED, "node")
        full = search_iasgl(BROOM15, x0123, nogate())
        assert (full.status, full.budget_stop) == (SearchStatus.EXHAUSTED_NONE, None)


METAMORPHIC_CASES = [(g, (0, 1, 2)) for g in CORPUS_N3] + [
    (BROOM15, (0, 1, 2, 3)),
    (generate("star", 14), (0, 1, 2, 3)),
]


def _case_id(case) -> str:
    g, x = case
    return f"V{len(g.vertex_ids)}E{g.edge_count()}-n{len(x)}"


class TestMetamorphic:
    """Transformations that cannot change a verdict."""

    @pytest.mark.parametrize("case", METAMORPHIC_CASES, ids=_case_id)
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("gate", [True, False])
    def test_scaled_ground_set(self, case, k, gate):
        # k·X has the same subset masks and pair table as X, so the
        # search runs the same tree and its witnesses scale.
        g, elements = case
        x = GroundSet.of(*elements)
        kx = GroundSet.of(*(k * e for e in elements))
        cfg = SearchConfig() if gate else nogate()
        base = search_iasgl(g, x, cfg)
        clear_result_caches()  # the DFS over k·X, not base's outcome mapped
        scaled = search_iasgl(g, kx, cfg)
        assert scaled.status is base.status
        assert scaled.stats.nodes == base.stats.nodes
        assert scaled.stats.prunes == base.stats.prunes
        expected = [
            Labeling.from_mapping(
                kx, {v: IntegerSet.from_iterable(k * e for e in s) for v, s in w.assignment}
            )
            for w in base.witnesses
        ]
        for w in expected:
            assert verify_iasgl(g, w)
        assert scaled.witnesses == expected

    @pytest.mark.parametrize("case", METAMORPHIC_CASES, ids=_case_id)
    def test_relabeled_vertices(self, case):
        # Reversed names reverse the tie-break of the vertex order.
        g, elements = case
        x = GroundSet.of(*elements)
        ids = sorted(g.vertex_ids)
        rename = dict(zip(ids, (f"r{i:02d}" for i in reversed(range(len(ids))))))
        h = Graph.from_edges(rename.values(), [(rename[u], rename[v]) for u, v in g.edges])
        base, relabeled = search_iasgl(g, x, nogate()), search_iasgl(h, x, nogate())
        assert relabeled.status is base.status
        for w in relabeled.witnesses:
            assert verify_iasgl(h, w)


class TestRandomizedDifferential:
    """Seeded random graphs, search versus raw enumeration.

    Pure random 6-edge graphs rarely admit, so half the corpus is
    hub-biased (a high-degree vertex with spokes plus outer edges),
    which produces genuinely admitting non-star shapes.
    """

    def test_random_graphs_match_oracle(self, x012):
        import random

        rng = random.Random(20240818)
        ids7 = [f"v{i}" for i in range(7)]

        def fully_random():
            while True:
                nv = rng.choice([5, 6, 7])
                ids = ids7[:nv]
                pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
                edges = rng.sample(pairs, 6)
                if {v for e in edges for v in e} == set(ids):
                    return Graph.from_edges(ids, edges)

        def hub_biased():
            while True:
                nv = rng.choice([6, 7])
                ids = ids7[:nv]
                hub, others = ids[0], ids[1:]
                spokes = rng.randint(4, min(6, nv - 1))
                edges = {(hub, w) for w in rng.sample(others, spokes)}
                pairs = [(a, b) for i, a in enumerate(others) for b in others[i + 1:]]
                while len(edges) < 6 and pairs:
                    e = rng.choice(pairs)
                    pairs.remove(e)
                    edges.add(e)
                if len(edges) == 6 and {v for e in edges for v in e} == set(ids):
                    return Graph.from_edges(ids, edges)

        corpus = [fully_random() for _ in range(15)] + [hub_biased() for _ in range(15)]
        admitting = 0
        for graph in corpus:
            expected = oracle_search_all(graph, (0, 1, 2))
            find_all_matching_oracle(graph, x012, expected)
            admitting += bool(expected)
        assert admitting >= 5  # the biased half must exercise the Found path


class TestDeterminism:
    def test_identical_runs(self, x012):
        a = search_iasgl(generate("star", 6), x012, SearchConfig(find_all=True))
        clear_result_caches()
        b = search_iasgl(generate("star", 6), x012, SearchConfig(find_all=True))
        assert a.status is b.status
        assert a.witnesses == b.witnesses
        assert a.stats.to_obj() == b.stats.to_obj()


class TestSweep:
    def test_star_found_everywhere(self):
        outcomes = sweep_ground_sets(generate("star", 6), 3, 4)
        assert len(outcomes) == 5
        assert all(o.status is SearchStatus.FOUND for o in outcomes.values())

    def test_c6_never_found(self):
        outcomes = sweep_ground_sets(generate("cycle", 6), 3, 6)
        assert outcomes and all(not o.found for o in outcomes.values())

    def test_p7_never_found(self):
        outcomes = sweep_ground_sets(generate("path", 7), 3, 6)
        assert outcomes and all(not o.found for o in outcomes.values())

    def test_keys_sorted_canonical(self):
        outcomes = sweep_ground_sets(generate("star", 6), 3, 5)
        keys = list(outcomes)
        assert keys == sorted(keys)

    def test_empty_family(self):
        with pytest.raises(ValueError, match="empty ground-set family"):
            sweep_ground_sets(generate("star", 2), 5, 3)

    def test_cold_and_warm_kernel_cache_agree(self):
        import json

        from iasgl.io import labeling_to_obj

        def snapshot():
            outcomes = sweep_ground_sets(generate("star", 6), 3, 6)
            return json.dumps(
                {
                    str(x): {
                        "status": o.status.value,
                        "witnesses": [labeling_to_obj(w) for w in o.witnesses],
                        "stats": o.stats.to_obj(),
                    }
                    for x, o in outcomes.items()
                },
                sort_keys=True,
            )

        subset_algebra.cache_clear()
        cold = snapshot()
        clear_result_caches()  # searched again, over the warm kernel cache
        warm = snapshot()
        assert cold == warm


class TestSharedSetUp:
    """X-only and graph-only set-up is built once and shared read-only."""

    def test_searches_share_cached_tables(self, monkeypatch, x0123):
        states = []
        init = _State.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            states.append(self)

        monkeypatch.setattr(_State, "__init__", recording_init)
        x0124 = GroundSet.of(0, 1, 2, 4)
        search_iasgl(BROOM15, x0123, nogate())
        search_iasgl(generate("star", 14), x0123, nogate())
        search_iasgl(BROOM15, x0124, nogate())
        broom, star, broom_again = states
        kernel = subset_algebra(additive_type(x0123))
        assert broom.pair_sums is star.pair_sums is kernel.pair_sums
        assert broom_again.pair_sums is subset_algebra(additive_type(x0124)).pair_sums
        assert broom.earlier is broom_again.earlier
        assert broom.twin_prev is broom_again.twin_prev

    def test_ground_sets_of_one_type_share_the_kernel(self, x0123):
        # {0,2,4,6} = 2·{0,1,2,3}: the second search builds no kernel.
        subset_algebra.cache_clear()
        first = search_iasgl(BROOM15, x0123, nogate())
        misses = subset_algebra.cache_info().misses
        clear_result_caches()  # so the second search runs its own DFS
        second = search_iasgl(BROOM15, GroundSet.of(0, 2, 4, 6), nogate())
        assert subset_algebra.cache_info().misses == misses
        assert second.stats.to_obj() == first.stats.to_obj()

    def test_warm_sweeps_match_fresh_searches(self):
        star6 = generate("star", 6)
        cases = [
            (BROOM15, 4, 5, nogate()),
            (star6, 3, 6, SearchConfig(find_all=True)),
            (star6, 3, 6, SearchConfig(find_all=True, disabled_rules=frozenset({"twins"}))),
        ]
        warm = [sweep_ground_sets(g, n, m, cfg) for g, n, m, cfg in cases]
        for (g, _, _, cfg), outcomes in zip(cases, warm):
            for x, out in outcomes.items():
                _graph_layout.cache_clear()
                subset_algebra.cache_clear()
                clear_result_caches()
                fresh = search_iasgl(g, x, cfg)
                assert out.status is fresh.status
                assert out.witnesses == fresh.witnesses
                assert out.stats.to_obj() == fresh.stats.to_obj()
        assert sum(o.stats.nodes for o in warm[0].values()) == 360


class TestTreeFamily:
    def test_only_star_admits_on_7_vertices(self):
        trees = enumerate_free_trees(7)
        stars = [t for t in trees if max(t.degree(v) for v in t.vertex_ids) == 6]
        assert len(stars) == 1
        x = GroundSet.of(0, 1, 2)
        for tree in trees:
            out = search_iasgl(tree, x, nogate())
            if tree in stars:
                assert out.status is SearchStatus.FOUND
            else:
                assert out.status is SearchStatus.EXHAUSTED_NONE


#: (graph, n, gate): the stars K(1, 2^n - 2) and the broom with the gate
#: on, and the n = 3 graphs with it off, so their searches reach the DFS.
MEMO_CORPUS = [(generate("star", (1 << n) - 2), n, True) for n in (3, 4, 5)] + [
    (BROOM15, 4, True),
    *((g, 3, False) for g in (generate("cycle", 6), generate("complete", 4), generate("path", 7))),
    *((tree, 3, False) for tree in enumerate_free_trees(7)),
]


class TestTypeMemo:
    """``search_iasgl`` and ``build_realisation`` decide each additive
    type once; every X gets what a cold call of its own would give."""

    @pytest.mark.parametrize("twins", [True, False], ids=["twins", "no-twins"])
    @pytest.mark.parametrize("find_all", [False, True], ids=["first", "find-all"])
    def test_sweeps_match_fresh_searches(self, find_all, twins):
        for g, n, gate in MEMO_CORPUS:
            rules = {rule for rule, on in (("gate", gate), ("twins", twins)) if not on}
            # find_all on a star at n >= 4 finds its witness in 2^n - 1
            # nodes, but its DFS needs far more to end (16,422 at n = 4):
            # those searches stop on the node budget, and are not kept.
            budget = 40 if find_all and n > 3 else 4_000
            cfg = SearchConfig(node_budget=budget, find_all=find_all, disabled_rules=frozenset(rules))
            swept = sweep_ground_sets(g, n, 10, cfg)
            assert list(swept) == enumerate_canonical_ground_sets(n, 10)
            # Far fewer additive types than ground sets: most X are mapped.
            assert 3 * len({additive_type(x) for x in swept}) < len(swept)
            for x, out in swept.items():
                clear_result_caches()
                fresh = search_iasgl(g, x, cfg)
                assert out.status is fresh.status
                assert out.witnesses == fresh.witnesses
                assert out.stats.to_obj() == fresh.stats.to_obj()
                assert out.budget_stop == fresh.budget_stop
                assert out.labelings == fresh.labelings
                if not twins:
                    assert out.labelings == len(out.witnesses)

    def test_realisations_and_classifications_match_direct_calls(self):
        import iasgl.realisation

        family = [x for n in (3, 4, 5) for x in enumerate_canonical_ground_sets(n, 10)]
        # Type by type, so that each type's realisations stay cached
        # until its last ground set.
        warm = {x: build_realisation(x) for x in sorted(family, key=additive_type)}
        # 345 ground sets of 2 + 7 + 37 additive types, one build each.
        assert len(family) == 345
        assert iasgl.realisation._build.cache_info().misses == 46
        for x, built in warm.items():
            clear_result_caches()
            assert build_realisation(x) == built
        # Each classification through the kernel its type shares, against
        # a cold call.
        shared = {(x, mode): classify_ground_set(x, mode) for x in family for mode in SummandMode}
        for (x, mode), cls in shared.items():
            subset_algebra.cache_clear()
            assert classify_ground_set(x, mode) == cls

    def test_additive_type_keys(self):
        assert additive_type(GroundSet.of(0, 1, 2, 3)) == additive_type(GroundSet.of(0, 2, 4, 6))
        assert additive_type(GroundSet.of(0, 1, 2, 3)) != additive_type(GroundSet.of(0, 1, 2, 4))
        assert additive_type(GroundSet.of(0, 1, 3)) == (3, ((0, 0, 0), (0, 1, 1), (0, 2, 2)))

    def test_broom_sweep_decides_each_type_once(self, monkeypatch):
        import iasgl.search

        decided = count_calls(monkeypatch, iasgl.search, "_decide")
        outcomes = sweep_ground_sets(BROOM15, 4, 5)
        assert len(outcomes) == 10
        assert decided[0] == len({additive_type(x) for x in outcomes}) == 6

    def test_eviction_keeps_results(self, monkeypatch):
        import iasgl.search

        star6 = generate("star", 6)
        cases = [(BROOM15, 4, 5, SearchConfig()), (star6, 3, 6, SearchConfig(find_all=True))]
        search = iasgl.search.search_iasgl

        def bounded(*args):
            out = search(*args)
            assert len(iasgl.search._outcomes) <= 2
            return out

        monkeypatch.setattr(iasgl.search, "SEARCH_CACHE_SIZE", 2)
        monkeypatch.setattr(iasgl.search, "search_iasgl", bounded)
        decided = count_calls(monkeypatch, iasgl.search, "_decide")
        swept = [sweep_ground_sets(g, n, m, cfg) for g, n, m, cfg in cases]
        # 6 + 2 types; two entries cannot hold them all, so some are
        # decided again after being evicted.
        assert decided[0] > 8
        for (g, _, _, cfg), outcomes in zip(cases, swept):
            for x, out in outcomes.items():
                clear_result_caches()
                fresh = search(g, x, cfg)
                assert out.status is fresh.status
                assert out.witnesses == fresh.witnesses
                assert out.stats.to_obj() == fresh.stats.to_obj()

    def test_time_budget_stop_is_not_kept(self, monkeypatch, x0123):
        import iasgl.search

        kernel = iasgl.search.subset_algebra

        def slow_kernel(*args):
            time.sleep(0.05)
            return kernel(*args)

        def no_kernel(*args):
            raise AssertionError("a kept outcome was decided again")

        star = generate("star", 14)
        x0246 = GroundSet.of(0, 2, 4, 6)
        cfg = SearchConfig(time_budget_ms=40)
        monkeypatch.setattr(iasgl.search, "subset_algebra", slow_kernel)
        # x0246 has x0123's type: it is stopped too, so the first stop
        # was not kept.
        for x in (x0123, x0246):
            assert search_iasgl(star, x, cfg).budget_stop == "time"
        monkeypatch.undo()
        found = search_iasgl(star, x0123, cfg)
        assert (found.status, found.budget_stop) == (SearchStatus.FOUND, None)
        # A finished outcome is kept: x0246 gets it without a kernel.
        monkeypatch.setattr(iasgl.search, "subset_algebra", no_kernel)
        mapped = search_iasgl(star, x0246, cfg)
        assert (mapped.status, mapped.budget_stop) == (SearchStatus.FOUND, None)
        monkeypatch.undo()
        clear_result_caches()
        assert mapped.witnesses == search_iasgl(star, x0246, cfg).witnesses

    def test_mapped_witness_failing_verification_is_internal_error(self, monkeypatch, capsys):
        # The search's kept outcomes and the realisation builder map their
        # per-type label masks onto X through one step, which raises.
        import iasgl.realisation
        import iasgl.search
        from iasgl.cli import EXIT_INTERNAL_ERROR, main

        real = iasgl.search._decide

        def swapped(g, x, cfg):
            # The real witness's masks with v0's and v1's swapped: a
            # well-formed labeling that is not graceful, kept for the type.
            status, [(f, masks), *rest], stats, budget_stop = real(g, x, cfg)
            masks = (masks[1], masks[0], *masks[2:])
            return status, [(f, masks), *rest], stats, budget_stop

        monkeypatch.setattr(iasgl.search, "_decide", swapped)
        with pytest.raises(RuntimeError, match="mapped witness over .* failed re-verification"):
            sweep_ground_sets(generate("star", 6), 3, 6)
        code = main(["search", "--graph", "star:6", "--ground-set", "sweep:n=3,max=6"])
        assert code == EXIT_INTERNAL_ERROR
        assert "RuntimeError: mapped witness" in capsys.readouterr().err

        build = iasgl.realisation._build

        def corrupted(key):
            # The built realisation with one label, the hub's {0},
            # replaced by the whole ground set.
            graph, (_, *masks) = build(key)
            assert graph.vertex_ids[0] == "v0"
            return graph, ((1 << key[0]) - 1, *masks)

        monkeypatch.setattr(iasgl.realisation, "_build", corrupted)
        with pytest.raises(RuntimeError, match="mapped witness over .* failed re-verification"):
            build_realisation(GroundSet.of(0, 1, 2, 3))
        assert main(["construct", "--ground-set", "0,1,2,3"]) == EXIT_INTERNAL_ERROR
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: mapped witness over {0,1,2,3}" in err
