"""Search engine: soundness, completeness against brute force, pruning."""

import time

import pytest

from iasgl.graphs import Graph, enumerate_free_trees, generate
from iasgl.labeling import verify_iasgl, zero_vertex
from iasgl.search import (
    PRUNE_RULES,
    SearchConfig,
    SearchStatus,
    search_iasgl,
    sweep_ground_sets,
)
from iasgl.sets import GroundSet

from conftest import labeling_to_frozensets, oracle_search_all


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

    def test_more_vertices_than_labels(self, x01):
        out = search_iasgl(generate("star", 6), x01, nogate())
        assert out.status is SearchStatus.EXHAUSTED_NONE

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(node_budget=0)
        with pytest.raises(ValueError):
            SearchConfig(disabled_rules=frozenset({"P9"}))


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
        out = search_iasgl(graph, x, nogate(find_all=True))
        assert out.status is not SearchStatus.BUDGET_EXCEEDED
        got = [labeling_to_frozensets(w) for w in out.witnesses]
        key = lambda d: sorted((vid, tuple(sorted(s))) for vid, s in d.items())
        assert sorted(got, key=key) == sorted(expected, key=key)
        if expected:
            assert out.status is SearchStatus.FOUND
        else:
            assert out.status is SearchStatus.EXHAUSTED_NONE


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
            assert [labeling_to_frozensets(w) for w in base.witnesses] == [
                labeling_to_frozensets(w) for w in relaxed.witnesses
            ]


class TestTwins:
    def test_twin_rule_prunes_and_keeps_verdict(self, x012):
        broom = CORPUS_N3[-1]  # hub a with leaves b, c, d, g and path a-e-f
        base = search_iasgl(broom, x012, nogate())
        relaxed = search_iasgl(
            broom, x012, SearchConfig(disabled_rules=frozenset({"gate", "twins"}))
        )
        assert base.status is relaxed.status
        assert base.stats.nodes < relaxed.stats.nodes

    def test_find_all_expansion_respects_node_budget(self, x0123):
        # One canonical witness of star:14 stands for 14! labelings; the
        # expansion must be lazy so the node budget still ends the run.
        star = generate("star", 14)
        start = time.monotonic()
        out = search_iasgl(star, x0123, SearchConfig(find_all=True, node_budget=2_000))
        assert time.monotonic() - start < 10
        assert out.status is SearchStatus.FOUND
        assert out.stats.nodes <= 2_000 + 1
        assert out.witnesses
        assert all(verify_iasgl(star, w).passed for w in out.witnesses)


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
            out = search_iasgl(graph, x012, nogate(find_all=True))
            got = [labeling_to_frozensets(w) for w in out.witnesses]
            key = lambda d: sorted((vid, tuple(sorted(s))) for vid, s in d.items())
            assert sorted(got, key=key) == sorted(expected, key=key), graph.sorted_edges()
            admitting += bool(expected)
        assert admitting >= 5  # the biased half must exercise the Found path


class TestDeterminism:
    def test_identical_runs(self, x012):
        a = search_iasgl(generate("star", 6), x012, SearchConfig(find_all=True))
        b = search_iasgl(generate("star", 6), x012, SearchConfig(find_all=True))
        assert a.status is b.status
        assert a.witnesses == b.witnesses
        assert a.stats.to_obj() == b.stats.to_obj()

    def test_seed_changes_order_not_outcome(self, x012):
        base = search_iasgl(generate("star", 6), x012, SearchConfig(find_all=True))
        seeded = search_iasgl(generate("star", 6), x012, SearchConfig(find_all=True, seed=7))
        assert base.status is seeded.status
        assert base.witnesses == seeded.witnesses  # canonical witness order


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

    def test_worker_determinism(self, monkeypatch, x012):
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

        monkeypatch.setenv("IASGL_THREADS", "1")
        serial = snapshot()
        monkeypatch.setenv("IASGL_THREADS", "4")
        threaded = snapshot()
        assert serial == threaded


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
