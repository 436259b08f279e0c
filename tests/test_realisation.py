"""Realisation builder: exact label assignment, verified outputs."""

import itertools

import pytest

from iasgl.graphs import is_bipartite, pendant_vertices
from iasgl.labeling import graceful_targets, verify_iasgl, zero_vertex
from iasgl.realisation import (
    RealisationInfeasible,
    assign_edge_labels,
    build_realisation,
)
from iasgl.search import search_iasgl
from iasgl.sets import (
    GroundSet,
    SummandMode,
    classify_ground_set,
    enumerate_canonical_ground_sets,
)

from conftest import iset, naive_sumset, nonempty_subsets


def oracle_all_realisations(elements):
    """Every exact assignment completion over the forced skeleton, by
    raw enumeration: forced edges hang the non-sumset labels on the hub,
    every remaining target picks any unordered label pair summing to it,
    no edge reused. Returns (bipartite_exists, nonbipartite_exists)."""
    ground = frozenset(elements)
    zero = frozenset({0})
    subsets = nonempty_subsets(elements)
    targets = [s for s in subsets if s != zero]
    non_sumsets = {
        c
        for c in targets
        if not any(
            naive_sumset(a, b) == c
            for a in subsets
            for b in subsets
            if a != zero and b != zero and a != b
        )
    }
    unfixed = [t for t in targets if t not in non_sumsets]
    pair_options = []
    for t in unfixed:
        pairs = [
            frozenset((a, b))
            for a, b in itertools.combinations(subsets, 2)
            if naive_sumset(a, b) == t
        ]
        pair_options.append(pairs)

    fixed_edges = {frozenset((zero, s)) for s in non_sumsets}
    bip = nonbip = False
    for choice in itertools.product(*pair_options):
        if len(set(choice)) != len(choice) or set(choice) & fixed_edges:
            continue
        edges = list(fixed_edges) + list(choice)
        vertices = sorted({v for e in edges for v in e}, key=sorted)
        index = {v: i for i, v in enumerate(vertices)}
        adj = {i: set() for i in range(len(vertices))}
        for e in edges:
            u, v = tuple(e)
            adj[index[u]].add(index[v])
            adj[index[v]].add(index[u])
        color = {}
        bipartite = True
        for start in adj:
            if start in color:
                continue
            color[start] = 0
            stack = [start]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in color:
                        color[w] = color[u] ^ 1
                        stack.append(w)
                    elif color[w] == color[u]:
                        bipartite = False
        if bipartite:
            bip = True
        else:
            nonbip = True
    return bip, nonbip


class TestBuildRealisation:
    def test_x01_forces_star_k12(self, x01):
        r = build_realisation(x01)
        assert len(r.graph.vertex_ids) == 3
        assert r.graph.edge_count() == 2
        assert not r.non_bipartite
        # Preference cannot conjure an odd cycle: both targets are forced.
        r2 = build_realisation(x01, prefer_nonbipartite=True)
        assert not r2.non_bipartite

    def test_x0123_prefer_nonbipartite(self, x0123):
        r = build_realisation(x0123, prefer_nonbipartite=True)
        assert len(r.graph.vertex_ids) == 9
        assert r.graph.edge_count() == 14
        assert r.non_bipartite
        labels = {r.labeling.label_of(v): v for v in r.graph.vertex_ids}
        tri = [labels[iset(0)], labels[iset(1)], labels[iset(2)]]
        for u, v in itertools.combinations(tri, 2):
            assert tuple(sorted((u, v))) in r.graph.edges

    def test_x0123_vertex_labels(self, x0123):
        r = build_realisation(x0123, prefer_nonbipartite=True)
        got = {str(r.labeling.label_of(v)) for v in r.graph.vertex_ids}
        assert got == {
            "{0}", "{1}", "{2}", "{0,1}", "{0,2}", "{0,3}",
            "{0,1,2}", "{0,1,3}", "{0,2,3}",
        }

    def test_x012_honest_bipartiteness_flag(self, x012):
        """The exhaustive oracle decides whether an odd cycle is
        reachable at X = {0,1,2}; the builder's flag must agree."""
        bip_exists, nonbip_exists = oracle_all_realisations((0, 1, 2))
        assert bip_exists and nonbip_exists  # both shapes are realizable
        r = build_realisation(x012, prefer_nonbipartite=True)
        assert r.non_bipartite == nonbip_exists
        assert verify_iasgl(r.graph, r.labeling).passed

    def test_trace_covers_every_target_once(self, x0123):
        r = build_realisation(x0123)
        traced = [t for t, _ in r.assignment_trace]
        assert sorted(traced, key=lambda s: (len(s), s.elements)) == sorted(
            graceful_targets(x0123), key=lambda s: (len(s), s.elements)
        )
        edges = [e for _, e in r.assignment_trace]
        assert len(set(edges)) == len(edges) == r.graph.edge_count()

    @pytest.mark.parametrize("n,max_element", [(2, 10), (3, 10), (4, 10), (5, 10)])
    def test_succeeds_and_reverifies_for_all_canonical(self, n, max_element):
        for x in enumerate_canonical_ground_sets(n, max_element):
            r = build_realisation(x)
            assert verify_iasgl(r.graph, r.labeling).passed
            assert r.graph.edge_count() == (1 << n) - 2
            assert r.non_bipartite == (not is_bipartite(r.graph))

    @pytest.mark.parametrize("prefer_nonbipartite", [False, True])
    def test_search_finds_a_labeling_of_every_realisation(self, prefer_nonbipartite):
        """Metamorphic: a realisation of X is a graph that admits over X,
        so the search (gate and every pruning rule on) must find one."""
        for n in range(2, 6):
            for x in enumerate_canonical_ground_sets(n, 8):
                r = build_realisation(x, prefer_nonbipartite=prefer_nonbipartite)
                assert search_iasgl(r.graph, x).found, x

    def test_pendant_placement(self, x0123):
        r = build_realisation(x0123, prefer_nonbipartite=True)
        cls = classify_ground_set(x0123)
        v0 = zero_vertex(r.graph, r.labeling)
        pendants = set(pendant_vertices(r.graph))
        assert len(pendants) >= len(cls.neither) >= x0123.n - 1
        for s in cls.neither:
            vid = next(v for v in r.graph.vertex_ids if r.labeling.label_of(v) == s)
            assert vid in pendants
            assert r.graph.neighbors(vid) == (v0,)

    def test_requires_zero_and_size(self):
        with pytest.raises(ValueError, match="must contain 0"):
            build_realisation(GroundSet.of(1, 2))
        with pytest.raises(ValueError, match="at least 2"):
            build_realisation(GroundSet.of(0))

    def test_deterministic(self, x0123):
        a = build_realisation(x0123, prefer_nonbipartite=True)
        b = build_realisation(x0123, prefer_nonbipartite=True)
        assert a.graph == b.graph
        assert a.labeling == b.labeling
        assert a.assignment_trace == b.assignment_trace


class TestAssignEdgeLabels:
    def test_unique_decomposition(self, x0123):
        got = assign_edge_labels(
            targets=[iset(3)],
            vertex_pool=[iset(1), iset(2), iset(0)],
            fixed_edges=set(),
            x=x0123,
        )
        assert got == {iset(3): (iset(1), iset(2))}

    def test_pool_missing_zero_pairing(self, x012):
        got = assign_edge_labels(
            targets=[iset(1, 2)],
            vertex_pool=[iset(1), iset(0, 1)],
            fixed_edges=set(),
            x=x012,
        )
        assert got == {iset(1, 2): (iset(1), iset(0, 1))}

    def test_fixed_edge_precedence(self, x0123):
        got = assign_edge_labels(
            targets=[iset(0, 3), iset(3)],
            vertex_pool=[iset(0), iset(0, 3), iset(1), iset(2)],
            fixed_edges={(iset(0), iset(0, 3))},
            x=x0123,
        )
        assert iset(0, 3) not in got
        assert got[iset(3)] == (iset(1), iset(2))

    def test_fixed_label_outside_targets_rejected(self, x0123):
        with pytest.raises(ValueError, match="not a target"):
            assign_edge_labels(
                targets=[iset(3)],
                vertex_pool=[iset(0), iset(1)],
                fixed_edges={(iset(0), iset(0, 3))},
                x=x0123,
            )

    def test_infeasible_without_new_vertices(self, x012):
        with pytest.raises(RealisationInfeasible) as err:
            assign_edge_labels(
                targets=[iset(0, 1, 2)],
                vertex_pool=[iset(1), iset(2)],
                fixed_edges=set(),
                x=x012,
                allow_new_vertices=False,
            )
        assert err.value.unassignable == [iset(0, 1, 2)]
        assert "infeasible under mode" in str(err.value)

    def test_mode_allow_equal_accepted(self, x012):
        got = assign_edge_labels(
            targets=[iset(1, 2)],
            vertex_pool=[iset(1), iset(0, 1)],
            fixed_edges=set(),
            x=x012,
            mode=SummandMode.ALLOW_EQUAL,
        )
        assert got[iset(1, 2)] == (iset(1), iset(0, 1))
