"""Property-based suites: sumset laws, classification bounds, ladder
implications, gate soundness, and verifier-versus-oracle agreement."""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from iasgl.graphs import generate, is_bipartite
from iasgl.labeling import (
    Labeling,
    structural_gate,
    verify_iasgl,
    verify_iasi,
    verify_iasl,
)
from iasgl.realisation import build_realisation
from iasgl.search import SearchConfig, search_iasgl
from iasgl.sets import (
    ZERO_SET,
    GroundSet,
    IntegerSet,
    SummandMode,
    classify_ground_set,
    enumerate_nonempty_subsets,
    sumset,
)

from conftest import (
    labeling_to_frozensets,
    naive_sumset,
    nonempty_subsets,
    oracle_classify,
    oracle_is_iasgl,
    zero_vertex,
)

integer_sets = st.builds(
    IntegerSet.from_iterable, st.sets(st.integers(0, 30), min_size=1, max_size=6)
)
scales = st.integers(1, 9)
ground_sets = st.builds(
    lambda rest: GroundSet(IntegerSet.from_iterable({0, *rest})),
    st.sets(st.integers(1, 10), min_size=1, max_size=4),
)


def scale_set(s: IntegerSet, c: int) -> IntegerSet:
    return IntegerSet.from_iterable(c * e for e in s)


class TestSumsetLaws:
    @given(a=integer_sets, b=integer_sets, c=scales)
    def test_scaling(self, a, b, c):
        assert sumset(scale_set(a, c), scale_set(b, c)) == scale_set(sumset(a, b), c)

    @given(a=integer_sets)
    def test_identity(self, a):
        assert sumset(IntegerSet.of(0), a) == a

    @given(a=integer_sets, b=integer_sets)
    def test_commutativity(self, a, b):
        assert sumset(a, b) == sumset(b, a)

    @given(a=integer_sets, b=integer_sets, c=integer_sets)
    def test_associativity(self, a, b, c):
        assert sumset(sumset(a, b), c) == sumset(a, sumset(b, c))

    @given(a=integer_sets, b=integer_sets)
    def test_cardinality_bounds(self, a, b):
        s = sumset(a, b)
        assert max(len(a), len(b)) <= len(s) <= len(a) * len(b)

    @given(a=integer_sets, b=integer_sets)
    def test_zero_membership(self, a, b):
        assert (0 in sumset(a, b)) == (0 in a and 0 in b)

    @given(a=integer_sets, b=integer_sets)
    def test_matches_naive(self, a, b):
        assert set(sumset(a, b)) == naive_sumset(set(a), set(b))


class TestClassificationProperties:
    @given(x=ground_sets, mode=st.sampled_from(SummandMode))
    @settings(max_examples=40, deadline=None)
    def test_oracle_agreement(self, x, mode):
        cls = classify_ground_set(x, mode)
        o_ns, o_nsd, o_nei = oracle_classify(
            x.base.elements, distinct=mode is SummandMode.DISTINCT_LABELS
        )
        assert {frozenset(s.elements) for s in cls.non_sumsets} == o_ns
        assert {frozenset(s.elements) for s in cls.non_summands} == o_nsd
        assert {frozenset(s.elements) for s in cls.neither} == o_nei

    @given(x=ground_sets)
    @settings(max_examples=60, deadline=None)
    def test_zero_max_in_neither(self, x):
        cls = classify_ground_set(x)
        assert IntegerSet.of(0, x.max_element) in cls.neither

    @given(x=ground_sets)
    @settings(max_examples=60, deadline=None)
    def test_neither_lower_bound(self, x):
        cls = classify_ground_set(x)
        assert len(cls.neither) >= x.n - 1

    @given(x=ground_sets)
    @settings(max_examples=30, deadline=None)
    def test_neither_is_intersection(self, x):
        cls = classify_ground_set(x)
        assert set(cls.neither) == set(cls.non_sumsets) & set(cls.non_summands)


def random_labeling(draw, graph, x):
    subsets = enumerate_nonempty_subsets(x)
    ids = list(graph.vertex_ids)
    chosen = draw(
        st.lists(
            st.sampled_from(subsets), min_size=len(ids), max_size=len(ids)
        )
    )
    return Labeling.from_mapping(x, dict(zip(ids, chosen)))


@st.composite
def graph_and_labeling(draw):
    x = draw(st.sampled_from([GroundSet.of(0, 1), GroundSet.of(0, 1, 2), GroundSet.of(0, 1, 2, 3)]))
    graph = draw(
        st.sampled_from(
            [
                generate("star", 2),
                generate("star", 6),
                generate("path", 4),
                generate("cycle", 4),
                generate("complete", 4),
            ]
        )
    )
    return graph, x, random_labeling(draw, graph, x)


@st.composite
def star_labeling(draw):
    """Distinct targets on the leaves of a star, often with {0} at the
    centre: IASI then holds, and IASGL iff every target is a leaf."""
    x = draw(st.sampled_from([GroundSet.of(0, 1), GroundSet.of(0, 1, 2), GroundSet.of(0, 1, 2, 3)]))
    targets = [s for s in enumerate_nonempty_subsets(x) if s != ZERO_SET]
    leaves = draw(st.just(len(targets)) | st.integers(1, len(targets) - 1))
    chosen = draw(st.permutations(targets))[:leaves]
    centre = draw(st.just(ZERO_SET) | st.sampled_from(targets))
    graph = generate("star", leaves)
    mapping = {"v0": centre, **{f"v{i}": s for i, s in enumerate(chosen, 1)}}
    return graph, x, Labeling.from_mapping(x, mapping)


class TestVerificationLadder:
    @given(data=graph_and_labeling())
    @settings(max_examples=300, deadline=None)
    def test_implications(self, data):
        graph, _, labeling = data
        iasl = verify_iasl(graph, labeling).passed
        iasi = verify_iasi(graph, labeling).passed
        iasgl = verify_iasgl(graph, labeling).passed
        assert not iasgl or iasi
        assert not iasi or iasl

    @given(data=graph_and_labeling())
    @settings(max_examples=300, deadline=None)
    def test_iasi_matches_pairwise_oracle(self, data):
        graph, x, labeling = data
        if not verify_iasl(graph, labeling).passed:
            return
        edge_labels = [
            naive_sumset(set(labeling.label_of(u)), set(labeling.label_of(v)))
            for u, v in graph.sorted_edges()
        ]
        collision = any(
            edge_labels[i] == edge_labels[j]
            for i in range(len(edge_labels))
            for j in range(i + 1, len(edge_labels))
        )
        assert verify_iasi(graph, labeling).passed == (not collision)

    @given(data=st.one_of(graph_and_labeling(), star_labeling()))
    @settings(max_examples=300, deadline=None)
    def test_iasgl_matches_oracle(self, data):
        graph, x, labeling = data
        labels = labeling_to_frozensets(labeling)
        report = verify_iasgl(graph, labeling)
        assert report.passed == oracle_is_iasgl(graph, frozenset(x.base.elements), labels)
        if report.passed or not verify_iasi(graph, labeling).passed:
            return
        # IASI holds and IASGL fails: exactly the unrealised targets are named.
        realised = {naive_sumset(labels[u], labels[v]) for u, v in graph.sorted_edges()}
        unrealised = sorted(
            (
                s
                for s in nonempty_subsets(x.base.elements)
                if s != frozenset({0}) and s not in realised
            ),
            key=lambda s: (len(s), sorted(s)),
        )
        (violation,) = report.violations
        assert violation.rule == "target-missing"
        assert [frozenset(s.elements) for s in violation.sets] == unrealised

    @given(data=graph_and_labeling(), c=scales)
    @settings(max_examples=200, deadline=None)
    def test_scaling_invariance(self, data, c):
        graph, x, labeling = data
        scaled_ground = GroundSet(scale_set(x.base, c))
        scaled = Labeling.from_mapping(
            scaled_ground,
            {vid: scale_set(s, c) for vid, s in labeling.assignment},
        )
        assert verify_iasgl(graph, labeling).passed == verify_iasgl(graph, scaled).passed

    @given(data=graph_and_labeling())
    @settings(max_examples=300, deadline=None)
    def test_accepted_labelings_structure(self, data):
        graph, x, labeling = data
        if not verify_iasgl(graph, labeling).passed:
            return
        v0 = zero_vertex(graph, labeling)
        assert v0 is not None
        for vid in graph.vertex_ids:
            if x.max_element in labeling.label_of(vid) and vid != v0:
                assert graph.neighbors(vid) == (v0,)


class TestGateSoundness:
    """Accepted labelings always pass the gate: exhaustive at n <= 3."""

    @pytest.mark.parametrize(
        "graph",
        [generate("star", 2), generate("path", 3), generate("cycle", 3)],
        ids=["k12", "p3", "c3"],
    )
    def test_exhaustive_n2(self, graph, x01):
        self._exhaustive(graph, x01)

    @pytest.mark.parametrize("graph", [generate("star", 6)], ids=["k16"])
    def test_exhaustive_n3(self, graph, x012):
        self._exhaustive(graph, x012)

    @staticmethod
    def _exhaustive(graph, x):
        subsets = enumerate_nonempty_subsets(x)
        ids = list(graph.vertex_ids)
        if len(ids) > len(subsets):
            return
        for combo in permutations(subsets, len(ids)):
            labeling = Labeling.from_mapping(x, dict(zip(ids, combo)))
            if verify_iasgl(graph, labeling).passed:
                assert structural_gate(graph, x).passed

    def test_search_witnesses_pass_gate_n4(self, x0123):
        out = search_iasgl(generate("star", 14), x0123, SearchConfig(find_all=False))
        assert out.found
        assert structural_gate(generate("star", 14), x0123).passed

    def test_builder_witnesses_pass_gate_n4(self):
        from iasgl.sets import enumerate_canonical_ground_sets

        for x in enumerate_canonical_ground_sets(4, 8):
            r = build_realisation(x)
            assert verify_iasgl(r.graph, r.labeling).passed
            assert structural_gate(r.graph, x).passed


class TestBuilderProperties:
    @given(x=ground_sets)
    @settings(max_examples=25, deadline=None)
    def test_every_build_reverifies(self, x):
        r = build_realisation(x)
        assert verify_iasgl(r.graph, r.labeling).passed
        assert r.graph.edge_count() == (1 << x.n) - 2
        assert r.non_bipartite == (not is_bipartite(r.graph))
        f = r.labeling
        targets = {sumset(f.label_of(u), f.label_of(v)) for u, v in r.graph.edges}
        assert len(targets) == (1 << x.n) - 2
