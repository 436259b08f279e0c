"""Contract of the core value types: equality, order, hash, immutability
and the checks their constructors make."""

import pytest

from iasgl.graphs import Graph, generate
from iasgl.io import Document
from iasgl.labeling import GateReport, Labeling, Violation, structural_gate
from iasgl.realisation import build_realisation
from iasgl.sets import (
    GroundSet,
    IntegerSet,
    SummandMode,
    additive_type,
    classify_ground_set,
    enumerate_canonical_ground_sets,
    subset_algebra,
)

from conftest import iset


def star_labeling() -> Labeling:
    x = GroundSet.of(0, 1)
    return Labeling.from_mapping(x, {"v0": iset(0), "v1": iset(1), "v2": iset(0, 1)})


class TestEquality:
    def test_integer_set(self):
        assert IntegerSet.of(2, 0, 2) == IntegerSet((0, 2))
        assert IntegerSet.of(0) != IntegerSet.of(1)
        assert IntegerSet.of(0) != (0,)

    def test_ground_set(self):
        assert GroundSet.of(0, 1) == GroundSet(IntegerSet.of(1, 0))
        assert GroundSet.of(0, 1) != GroundSet.of(0, 2)

    def test_graph_ignores_input_order(self):
        a = Graph.from_edges(["v1", "v0", "v2"], [("v1", "v0"), ("v0", "v2")])
        assert a == generate("star", 2)
        assert a != generate("path", 4)

    def test_labeling(self):
        f = star_labeling()
        assert f == Labeling(f.ground, tuple(reversed(f.assignment)))
        assert f != Labeling.from_mapping(f.ground, {"v0": iset(1), "v1": iset(0)})

    def test_reports_and_results(self):
        x = GroundSet.of(0, 1, 2)
        assert structural_gate(generate("path", 3), x) == structural_gate(generate("path", 3), x)
        assert GateReport() == GateReport(())
        assert GateReport((Violation("R1", "d"),)) != GateReport((Violation("R2", "d"),))
        assert build_realisation(x) == build_realisation(x)
        assert classify_ground_set(x) == classify_ground_set(x, SummandMode.DISTINCT_LABELS)
        assert classify_ground_set(x) != classify_ground_set(x, SummandMode.ALLOW_EQUAL)

    def test_document(self):
        doc = Document(vertices=[("v0", iset(0))], edges=[])
        assert doc == Document([("v0", iset(0))], [], None, {})
        assert doc != Document([("v0", iset(1))], [])


class TestOrdering:
    def test_integer_sets_sort_lexicographically(self):
        family = [iset(1), iset(0, 3), iset(0), iset(0, 1, 3)]
        assert sorted(family) == [iset(0), iset(0, 1, 3), iset(0, 3), iset(1)]
        assert iset(0) < iset(1) <= iset(1) and iset(2) > iset(1) >= iset(1)

    def test_ground_sets_sort_by_elements(self):
        family = enumerate_canonical_ground_sets(3, 4)
        assert family == sorted(family, key=lambda x: x.base.elements)
        assert GroundSet.of(0, 1) < GroundSet.of(0, 2)


class TestHash:
    """Each hash is that of the tuple of the compared fields, the formula
    of the frozen dataclasses these types replaced."""

    def test_formulas(self):
        s = IntegerSet.of(0, 1)
        x = GroundSet(s)
        g = generate("cycle", 3)
        f = star_labeling()
        assert hash(s) == hash((s.elements,))
        assert hash(x) == hash((x.base,))
        assert hash(g) == hash((g.vertex_ids, g.edges))
        assert hash(f) == hash((f.ground, f.assignment))
        v = Violation("R1", "d", ("v0",), (s,))
        assert hash(v) == hash((v.rule, v.detail, v.vertex_ids, v.sets))
        assert hash(GateReport((v,))) == hash(((v,),))

    def test_equal_values_are_one_key(self):
        assert len({IntegerSet.of(0, 1), IntegerSet.of(1, 0)}) == 1
        assert len({generate("star", 3), Graph.from_edges(
            ["v3", "v2", "v1", "v0"], [("v1", "v0"), ("v2", "v0"), ("v3", "v0")])}) == 1


class TestImmutability:
    @pytest.mark.parametrize("make,field", [
        (lambda: IntegerSet.of(0), "elements"),
        (lambda: GroundSet.of(0, 1), "base"),
        (lambda: classify_ground_set(GroundSet.of(0, 1, 2)), "neither"),
        (lambda: subset_algebra(additive_type(GroundSet.of(0, 1, 2))), "pairs"),
        (lambda: generate("star", 2), "edges"),
        (lambda: Violation("R1", "d"), "rule"),
        (lambda: GateReport(), "violations"),
        (star_labeling, "assignment"),
        (lambda: build_realisation(GroundSet.of(0, 1, 2)), "graph"),
    ])
    def test_assignment_raises(self, make, field):
        value = make()
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            value.extra = 1
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before


class TestValidation:
    def test_negative_element(self):
        with pytest.raises(ValueError, match="negative element"):
            IntegerSet.of(0, -1)

    def test_empty_ground_set(self):
        with pytest.raises(ValueError, match="non-empty"):
            GroundSet(IntegerSet(()))

    def test_duplicate_vertex_id(self):
        with pytest.raises(ValueError, match="duplicate vertex ids"):
            Graph(("v0", "v0", "v1"), frozenset({("v0", "v1")}))
        x = GroundSet.of(0, 1)
        with pytest.raises(ValueError, match="duplicate vertex id in labeling"):
            Labeling(x, (("v0", iset(0)), ("v0", iset(1))))

    def test_label_outside_ground_set(self):
        with pytest.raises(ValueError, match="not a subset of ground set"):
            Labeling.from_mapping(GroundSet.of(0, 1), {"v0": iset(0, 2)})

    def test_empty_label(self):
        with pytest.raises(ValueError, match="empty set-label"):
            Labeling.from_mapping(GroundSet.of(0, 1), {"v0": IntegerSet(())})
