"""Verification ladder and the structural gate."""

import pytest

from iasgl.graphs import generate
from iasgl.labeling import (
    Labeling,
    graceful_targets,
    induced_edge_label,
    structural_gate,
    verify_iasgl,
    verify_iasi,
    verify_iasl,
    zero_vertex,
)
from iasgl.sets import GroundSet, SummandMode, subset_algebra

from conftest import iset


def star2_labeling(x01):
    return Labeling.from_mapping(
        x01, {"v0": iset(0), "v1": iset(1), "v2": iset(0, 1)}
    )


class TestLabelingType:
    def test_rejects_empty_label(self, x01):
        with pytest.raises(ValueError, match="empty set-label"):
            Labeling.from_mapping(x01, {"v0": iset()})

    def test_rejects_label_outside_ground(self, x01):
        with pytest.raises(ValueError, match="not a subset"):
            Labeling.from_mapping(x01, {"v0": iset(2)})

    def test_lookup(self, x01):
        f = star2_labeling(x01)
        assert f.label_of("v1") == iset(1)
        with pytest.raises(ValueError, match="no label"):
            f.label_of("v9")

    def test_hashable_and_ordered_storage(self, x01):
        f = Labeling.from_mapping(x01, {"v1": iset(1), "v0": iset(0)})
        assert f.vertex_ids() == ("v0", "v1")
        assert hash(f) == hash(Labeling.from_mapping(x01, {"v0": iset(0), "v1": iset(1)}))


class TestInducedEdgeLabel:
    def test_zero_identity(self, x012):
        f = Labeling.from_mapping(x012, {"u": iset(0), "v": iset(1, 2)})
        assert induced_edge_label(f, "u", "v") == iset(1, 2)

    def test_direct_sumset(self, x0123):
        f = Labeling.from_mapping(x0123, {"u": iset(0, 1), "v": iset(0, 2)})
        assert induced_edge_label(f, "u", "v") == iset(0, 1, 2, 3)

    def test_singletons(self, x0123):
        f = Labeling.from_mapping(x0123, {"u": iset(1), "v": iset(2)})
        assert induced_edge_label(f, "u", "v") == iset(3)

    def test_unassigned_vertex(self, x01):
        f = Labeling.from_mapping(x01, {"u": iset(0)})
        with pytest.raises(ValueError):
            induced_edge_label(f, "u", "w")


class TestLadder:
    def test_star2_passes_all_rungs(self, x01):
        g = generate("star", 2)
        f = star2_labeling(x01)
        assert verify_iasl(g, f).passed
        assert verify_iasi(g, f).passed
        assert verify_iasgl(g, f).passed

    def test_duplicate_labels_fail_iasl(self, x012):
        g = generate("star", 2)
        f = Labeling.from_mapping(x012, {"v0": iset(1), "v1": iset(1), "v2": iset(0, 1)})
        report = verify_iasl(g, f)
        assert not report.passed
        assert {v.rule for v in report.violations} == {"injectivity"}

    def test_edge_escape_fails_iasl(self, x0123):
        g = generate("path", 2)
        f = Labeling.from_mapping(x0123, {"v0": iset(1), "v1": iset(3)})
        report = verify_iasl(g, f)
        assert [v.rule for v in report.violations] == ["edge-escape"]
        assert report.violations[0].sets == (iset(4),)

    def test_triangle_iasi_true(self, x012):
        g = generate("cycle", 3)
        f = Labeling.from_mapping(x012, {"v0": iset(0), "v1": iset(1), "v2": iset(0, 1)})
        assert verify_iasi(g, f).passed
        assert not verify_iasgl(g, f).passed  # only 3 of 6 targets realized

    def test_edge_collision_fails_iasi(self, x0123):
        # P_4 with labels {1},{0,1},{0},{1,2}: the outer edges both
        # induce {1,2} while all four vertex labels stay distinct.
        g = generate("path", 4)
        f = Labeling.from_mapping(
            x0123,
            {"v0": iset(1), "v1": iset(0, 1), "v2": iset(0), "v3": iset(1, 2)},
        )
        assert verify_iasl(g, f).passed
        report = verify_iasi(g, f)
        assert not report.passed
        assert {v.rule for v in report.violations} == {"edge-collision"}

    def test_coverage_mismatch_is_error(self, x01):
        g = generate("star", 2)
        f = Labeling.from_mapping(x01, {"v0": iset(0), "v1": iset(1)})
        with pytest.raises(ValueError, match="cover"):
            verify_iasl(g, f)

    def test_iasgl_star6(self, x012):
        g = generate("star", 6)
        labels = {"v0": iset(0)}
        for i, s in enumerate(graceful_targets(x012), start=1):
            labels[f"v{i}"] = s
        f = Labeling.from_mapping(x012, labels)
        assert verify_iasgl(g, f).passed
        assert zero_vertex(g, f) == "v0"

    def test_any_c4_labeling_fails(self, x012):
        # C_4 has 4 edges, never 2^n - 2: every injective assignment of
        # the 7 subsets fails. Exhaustive at n = 3 (7P4 = 840 labelings).
        from itertools import permutations

        from iasgl.sets import enumerate_nonempty_subsets

        g = generate("cycle", 4)
        subsets = enumerate_nonempty_subsets(x012)
        for combo in permutations(subsets, 4):
            f = Labeling.from_mapping(x012, dict(zip(g.vertex_ids, combo)))
            assert not verify_iasgl(g, f).passed


class TestStructuralGate:
    def test_c6_fails_pendant_rules(self, x012):
        report = structural_gate(generate("cycle", 6), x012)
        rules = {v.rule for v in report.violations}
        assert "R3" in rules and not report.passed

    def test_c6_fails_r3_for_every_n3_ground_set(self):
        from iasgl.sets import enumerate_canonical_ground_sets

        g = generate("cycle", 6)
        for x in enumerate_canonical_ground_sets(3, 8):
            report = structural_gate(g, x)
            assert "R3" in {v.rule for v in report.violations}

    def test_k4_edge_count_at_n4(self, x0123):
        report = structural_gate(generate("complete", 4), x0123)
        assert "R1" in {v.rule for v in report.violations}

    def test_r1_failure_skips_classification(self):
        # R1 alone rejects: R2-R4 (and the 2^15-subset kernel they read)
        # are never evaluated.
        misses = subset_algebra.cache_info().misses
        report = structural_gate(generate("star", 6), GroundSet.of(*range(15)))
        assert {v.rule for v in report.violations} == {"R1"}
        assert subset_algebra.cache_info().misses == misses

    def test_k4_passes_r1_at_n3_fails_r3(self, x012):
        report = structural_gate(generate("complete", 4), x012)
        rules = {v.rule for v in report.violations}
        assert "R1" not in rules
        assert "R3" in rules

    def test_star14_passes_n4(self, x0123):
        assert structural_gate(generate("star", 14), x0123).passed

    def test_requires_zero(self):
        with pytest.raises(ValueError, match="must contain 0"):
            structural_gate(generate("star", 2), GroundSet.of(1, 2))

    def test_r2_high_degree_host(self, x012):
        # Two K(1,3)s joined by a middle edge: 7 edges... use a double
        # star with 6 edges: centers a, b adjacent, a has 3 leaves, b has
        # 2: max degree 4 < 5 = |non_sumsets| so R2 fires.
        from iasgl.graphs import Graph

        g = Graph.from_edges(
            ["a", "b", "l1", "l2", "l3", "m1", "m2"],
            [("a", "b"), ("a", "l1"), ("a", "l2"), ("a", "l3"), ("b", "m1"), ("b", "m2")],
        )
        assert g.edge_count() == 6
        report = structural_gate(g, x012)
        assert "R2" in {v.rule for v in report.violations}

    def test_gate_modes_differ(self, x012):
        # Under ALLOW_EQUAL fewer sets are forced onto the {0}-vertex.
        from iasgl.sets import classify_ground_set

        strict = classify_ground_set(x012, SummandMode.DISTINCT_LABELS)
        loose = classify_ground_set(x012, SummandMode.ALLOW_EQUAL)
        assert len(loose.non_sumsets) < len(strict.non_sumsets)
