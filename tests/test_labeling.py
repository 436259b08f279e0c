"""Verification ladder and the structural gate."""

import random

import pytest

from iasgl.graphs import Graph, generate, pendant_vertices
from iasgl.labeling import (
    GateReport,
    Labeling,
    Violation,
    graceful_targets,
    induced_edge_label,
    structural_gate,
    verify_iasgl,
    verify_iasi,
    verify_iasl,
    verify_ladder,
    zero_vertex,
)
from iasgl.realisation import build_realisation
from iasgl.sets import (
    GroundSet,
    IntegerSet,
    classify_ground_set,
    enumerate_canonical_ground_sets,
    subset_algebra,
)

from conftest import iset, star_witness


# The ladder as it was before it read labels as element tuples: each
# label looked up as an IntegerSet, injectivity keyed by IntegerSet, the
# escape test against a set of X. Kept verbatim (helpers renamed) as the
# reference that the current ladder's reports must equal.


def reference_edge_sums(a: IntegerSet, b: IntegerSet) -> frozenset[int]:
    """The sumset A + B as a plain set of element sums (never truncated)."""
    return frozenset([x + y for x in a.elements for y in b.elements])


def reference_require_coverage(g: Graph, f: Labeling) -> None:
    if set(tuple(v for v, _ in f.assignment)) != set(g.vertex_ids):
        raise ValueError("labeling does not cover the graph's vertex set exactly")


def reference_verify_ladder(g: Graph, f: Labeling) -> tuple[GateReport, ...]:
    """Check the IASL, IASI and IASGL rungs in order, computing each edge
    label once; the reports end at the first rung that fails."""
    reference_require_coverage(g, f)
    label_of = f.label_of
    edges = [(u, v, reference_edge_sums(label_of(u), label_of(v))) for u, v in g.sorted_edges()]

    # IASL: injective vertex labels, every edge label inside X.
    violations: list[Violation] = []
    owner: dict[IntegerSet, str] = {}
    for vid in g.vertex_ids:
        s = label_of(vid)
        if s in owner:
            violations.append(
                Violation(
                    rule="injectivity",
                    detail=f"vertices {owner[s]!r} and {vid!r} share the label {s}",
                    vertex_ids=(owner[s], vid),
                    sets=(s,),
                )
            )
        else:
            owner[s] = vid
    base = set(f.ground.base.elements)
    for u, v, lab in edges:
        if not base.issuperset(lab):
            lab_set = IntegerSet.from_iterable(lab)
            violations.append(
                Violation(
                    rule="edge-escape",
                    detail=f"edge {u!r}-{v!r} has label {lab_set} outside ground set {f.ground}",
                    vertex_ids=(u, v),
                    sets=(lab_set,),
                )
            )
    iasl = GateReport(tuple(violations))
    if not iasl:
        return (iasl,)

    # IASI: distinct edges carry distinct labels.
    violations = []
    carrier: dict[frozenset[int], tuple[str, str]] = {}
    for u, v, lab in edges:
        if lab in carrier:
            pu, pv = carrier[lab]
            lab_set = IntegerSet.from_iterable(lab)
            violations.append(
                Violation(
                    rule="edge-collision",
                    detail=f"edges {pu!r}-{pv!r} and {u!r}-{v!r} share the label {lab_set}",
                    vertex_ids=(pu, pv, u, v),
                    sets=(lab_set,),
                )
            )
        else:
            carrier[lab] = (u, v)
    iasi = GateReport(tuple(violations))
    if not iasi:
        return (iasl, iasi)

    # IASGL: the edge labels are exactly the target family. After IASL
    # every label is a non-empty subset of X, and none is {0}: A + B = {0}
    # needs A = B = {0}, which injectivity rules out. After IASI the
    # labels are distinct. So they are |E| distinct members of the family
    # (2^n - 2 sets, or 2^n - 1 when 0 is not in X), and cover it iff |E|
    # equals its size; only a target can be missing, never an extra label.
    if len(carrier) == (1 << f.ground.n) - 1 - f.ground.contains_zero():
        return (iasl, iasi, GateReport())
    missing = sorted(
        (s for s in graceful_targets(f.ground) if frozenset(s.elements) not in carrier),
        key=lambda s: (len(s), s.elements),
    )
    violation = Violation(
        rule="target-missing",
        detail=f"{len(missing)} required edge labels never realized",
        sets=tuple(missing),
    )
    return (iasl, iasi, GateReport((violation,)))


def _random_label(rng: random.Random, elements: tuple[int, ...]) -> IntegerSet:
    return IntegerSet.from_iterable(rng.sample(elements, rng.randint(1, len(elements))))


def _random_graph(rng: random.Random, m: int) -> Graph:
    """A random simple graph on v0..v{m-1} with no isolated vertex."""
    ids = [f"v{i}" for i in range(m)]
    edges = {(u, v) for i, u in enumerate(ids) for v in ids[i + 1:] if rng.random() < 0.4}
    for u in ids:
        if not any(u in e for e in edges):
            v = rng.choice([w for w in ids if w != u])
            edges.add((u, v))
    return Graph.from_edges(ids, edges)


def _scaled(x: GroundSet, f: Labeling, factor: int) -> tuple[GroundSet, Labeling]:
    big = GroundSet.of(*(factor * e for e in x.base.elements))
    return big, Labeling(big, tuple(
        (vid, IntegerSet.from_iterable(factor * e for e in s.elements)) for vid, s in f.assignment
    ))


def verifier_corpus(seed: int):
    """Seeded (graph, labeling) pairs covering every report the ladder
    makes: passing labelings, injectivity, edge escape, edge collision
    and missing targets, over ground sets with and without 0 and with
    elements up to 10^12."""
    rng = random.Random(seed)
    witnesses = [star_witness(n) for n in (2, 3, 4)]
    for n in (2, 3, 4, 5):
        for x in enumerate_canonical_ground_sets(n, 7)[::3]:
            r = build_realisation(x)
            witnesses.append((r.graph, r.labeling))
    for g, f in witnesses:
        x = f.ground
        elements = x.base.elements
        yield g, f
        yield (g, *_scaled(x, f, 10**12)[1:])
        # Replace one label: a duplicate (injectivity), or a random
        # subset (escape, collision or a missing target).
        for _ in range(6):
            vid = rng.choice(g.vertex_ids)
            labels = dict(f.assignment)
            labels[vid] = (
                labels[rng.choice(g.vertex_ids)] if rng.random() < 0.3
                else _random_label(rng, elements)
            )
            mutated = Labeling.from_mapping(x, labels)
            yield g, mutated
            yield (g, *_scaled(x, mutated, 999_999_937)[1:])
        # Drop one edge: the rest still passes IASL and IASI.
        if g.edge_count() > 2:
            edges = g.sorted_edges()
            del edges[rng.randrange(len(edges))]
            sub = Graph.from_edges({v for e in edges for v in e}, edges)
            yield sub, Labeling(x, tuple((v, s) for v, s in f.assignment if v in sub.vertex_ids))
    # Random graphs over random ground sets, some without 0, some with
    # large elements.
    for _ in range(300):
        n = rng.randint(1, 5)
        top = rng.choice([8, 20, 10**9])
        x = GroundSet(IntegerSet.from_iterable(
            ([0] if rng.random() < 0.7 else []) + rng.sample(range(1, top + 1), n)
        ))
        g = _random_graph(rng, rng.randint(2, 7))
        f = Labeling.from_mapping(
            x, {v: _random_label(rng, x.base.elements) for v in g.vertex_ids}
        )
        yield g, f


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
        assert tuple(v for v, _ in f.assignment) == ("v0", "v1")
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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_reports_equal_the_reference_ladder(self, seed):
        seen = set()
        for g, f in verifier_corpus(seed):
            got = verify_ladder(g, f)
            assert got == reference_verify_ladder(g, f)
            assert repr(got) == repr(reference_verify_ladder(g, f))
            seen.update(v.rule for r in got for v in r.violations)
            if len(got) == 3 and got[-1].passed:
                seen.add("passed")
            if not f.ground.contains_zero():
                seen.add("no zero")
            if f.ground.max_element >= 10**9:
                seen.add("large")
        assert seen == {
            "passed", "injectivity", "edge-escape", "edge-collision", "target-missing",
            "no zero", "large",
        }

    def test_coverage_mismatch_matches_the_reference(self, x012):
        f = Labeling.from_mapping(x012, {"v0": iset(0), "v1": iset(1), "v9": iset(2)})
        for ladder in (verify_ladder, reference_verify_ladder):
            with pytest.raises(ValueError, match="cover"):
                ladder(generate("star", 2), f)

    def test_one_pass_computes_each_edge_label_once(self, sumset_calls):
        g, f = star_witness(9)
        assert verify_iasgl(g, f).passed
        assert len(sumset_calls) == g.edge_count() == 510
        sumset_calls.clear()
        assert [r.passed for r in verify_ladder(g, f)] == [True, True, True]
        assert len(sumset_calls) == 510

    def test_ladder_stops_at_first_failed_rung(self, x0123):
        g = generate("path", 4)
        f = Labeling.from_mapping(
            x0123,
            {"v0": iset(1), "v1": iset(0, 1), "v2": iset(0), "v3": iset(1, 2)},
        )
        reports = verify_ladder(g, f)
        assert [r.passed for r in reports] == [True, False]
        assert verify_iasi(g, f) == verify_iasgl(g, f) == reports[-1]

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

    def test_ground_set_without_zero_misses_its_minimum(self):
        # Without 0 the family is all 2^n - 1 non-empty subsets, and
        # {min X} is never a sum of two labels.
        x = GroundSet.of(1, 2, 3)
        f = Labeling.from_mapping(x, {"v0": iset(1), "v1": iset(2)})
        (violation,) = verify_iasgl(generate("path", 2), f).violations
        assert violation.rule == "target-missing"
        assert violation.sets[0] == iset(1)
        assert len(violation.sets) == 6

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


def classified_gate(g: Graph, x: GroundSet) -> list[tuple[str, str]]:
    """The structural gate's (rule, detail) list, from the family sizes of
    ``classify_ground_set(x)``: the formula the gate must keep."""
    required = (1 << x.n) - 2
    if g.edge_count() != required:
        return [("R1", f"|E| = {g.edge_count()} but a ground set of size {x.n} "
                       f"needs exactly {required} edges")]
    cls = classify_ground_set(x)
    non_sumsets, neither = len(cls.non_sumsets), len(cls.neither)
    out = []
    max_degree = max(g.degree(v) for v in g.vertex_ids)
    if max_degree < non_sumsets:
        out.append(("R2", f"no vertex of degree >= {non_sumsets} to host {{0}} "
                          f"(max degree {max_degree})"))
    pendants = set(pendant_vertices(g))
    needed = max(neither, x.n - 1)
    if len(pendants) < needed:
        out.append(("R3", f"{len(pendants)} pendant vertices but at least {needed} required "
                          f"(|neither| = {neither}, n - 1 = {x.n - 1})"))
    best = max(sum(w in pendants for w in g.neighbors(v)) for v in g.vertex_ids)
    if best < neither:
        out.append(("R4", f"no single vertex has {neither} pendant neighbors (best is {best})"))
    return out


def broom(edges: int, tail: int) -> Graph:
    """A tree of the given size: hub h with a path of tail edges, h-t1-...,
    and leaves on every other edge."""
    path = [f"t{i}" for i in range(1, tail + 1)]
    leaves = [f"l{i}" for i in range(edges - tail)]
    return Graph.from_edges(
        ["h", *path, *leaves], [("h", v) for v in leaves] + list(zip(["h", *path], path))
    )


class TestStructuralGate:
    def test_verdicts_match_the_classification_formula(self):
        # Every canonical X with n = 2..5 and max <= 10, against stars,
        # paths, brooms and the builder's graphs of every such n, so that
        # each rule fires: the gate's violations are the formula's, read
        # off the DISTINCT_LABELS families.
        grounds = [x for n in range(2, 6) for x in enumerate_canonical_ground_sets(n, 10)]
        graphs = {build_realisation(x).graph for x in grounds}
        for n in range(2, 6):
            edges = (1 << n) - 2
            graphs |= {generate("star", edges), generate("path", edges + 1)}
            graphs |= {broom(edges, tail) for tail in range(2, edges)}
        fired = set()
        for g in graphs:
            for x in grounds:
                want = classified_gate(g, x)
                assert [(v.rule, v.detail) for v in structural_gate(g, x).violations] == want
                fired.update(rule for rule, _ in want)
        assert fired == {"R1", "R2", "R3", "R4"}

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
