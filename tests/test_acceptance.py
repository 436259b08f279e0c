"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines. Every
expected value is exact; the time limits are generous wall-clock caps.

Criterion 3 note: the 3-vertex path is the star K(1,2) and provably
admits a graceful set-indexer (its labeling is verified in criterion 1
with n = 2), so path nonexistence is asserted for 4 or more vertices
and the P_3 exception is asserted positively.

Criterion 7 note: at X = {0,1,2} the exhaustive assignment oracle finds
a valid non-bipartite realisation (triangle on {0},{1},{0,1} plus three
leaves), so the builder's bipartiteness flag is checked for honesty
against that oracle rather than against a hard-coded "infeasible".
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from itertools import combinations

from iasgl.cli import main
from iasgl.graphs import enumerate_free_trees, generate, pendant_vertices
from iasgl.io import labeling_to_obj, load_document
from iasgl.labeling import (
    Labeling,
    structural_gate,
    verify_iasgl,
    verify_iasi,
    verify_iasl,
)
from iasgl.realisation import build_realisation
from iasgl.search import SearchConfig, SearchStatus, search_iasgl, sweep_ground_sets
from iasgl.sets import (
    GroundSet,
    IntegerSet,
    classify_ground_set,
    enumerate_canonical_ground_sets,
    enumerate_nonempty_subsets,
    subset_algebra,
    sumset,
)

from conftest import iset, naive_sumset, oracle_classify, zero_vertex
from test_realisation import oracle_all_realisations

NOGATE = SearchConfig(disabled_rules=frozenset({"gate"}))


@contextmanager
def criterion(number: int, title: str, limit_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {title}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s ({elapsed:.1f}s)"
    print(f"criterion {number} PASS: {title} ({elapsed:.2f}s)")


def test_criterion_1_star_theorem(tmp_path, capsys):
    with criterion(1, "star theorem: admits iff size is 2^n - 2", 10.0):
        for n in (2, 3, 4):
            m = 2 ** n - 2
            out = tmp_path / f"star{n}.json"
            ground = ",".join(str(i) for i in range(n))
            code = main(["search", "--graph", f"star:{m}",
                         "--ground-set", ground, "--out", str(out)])
            capsys.readouterr()
            assert code == 0
            doc = load_document(out)
            graph, labeling = doc.to_graph(), doc.to_labeling()
            assert verify_iasgl(graph, labeling).passed
        for m in (1, 3, 4, 5, 7, 10):
            star = generate("star", m)
            for n in (2, 3, 4, 5):
                x = GroundSet.of(*range(n))
                gate = structural_gate(star, x)
                assert "R1" in {v.rule for v in gate.violations}


def test_criterion_2_tree_theorem():
    with criterion(2, "tree theorem: only the star among the 11 trees on 7 vertices", 60.0):
        trees = enumerate_free_trees(7)
        assert len(trees) == 11
        family = enumerate_canonical_ground_sets(3, 6)
        stars = [t for t in trees if max(t.degree(v) for v in t.vertex_ids) == 6]
        assert len(stars) == 1
        star = stars[0]
        star_hits = sum(1 for x in family if search_iasgl(star, x).found)
        assert star_hits == len(family) >= 1
        for tree in trees:
            if tree == star:
                continue
            for x in family:
                outcome = search_iasgl(tree, x, NOGATE)
                assert outcome.status is SearchStatus.EXHAUSTED_NONE
        # Vertex-count gate: trees admit only when 1 + m is a power of 2.
        for m in (4, 5, 6):
            assert (m + 1) & m != 0  # not a power of two
            for tree in enumerate_free_trees(m):
                x = GroundSet.of(0, 1, 2)
                assert not structural_gate(tree, x).passed


def test_criterion_3_cycle_path_nonexistence():
    with criterion(3, "cycle/path nonexistence with the P_3 = K(1,2) exception", 60.0):
        # Of the cycles on 3..8 vertices and the paths on 4..8, only C_6
        # and P_7 have 2^n - 2 edges (n = 3); R1 rejects the rest, and
        # the triangle theorem (see ``harness``) covers every order.
        for g in (generate("cycle", 6), generate("path", 7)):
            outcomes = sweep_ground_sets(g, 3, 8)
            assert all(not o.found for o in outcomes.values())
        p3 = search_iasgl(generate("path", 3), GroundSet.of(0, 1))
        assert p3.found, "P_3 is the star K(1,2) and admits"
        print("note: P_3 = K(1,2) admits (star-path exception); "
              "nonexistence holds for paths on >= 4 vertices")


def test_criterion_4_complete_graphs():
    with criterion(4, "complete graphs never admit", 120.0):
        for m in (2, 3):
            k = generate("complete", m)
            assert k.edge_count() % 2 == 1  # odd size falls to parity
            for n in (2, 3, 4):
                gate = structural_gate(k, GroundSet.of(*range(n)))
                assert "R1" in {v.rule for v in gate.violations}
        k4 = generate("complete", 4)
        outcomes = sweep_ground_sets(k4, 3, 8, NOGATE)
        assert len(outcomes) == 21
        assert all(o.status is SearchStatus.EXHAUSTED_NONE for o in outcomes.values())
        # Every n: only K_1 (n = 1) and K_4 (n = 3) have 2^n - 2 edges.
        from iasgl.harness import complete_graph_solutions

        assert complete_graph_solutions() == [(1, 1), (4, 3)]


def test_criterion_5_classification_oracle_equivalence():
    with criterion(5, "classification equals the brute-force oracle (n <= 5)", 120.0):
        checked = 0
        for n in range(2, 6):
            for x in enumerate_canonical_ground_sets(n, 10):
                cls = classify_ground_set(x)
                o_ns, o_nsd, o_nei = oracle_classify(x.base.elements)
                assert {frozenset(s.elements) for s in cls.non_sumsets} == o_ns
                assert {frozenset(s.elements) for s in cls.non_summands} == o_nsd
                assert {frozenset(s.elements) for s in cls.neither} == o_nei
                checked += 1
        assert checked > 200
        spot = classify_ground_set(GroundSet.of(0, 1, 2, 3))
        assert len(spot.non_sumsets) == 8
        assert set(spot.neither) == {iset(0, 3), iset(0, 1, 3), iset(0, 2, 3)}


def _collect_witnesses() -> list[tuple[GroundSet, object, Labeling]]:
    """A star witness and a realisation of every canonical ground set the
    theorem harness walks at the benchmark's bounds (n = 2..5, max 10)."""
    witnesses = []
    for n in range(2, 6):
        star = generate("star", 2 ** n - 2)
        for x in enumerate_canonical_ground_sets(n, 10):
            outcome = search_iasgl(star, x)
            assert outcome.found
            witnesses.append((x, star, outcome.witnesses[0]))
            r = build_realisation(x)
            witnesses.append((x, r.graph, r.labeling))
    return witnesses


def test_criterion_6_pendant_lower_bound():
    with criterion(6, "pendant lower bound on every ground set and witness", 120.0):
        for n in range(2, 6):
            for x in enumerate_canonical_ground_sets(n, 10):
                assert len(classify_ground_set(x).neither) >= n - 1
        witnesses = _collect_witnesses()
        assert len(witnesses) == 2 * 346
        for x, graph, labeling in witnesses:
            cls = classify_ground_set(x)
            assert verify_iasgl(graph, labeling).passed
            v0 = zero_vertex(graph, labeling)
            assert v0 is not None
            pendants = set(pendant_vertices(graph))
            assert len(pendants) >= len(cls.neither)
            hosted = sum(1 for w in graph.neighbors(v0) if w in pendants)
            assert hosted >= len(cls.neither)
            for s in cls.neither:
                vid = next(
                    (v for v in graph.vertex_ids if labeling.label_of(v) == s), None
                )
                assert vid is not None  # non-sumset labels must sit on vertices
                assert vid in pendants and graph.neighbors(vid) == (v0,)
            # A label holding max X can only meet {0}: its vertex is a
            # pendant on the {0}-vertex.
            for vid, label in labeling.assignment:
                if x.max_element in label.elements:
                    assert graph.neighbors(vid) == (v0,)


def test_criterion_7_builder_soundness():
    with criterion(7, "builder re-verifies everywhere; n = 4 triangle witness", 60.0):
        for n in (2, 3, 4):
            for x in enumerate_canonical_ground_sets(n, 8):
                r = build_realisation(x)
                assert verify_iasgl(r.graph, r.labeling).passed
                assert r.graph.edge_count() == 2 ** n - 2
        r4 = build_realisation(GroundSet.of(0, 1, 2, 3))
        assert r4.non_bipartite
        by_label = {r4.labeling.label_of(v): v for v in r4.graph.vertex_ids}
        tri = [by_label[iset(0)], by_label[iset(1)], by_label[iset(2)]]
        for u, v in combinations(tri, 2):
            assert tuple(sorted((u, v))) in r4.graph.edges
        # X = {0,1,2}: flag honesty against the exhaustive oracle. The
        # oracle refutes the claimed infeasibility: a non-bipartite
        # realisation exists and the builder must report it truthfully.
        bip_exists, nonbip_exists = oracle_all_realisations((0, 1, 2))
        assert nonbip_exists
        r3 = build_realisation(GroundSet.of(0, 1, 2))
        assert r3.non_bipartite == nonbip_exists
        assert verify_iasgl(r3.graph, r3.labeling).passed
        print("note: exhaustive assignment enumeration at X={0,1,2} finds a "
              "non-bipartite realisation; the builder reports the flag honestly")
        # A genuine infeasibility, recorded rather than hidden: at
        # X = {0,1} every target is forced onto the hub, so only the
        # bipartite K(1,2) exists.
        r2 = build_realisation(GroundSet.of(0, 1))
        assert not r2.non_bipartite


def test_criterion_8_property_suites():
    with criterion(8, "randomized property suites, zero violations", 120.0):
        rng = random.Random(20240817)

        def random_set() -> IntegerSet:
            size = rng.randint(1, 6)
            return IntegerSet.from_iterable(rng.randint(0, 40) for _ in range(size))

        for _ in range(10_000):
            a, b = random_set(), random_set()
            s = sumset(a, b)
            assert s == sumset(b, a)
            assert set(s) == naive_sumset(set(a), set(b))
            assert max(len(a), len(b)) <= len(s) <= len(a) * len(b)
            c = rng.randint(1, 8)
            scaled = sumset(
                IntegerSet.from_iterable(c * e for e in a),
                IntegerSet.from_iterable(c * e for e in b),
            )
            assert scaled == IntegerSet.from_iterable(c * e for e in s)
            assert sumset(iset(0), a) == a

        graphs = [generate("star", 2), generate("star", 6), generate("path", 4),
                  generate("cycle", 4), generate("cycle", 6)]
        grounds = [GroundSet.of(0, 1), GroundSet.of(0, 1, 2), GroundSet.of(0, 1, 2, 3)]
        for _ in range(2_000):
            graph = rng.choice(graphs)
            x = rng.choice(grounds)
            subsets = enumerate_nonempty_subsets(x)
            labeling = Labeling.from_mapping(
                x, {vid: rng.choice(subsets) for vid in graph.vertex_ids}
            )
            iasl = verify_iasl(graph, labeling).passed
            iasi = verify_iasi(graph, labeling).passed
            iasgl = verify_iasgl(graph, labeling).passed
            assert (not iasgl or iasi) and (not iasi or iasl)

        def sweep_snapshot() -> str:
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
        cold = sweep_snapshot()
        warm = sweep_snapshot()
        assert cold == warm
