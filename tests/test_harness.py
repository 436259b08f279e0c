"""Theorem harness: statuses, evidence, determinism, budgets."""

import contextlib
import hashlib
import io
import math

import pytest

import iasgl.search
from iasgl import harness
from iasgl.harness import (
    CONFIRMED,
    FIXED_SWEEP_N,
    REFUTED,
    TREE_ORDER,
    UNKNOWN,
    HarnessConfig,
    TheoremReport,
    CheckResult,
    check_complete_graphs,
    check_path_cycle,
    check_star_theorem,
    check_tree_theorem,
    complete_graph_solutions,
    run_all,
)
from iasgl.graphs import FREE_TREE_CAP, family_edge_count, generate
from iasgl.labeling import GateReport
from iasgl.search import SearchOutcome, SearchStats, SearchStatus
from iasgl.cli import main
from iasgl.sets import (
    GroundSet,
    additive_type,
    classify_ground_set,
    enumerate_canonical_ground_sets,
    subset_algebra,
)

from conftest import count_calls, is_isomorphic


class TestCompleteGraphEquation:
    def test_solver_matches_isqrt_scan(self):
        """m(m-1)/2 = 2^n - 2 iff (2m-1)^2 = 2^(n+3) - 15: a square root
        scan of every exponent below 2,000 finds the solver's pairs."""
        scan = []
        for n in range(2000):
            d = (1 << (n + 3)) - 15
            if d > 0 and math.isqrt(d) ** 2 == d:
                m = (math.isqrt(d) + 1) // 2
                assert m * (m - 1) // 2 == (1 << n) - 2
                scan.append((m, n))
        assert complete_graph_solutions() == scan == [(1, 1), (4, 3)]

    @pytest.mark.parametrize("solutions,wrong", [
        ([(0, 1), (1, 1), (4, 3)], "[(0, 1)]"),  # K_0: the equation holds, the order is new
        ([(1, 1), (4, 4)], "[(4, 4)]"),  # 6 edges, not 2^4 - 2
    ], ids=["extra-order", "false-pair"])
    def test_edge_count_refuted_when_the_solver_errs(self, solutions, wrong, monkeypatch):
        monkeypatch.setattr(harness, "complete_graph_solutions", lambda: solutions)
        edge_count, k4 = check_complete_graphs(HarnessConfig(max_element=6))
        assert (edge_count.check_id, edge_count.status) == ("complete/edge-count", REFUTED)
        assert edge_count.evidence.startswith(f"solutions {wrong} fail")
        assert k4.status == CONFIRMED


class TestChecks:
    def test_star_theorem(self):
        results = check_star_theorem(HarnessConfig(n_range=(2, 3), max_element=6))
        assert all(r.status == CONFIRMED for r in results)
        ids = [r.check_id for r in results]
        assert "star-theorem/forward-n=2" in ids
        assert "star-theorem/converse" in ids

    def test_star_converse_gates_once_per_n(self, monkeypatch):
        # Sizes that match no n are rejected by arithmetic; only the
        # spot-check K(1, 2^n - 3) over {0..n-1} reaches the gate.
        calls = []
        gate = harness.structural_gate

        def counted(g, x):
            calls.append((g.edge_count(), x.n))
            return gate(g, x)

        monkeypatch.setattr(harness, "structural_gate", counted)
        results = check_star_theorem(HarnessConfig(n_range=(2, 3), max_element=6))
        assert calls == [(1, 2), (5, 3)]
        converse = next(r for r in results if r.check_id == "star-theorem/converse")
        assert converse.status == CONFIRMED
        assert converse.evidence == (
            "edge-count rule rejects K(1,m) for every m <= 6 except 2^k - 2, k = 2..3, "
            "at every n in range"
        )

    def test_star_converse_refuted_when_gate_passes(self, monkeypatch):
        monkeypatch.setattr(harness, "structural_gate", lambda g, x: GateReport())
        results = check_star_theorem(HarnessConfig(n_range=(2, 3), max_element=6))
        converse = next(r for r in results if r.check_id == "star-theorem/converse")
        assert converse.status == REFUTED
        assert converse.evidence == "edge-count rule failed to reject K(1,1) at n=2"

    def test_tree_theorem_m7(self):
        results = check_tree_theorem(HarnessConfig(max_element=6))
        assert [(r.check_id, r.status) for r in results] == [("tree-theorem/m=7", CONFIRMED)]

    def test_tree_orders_are_the_star_orders_within_the_cap(self, monkeypatch):
        # A tree on m vertices has m - 1 edges, so R1 leaves m = 2^n - 1.
        # Within the free-tree enumerator's cap that is m = 3 and m = 7.
        # The tree row sweeps the one at n = FIXED_SWEEP_N; the one tree
        # on 3 vertices is K(1,2), which star-theorem/forward-n=2 finds.
        orders = [m for m in range(2, FREE_TREE_CAP + 1) if m & (m + 1) == 0]
        assert TREE_ORDER == (1 << FIXED_SWEEP_N) - 1 == 7
        assert orders == [3, TREE_ORDER]
        (k12,) = harness.enumerate_free_trees(3)
        assert is_isomorphic(k12, generate("star", 2))
        forward = check_star_theorem(HarnessConfig(n_range=(2, 2), max_element=6))[0]
        assert (forward.check_id, forward.status) == ("star-theorem/forward-n=2", CONFIRMED)
        assert forward.evidence == "K(1,2) found for all 1 canonical ground sets"

        enumerated = []
        trees = harness.enumerate_free_trees
        monkeypatch.setattr(
            harness, "enumerate_free_trees", lambda m: enumerated.append(m) or trees(m)
        )
        (row,) = check_tree_theorem(HarnessConfig(max_element=6))
        assert enumerated == [TREE_ORDER]
        assert row.check_id == "tree-theorem/m=7"
        assert row.evidence.startswith("11 trees on 7 vertices: the star admits for all 11 ")

    def test_path_cycle(self):
        p7, c6 = check_path_cycle(HarnessConfig(max_element=6))
        assert {p7.status, c6.status} == {CONFIRMED}
        assert [p7.check_id, c6.check_id] == ["path-nonexistence/m=7", "cycle-nonexistence/m=6"]
        # The star-path exception stays in the anchor; the star row decides it.
        assert p7.anchor.endswith("P_3 = K(1,2) is the exception")
        # The sweeps stand for every order through the triangle theorem.
        for row in (p7, c6):
            assert row.evidence.startswith("all 11 canonical ground sets at n=3")
            assert row.evidence.endswith("so none admits at any n (triangle theorem)")

    def test_complete_graphs(self):
        edge_count, k4 = check_complete_graphs(HarnessConfig())
        assert {edge_count.status, k4.status} == {CONFIRMED}
        assert edge_count.check_id == "complete/edge-count"
        assert "only at (m, n) in [(1, 1), (4, 3)] for every n" in edge_count.evidence
        assert k4.check_id == "complete/exhaustive-K4"
        assert "exhaustively refuted" in k4.evidence

    def test_pendant_bounds(self):
        # The star check's pass over the ground sets returns the
        # classification row last.
        results = check_star_theorem(HarnessConfig(n_range=(2, 3), max_element=6))
        classification = results[-1]
        assert (classification.check_id, classification.status) == (
            "pendant-bounds/classification", CONFIRMED
        )
        assert classification.evidence == (
            "|neither| >= n - 1 for all 12 canonical ground sets in range"
        )

    def test_classification_refuted_when_an_x_is_short_of_neither(self, monkeypatch):
        # A kernel that gives {0,1,3} an empty neither family: the row the
        # star check returns names that X, and only its status changes.
        short = additive_type(GroundSet.of(0, 1, 3))

        class Short:
            def __init__(self, alg):
                self.alg = alg

            def class_masks(self):
                return (*self.alg.class_masks()[:2], ())

        monkeypatch.setattr(
            harness, "subset_algebra",
            lambda key: Short(subset_algebra(key)) if key == short else subset_algebra(key),
        )
        results = check_star_theorem(HarnessConfig(n_range=(2, 3), max_element=6))
        classification = results[-1]
        assert (classification.check_id, classification.status) == (
            "pendant-bounds/classification", REFUTED
        )
        assert classification.evidence == "|neither| = 0 < 2 at X = {0,1,3}"
        assert all(r.status == CONFIRMED for r in results[:-1])

    def test_neither_is_the_classification_family(self, monkeypatch):
        # The star check counts the neither family of every X of the
        # theorems-breadth family, off the kernel of X's additive type:
        # the family classify_ground_set reports for X.
        seen = []
        kernel_key = harness.additive_type

        def record(x):
            seen.append(x)
            return kernel_key(x)

        monkeypatch.setattr(harness, "additive_type", record)
        check_star_theorem(HarnessConfig(n_range=(2, 5), max_element=10))
        family = [x for n in range(2, 6) for x in enumerate_canonical_ground_sets(n, 10)]
        assert seen == family and len(family) == 346
        for x in family:
            neither = subset_algebra(additive_type(x)).class_masks()[2]
            assert len(neither) == len(classify_ground_set(x).neither)

    def test_tree_theorem_refuted_without_a_star(self, monkeypatch):
        trees = harness.enumerate_free_trees

        def starless(m):
            return [t for t in trees(m) if max(map(t.degree, t.vertex_ids)) < m - 1]

        monkeypatch.setattr(harness, "enumerate_free_trees", starless)
        result = check_tree_theorem(HarnessConfig(max_element=6))[-1]
        assert (result.check_id, result.status) == ("tree-theorem/m=7", REFUTED)
        assert result.evidence.startswith(
            "tree family on 7 vertices violated the star characterization (stars=0, found=0/"
        )


class TestRunAll:
    def test_default_all_confirmed(self):
        report = run_all(HarnessConfig(n_range=(2, 3), max_element=6))
        assert report.refuted == 0
        assert report.totals[REFUTED] == 0
        assert report.totals[CONFIRMED] == len(report.checks)
        evidence = {c.check_id: c.evidence for c in report.checks}
        assert "all 12 canonical ground sets" in evidence["pendant-bounds/classification"]
        # Verification decides the edge count and pendant placement of
        # every witness (module docstring): no row restates them.
        assert len(report.checks) == 9
        assert not {"edge-count", "pendant-bounds/witnesses"} & set(evidence)

    def test_one_kernel_build_per_ground_set(self):
        # 74 canonical ground sets with n = 2..4, max 8, of 1 + 2 + 7
        # additive types; every X of a type shares its kernel.
        subset_algebra.cache_clear()
        run_all(HarnessConfig())
        assert subset_algebra.cache_info().misses == 10

    def test_one_decision_per_type(self, monkeypatch):
        # The theorems-breadth input (n = 2..5, max 10): every search of
        # one (graph, config, type) after the first is mapped from the
        # kept result. Counted as calls of the search's uncached core, so
        # a cache that is too small or wrongly keyed fails here. No
        # realisation is built: every call passes the build's cache
        # (emptied before each test).
        import iasgl.realisation

        searches = count_calls(monkeypatch, iasgl.search, "_decide")
        report = run_all(HarnessConfig(n_range=(2, 5), max_element=10))
        assert all(c.status == CONFIRMED for c in report.checks)
        builds = iasgl.realisation._build.cache_info()
        assert (searches[0], builds.hits + builds.misses) == (73, 0)

    @pytest.mark.parametrize("fmt,expected", [
        ("json", "a77a8574a3e466c503224b7f30839bbd4c720f8d8084c945da83e3c6282378b2"),
        ("table", "b62627b45b097e1dec5e15e5a1c76ea9c0d5f20f8f5cc5a10aacf34a209dbb2c"),
    ], ids=["json", "table"])
    def test_theorems_output_pinned(self, fmt, expected):
        """The CLI theorems report at the benchmark's bounds (n = 2..5,
        max 10) hashes to a pinned digest in each format, so any change
        to a check, its evidence or its order shows."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["theorems", "--n-max", "5", "--max-element", "10", "--format", fmt]) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == expected

    def test_report_determinism(self):
        config = HarnessConfig(n_range=(2, 3), max_element=6)
        a = run_all(config).to_obj()
        b = run_all(config).to_obj()
        assert a == b

    def test_unique_check_ids(self):
        report = run_all(HarnessConfig(n_range=(2, 3), max_element=6))
        ids = [c.check_id for c in report.checks]
        assert len(set(ids)) == len(ids)

    def test_duplicate_ids_rejected(self):
        dup = CheckResult("x", "a", CONFIRMED, "e")
        with pytest.raises(ValueError, match="duplicate check id"):
            TheoremReport(checks=[dup, dup], bounds={})

    def test_fixed_sweep_n_is_largest_fixed_sweep(self, monkeypatch):
        # The path and cycle rows are exactly the P_m and C_m (m >= 3)
        # with 2^n - 2 edges at n = FIXED_SWEEP_N, and FIXED_SWEEP_N is
        # the n of the tree order and of K_4.
        rule = [
            f"{kind}-nonexistence/m={m}"
            for kind in ("path", "cycle")
            for m in range(3, 1 << (FIXED_SWEEP_N + 2))
            if family_edge_count(kind, m) == (1 << FIXED_SWEEP_N) - 2
        ]
        rows = check_path_cycle(HarnessConfig(n_range=(2, 2), max_element=6))
        assert [r.check_id for r in rows] == rule == [
            "path-nonexistence/m=7", "cycle-nonexistence/m=6"
        ]
        k4_n = max(n for m, n in complete_graph_solutions() if m >= 2)
        assert FIXED_SWEEP_N == TREE_ORDER.bit_length() == k4_n
        # Every sweep outside n_range runs at FIXED_SWEEP_N: the 11 trees
        # on 7 vertices, P_7, C_6 and K_4.
        sizes = []
        sweep = harness.sweep_ground_sets

        def counted(g, n, max_element, cfg):
            sizes.append((len(g.vertex_ids), n))
            return sweep(g, n, max_element, cfg)

        monkeypatch.setattr(harness, "sweep_ground_sets", counted)
        run_all(HarnessConfig(n_range=(2, 2), max_element=6))
        assert {n for _, n in sizes} == {FIXED_SWEEP_N}
        assert [v for v, _ in sizes] == [7] * 11 + [7, 6, 4]

    def test_bounds_recorded(self):
        config = HarnessConfig(n_range=(2, 3), max_element=6)
        report = run_all(config)
        assert report.bounds["n_range"] == [2, 3]
        assert report.bounds["max_element"] == 6
        assert report.bounds["tree_sizes"] == [TREE_ORDER] == [7]
        # The path, cycle and complete rows hold for every order: no range.
        assert sorted(report.bounds) == ["max_element", "n_range", "tree_sizes"]

    def test_budget_degrades_to_unknown(self, monkeypatch):
        monkeypatch.setattr(harness, "NODE_BUDGET", 5)
        config = HarnessConfig(n_range=(4, 4), max_element=8)
        results = check_star_theorem(config)
        forward = next(r for r in results if "forward" in r.check_id)
        assert forward.status == UNKNOWN
        # At one node per search, the searches that pass the gate stop at
        # their first node; the gate still rejects P_7 and C_6 outright,
        # and the complete edge count needs no search.
        monkeypatch.setattr(harness, "NODE_BUDGET", 1)
        results = check_tree_theorem(config)
        results += check_path_cycle(config) + check_complete_graphs(config)
        status = {r.check_id: r.status for r in results}
        assert status == {
            "tree-theorem/m=7": UNKNOWN,
            "path-nonexistence/m=7": CONFIRMED,
            "cycle-nonexistence/m=6": CONFIRMED,
            "complete/edge-count": CONFIRMED,
            "complete/exhaustive-K4": UNKNOWN,
        }

    @pytest.mark.parametrize("check,check_id,contradiction", [
        (check_star_theorem, "star-theorem/forward-n=3", SearchStatus.EXHAUSTED_NONE),
        (check_tree_theorem, "tree-theorem/m=7", SearchStatus.EXHAUSTED_NONE),
        (check_path_cycle, "path-nonexistence/m=7", SearchStatus.FOUND),
        (check_path_cycle, "cycle-nonexistence/m=6", SearchStatus.FOUND),
        (check_complete_graphs, "complete/exhaustive-K4", SearchStatus.FOUND),
    ], ids=["star", "tree", "path", "cycle", "complete"])
    def test_budget_stop_cannot_hide_a_counterexample(
        self, check, check_id, contradiction, monkeypatch
    ):
        # The interval ground set {0..n-1} hits the budget; every other
        # ground set answers definitely against the claim.
        def search(g, x, cfg):
            interval = x == GroundSet.of(*range(x.n))
            status = SearchStatus.BUDGET_EXCEEDED if interval else contradiction
            return SearchOutcome(status, [], SearchStats())

        monkeypatch.setattr(harness, "search_iasgl", search)
        # The tree, path, cycle and complete checks search through
        # sweep_ground_sets, which calls the search module's own name.
        monkeypatch.setattr(iasgl.search, "search_iasgl", search)
        config = HarnessConfig(n_range=(3, 3), max_element=6)
        (result,) = [r for r in check(config) if r.check_id == check_id]
        assert result.status == REFUTED
