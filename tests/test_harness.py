"""Theorem harness: statuses, evidence, determinism, budgets."""

import math

import pytest

import iasgl.search
from iasgl import harness
from iasgl.harness import (
    COMPLETE_RANGE,
    CONFIRMED,
    FIXED_SWEEP_N,
    PATH_CYCLE_RANGE,
    REFUTED,
    UNKNOWN,
    HarnessConfig,
    TheoremReport,
    CheckResult,
    WitnessTally,
    check_complete_graphs,
    check_edge_count,
    check_path_cycle,
    check_pendant_bounds,
    check_star_theorem,
    check_tree_theorem,
    diophantine_solutions,
    run_all,
)
from iasgl.graphs import FREE_TREE_CAP, generate
from iasgl.labeling import GateReport, Labeling
from iasgl.search import SearchOutcome, SearchStats, SearchStatus
from iasgl.sets import GroundSet, subset_algebra

from conftest import iset


class TestDiophantine:
    def test_known_square_at_n2_only(self):
        assert diophantine_solutions(30) == [(2, 1, "minus")]

    def test_n10_discriminant_not_square(self):
        d = 2 ** 14 - 15
        assert d == 16369
        s = math.isqrt(d)
        assert s * s != d

    def test_direct_loop_oracle_agrees(self):
        """Independent route: try every odd k directly."""
        found = []
        for n in range(0, 31):
            power = 1 << n
            k = 1
            while 4 * k * k - k + 1 <= power:
                if 4 * k * k + k + 1 == power:
                    found.append((n, k, "plus"))
                if 4 * k * k - k + 1 == power:
                    found.append((n, k, "minus"))
                k += 2
        assert sorted(found) == diophantine_solutions(30)


class TestChecks:
    def test_star_theorem(self):
        results = check_star_theorem(HarnessConfig(n_range=(2, 3), max_element=6), WitnessTally())
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
        results = check_star_theorem(HarnessConfig(n_range=(2, 3), max_element=6), WitnessTally())
        assert calls == [(1, 2), (5, 3)]
        converse = next(r for r in results if r.check_id == "star-theorem/converse")
        assert converse.status == CONFIRMED
        assert converse.evidence == (
            "edge-count rule rejects K(1,m) for m in [1, 3, 4, 5] at every n in range"
        )

    def test_star_converse_refuted_when_gate_passes(self, monkeypatch):
        monkeypatch.setattr(harness, "structural_gate", lambda g, x: GateReport())
        results = check_star_theorem(HarnessConfig(n_range=(2, 3), max_element=6), WitnessTally())
        converse = next(r for r in results if r.check_id == "star-theorem/converse")
        assert converse.status == REFUTED
        assert converse.evidence == "edge-count rule failed to reject K(1,1) at n=2"

    def test_tree_theorem_m3_m7(self):
        results = check_tree_theorem(
            HarnessConfig(tree_sizes=(3, 7), max_element=6), WitnessTally()
        )
        assert [r.status for r in results] == [CONFIRMED, CONFIRMED]

    def test_tree_theorem_m6_vertex_gate(self):
        (result,) = check_tree_theorem(
            HarnessConfig(tree_sizes=(6,), max_element=6), WitnessTally()
        )
        assert result.status == CONFIRMED
        assert "not a power of two" in result.evidence

    def test_tree_theorem_m15_budget(self):
        (result,) = check_tree_theorem(
            HarnessConfig(tree_sizes=(15,), max_element=6), WitnessTally()
        )
        assert result.status == UNKNOWN

    def test_path_cycle(self):
        results = check_path_cycle(HarnessConfig(max_element=6))
        assert all(r.status == CONFIRMED for r in results)
        p3 = next(r for r in results if r.check_id == "path-nonexistence/m=3")
        assert "K(1,2)" in p3.evidence  # the star-path exception is explicit
        c6 = next(r for r in results if r.check_id == "cycle-nonexistence/m=6")
        assert "contradiction" in c6.evidence

    def test_complete_graphs(self):
        results = check_complete_graphs(HarnessConfig())
        assert all(r.status == CONFIRMED for r in results)
        k4 = next(r for r in results if r.check_id == "complete/exhaustive-K4")
        assert "exhaustively refuted" in k4.evidence

    def test_pendant_bounds(self):
        # The star check's pass fills the tally: one star witness and
        # one realisation per ground set.
        tally = WitnessTally()
        check_star_theorem(HarnessConfig(n_range=(2, 3), max_element=6), tally)
        results = check_pendant_bounds(tally)
        assert all(r.status == CONFIRMED for r in results)
        assert "all 12 canonical ground sets" in results[0].evidence
        assert results[1].evidence.startswith("24 witnesses")

    def test_edge_count_standalone(self):
        tally = WitnessTally()
        check_star_theorem(HarnessConfig(n_range=(2, 3)), tally)
        (result,) = check_edge_count(tally)
        assert result.status == CONFIRMED

    def test_tally_refutes_bad_witnesses(self):
        # Star K(1,2) over {0,1} with no {0}-labeled vertex (the Labeling
        # type does not enforce injectivity), then claimed over {0,1,2}.
        x01 = GroundSet.of(0, 1)
        star = generate("star", 2)
        labels = Labeling.from_mapping(
            x01, {"v0": iset(1), "v1": iset(1), "v2": iset(0, 1)}
        )
        tally = WitnessTally()
        tally.add_witness(x01, star, labels)
        tally.add_witness(GroundSet.of(0, 1, 2), star, labels)
        (pendant,) = [
            r for r in check_pendant_bounds(tally) if r.check_id == "pendant-bounds/witnesses"
        ]
        assert pendant.status == REFUTED
        assert "no {0}-labeled vertex" in pendant.evidence
        (edges,) = check_edge_count(tally)
        assert edges.status == REFUTED
        assert edges.evidence == "witness over {0,1,2} has 2 edges, expected 6"


class TestRunAll:
    def test_default_all_confirmed(self):
        report = run_all(HarnessConfig(n_range=(2, 3), max_element=6))
        assert report.refuted == 0
        assert report.totals[REFUTED] == 0
        assert report.totals[CONFIRMED] == len(report.checks)
        evidence = {c.check_id: c.evidence for c in report.checks}
        assert "all 12 canonical ground sets" in evidence["pendant-bounds/classification"]
        # 12 star witnesses, 1 + 11 tree stars (m = 3, 7), 12 realisations.
        assert evidence["pendant-bounds/witnesses"].startswith("36 witnesses")
        assert evidence["edge-count"].startswith("36 witnesses")

    def test_one_kernel_build_per_ground_set(self):
        # 74 canonical ground sets with n = 2..4, max 8, of 1 + 2 + 7
        # additive types; every X of a type shares its kernel.
        subset_algebra.cache_clear()
        run_all(HarnessConfig())
        assert subset_algebra.cache_info().misses == 10

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

    def test_fixed_sweep_n_is_largest_fixed_sweep(self):
        # Edge counts of P_m and C_m, K_m, and the trees on m vertices.
        lo, hi = PATH_CYCLE_RANGE
        edges = [m - 1 for m in range(lo, hi + 1)] + list(range(lo, hi + 1))
        edges += [m * (m - 1) // 2 for m in range(COMPLETE_RANGE[0], COMPLETE_RANGE[1] + 1)]
        edges += [m - 1 for m in range(2, FREE_TREE_CAP + 1)]
        swept = [(e + 2).bit_length() - 1 for e in edges if (e + 2) & (e + 1) == 0]
        assert max(swept) == FIXED_SWEEP_N

    def test_bounds_recorded(self):
        config = HarnessConfig(n_range=(2, 3), max_element=6, tree_sizes=(3,))
        report = run_all(config)
        assert report.bounds["n_range"] == [2, 3]
        assert report.bounds["max_element"] == 6

    def test_budget_degrades_to_unknown(self, monkeypatch):
        monkeypatch.setattr(harness, "NODE_BUDGET", 5)
        config = HarnessConfig(n_range=(4, 4), max_element=8)
        results = check_star_theorem(config, WitnessTally())
        forward = next(r for r in results if "forward" in r.check_id)
        assert forward.status == UNKNOWN
        # At one node per search, the searches that pass the gate stop at
        # their first node; the gate still rejects P_7 and C_6 outright.
        monkeypatch.setattr(harness, "NODE_BUDGET", 1)
        results = check_tree_theorem(config, WitnessTally())
        results += check_path_cycle(config) + check_complete_graphs(config)
        status = {r.check_id: r.status for r in results}
        for check_id in ("tree-theorem/m=7", "path-nonexistence/m=3", "complete/exhaustive-K4"):
            assert status[check_id] == UNKNOWN
        assert REFUTED not in status.values()

    @pytest.mark.parametrize("check,check_id,contradiction", [
        (lambda c: check_star_theorem(c, WitnessTally()), "star-theorem/forward-n=3",
         SearchStatus.EXHAUSTED_NONE),
        (lambda c: check_tree_theorem(c, WitnessTally()), "tree-theorem/m=7",
         SearchStatus.EXHAUSTED_NONE),
        (check_path_cycle, "path-nonexistence/m=7", SearchStatus.FOUND),
        (check_path_cycle, "cycle-nonexistence/m=6", SearchStatus.FOUND),
        (check_complete_graphs, "complete/exhaustive-K4", SearchStatus.FOUND),
    ], ids=["star", "tree", "path", "cycle", "complete"])
    def test_budget_stop_cannot_hide_a_counterexample(
        self, check, check_id, contradiction, monkeypatch
    ):
        # The interval ground set {0..n-1} hits the budget; every other
        # ground set answers definitely against the claim.
        def search(g, x, cfg, memo=None):
            interval = x == GroundSet.of(*range(x.n))
            status = SearchStatus.BUDGET_EXCEEDED if interval else contradiction
            return SearchOutcome(status, [], SearchStats())

        monkeypatch.setattr(harness, "search_iasgl", search)
        # check_path_cycle and check_complete_graphs search through
        # sweep_ground_sets, which calls the search module's own name.
        monkeypatch.setattr(iasgl.search, "search_iasgl", search)
        config = HarnessConfig(n_range=(3, 3), max_element=6, tree_sizes=(7,))
        (result,) = [r for r in check(config) if r.check_id == check_id]
        assert result.status == REFUTED
