"""Document round-trips, DOT output, and the CLI exit-code contract."""

import argparse
import contextlib
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import iasgl.io
import iasgl.search
from iasgl import cli
from iasgl.cli import EXIT_INTERNAL_ERROR, main
from iasgl.io import (
    Document,
    document_from_graph,
    dump_document,
    load_document,
    parse_document,
    to_dot,
)
from iasgl.graphs import generate
from iasgl.labeling import verify_iasgl
from iasgl.realisation import build_realisation
from iasgl.sets import GroundSet, IntegerSet

from conftest import count_calls, iset, summed_edges


needs_int_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-decimal digit limit"
)


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift the interpreter's int-to-decimal digit limit, where it exists,
    for the block: reading an orbit count of more than 4,300 digits."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


#: K(1,2) over {0,1}, a valid IASGL document.
STAR_DOC = {
    "vertices": [{"id": "c", "label": [0]}, {"id": "a", "label": [1]}, {"id": "b", "label": [0, 1]}],
    "edges": [["c", "a"], ["c", "b"]],
    "ground_set": [0, 1],
}


#: A star at b with leaves a, b--c, c--b, b--a, a--c, plus the edge
#: a–c--b: a--c–b and a–c--b share the edge label key "a--c--b".
DASHED_IDS_GRAPH = {
    "vertices": ["b", "a", "b--c", "c--b", "b--a", "a--c"],
    "edges": [["b", "a"], ["b", "b--c"], ["b", "c--b"], ["b", "b--a"], ["b", "a--c"],
              ["a", "c--b"]],
}


class TestDocument:
    def test_round_trip(self, x012, tmp_path):
        r = build_realisation(x012)
        doc = document_from_graph(r.graph, r.labeling)
        path = tmp_path / "doc.json"
        dump_document(doc, path)
        back = load_document(path)
        assert back == doc

    def test_parse_bare_graph_schema(self):
        doc = parse_document(
            {"vertices": ["v0", "v1"], "edges": [["v1", "v0"]]}
        )
        g = doc.to_graph()
        assert g.edge_count() == 1
        with pytest.raises(ValueError, match="ground_set"):
            doc.to_labeling()

    def test_parse_labels_block(self):
        doc = parse_document(
            {
                "vertices": ["v0", "v1"],
                "edges": [["v0", "v1"]],
                "ground_set": [0, 1],
                "labels": {"v0": [0], "v1": [1]},
            }
        )
        f = doc.to_labeling()
        assert f.label_of("v1") == iset(1)

    def test_missing_labels_rejected(self):
        doc = Document(vertices=[("v0", iset(0)), ("v1", None)],
                       edges=[("v0", "v1")], ground_set=iset(0, 1))
        with pytest.raises(ValueError, match="without labels"):
            doc.to_labeling()

    def test_bad_payloads(self):
        with pytest.raises(ValueError):
            parse_document({"vertices": ["a"]})
        with pytest.raises(ValueError):
            parse_document({"vertices": [1.5], "edges": []})
        with pytest.raises(ValueError):
            parse_document({"vertices": ["a", "b"], "edges": [["a"]]})


class TestDot:
    def test_deterministic_and_labeled(self, x01):
        r = build_realisation(x01)
        dot = to_dot(document_from_graph(r.graph, r.labeling))
        assert dot == to_dot(document_from_graph(r.graph, r.labeling))
        assert dot.startswith('graph "realisation" {')
        assert dot.rstrip().endswith("}")
        assert '"v0" [label="{0}"];' in dot
        assert "--" in dot

    def test_braces_balanced(self, x0123):
        r = build_realisation(x0123)
        dot = to_dot(document_from_graph(r.graph, r.labeling))
        assert dot.count("{") == dot.count("}")
        lines = dot.strip().splitlines()
        assert len(lines) == 1 + len(r.graph.vertex_ids) + r.graph.edge_count() + 1

    def test_construct_dot_reads_the_documents_edge_labels(self, tmp_path, capsys, monkeypatch):
        # Each of the 14 edges over {0,1,2,3} is summed once, for the
        # document; the DOT text reads its labels off it.
        summed = count_calls(monkeypatch, iasgl.io, "induced_edge_label")
        out, dot = tmp_path / "r.json", tmp_path / "r.dot"
        assert main(["construct", "--ground-set", "0,1,2,3", "--out", str(out),
                     "--dot", str(dot)]) == 0
        assert summed[0] == 14
        edge_labels = json.loads(out.read_text())["edge_labels"]
        drawn = {
            f"{u}--{v}": json.loads(lab.replace("{", "[").replace("}", "]"))
            for u, v, lab in re.findall(r'"(\S+)" -- "(\S+)" \[label="(\S+)"\];', dot.read_text())
        }
        assert drawn == edge_labels and len(drawn) == 14


class TestCli:
    def test_classify_json(self, capsys):
        assert main(["classify", "--ground-set", "0,1,2,3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["neither"] == [[0, 3], [0, 1, 3], [0, 2, 3]]
        assert payload["counts"]["non_sumsets"] == 8

    def test_classify_requires_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["classify", "--ground-set", "1,2"])
        assert err.value.code == 2

    def test_classify_allow_equal(self, capsys):
        assert main(["classify", "--ground-set", "0,1,2", "--allow-equal-summands"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [2] not in payload["non_sumsets"]  # {2} = {1} + {1} now counts

    def test_classify_warns_on_duplicates(self, capsys):
        assert main(["classify", "--ground-set", "0,1,1,2"]) == 0
        assert "duplicate" in capsys.readouterr().err

    def test_singleton_ground_set_is_usage_error(self, capsys):
        big = ",".join(map(str, range(21)))
        for argv in (["classify", "--ground-set", "0"],
                     ["construct", "--ground-set", "0"],
                     ["search", "--graph", "star:6", "--ground-set", big]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2

    def test_search_star_writes_witness(self, tmp_path, capsys):
        out = tmp_path / "witness.json"
        code = main(["search", "--graph", "star:6", "--ground-set", "0,1,2",
                     "--out", str(out)])
        assert code == 0
        doc = load_document(out)
        assert len(doc.vertices) == 7
        assert doc.edge_labels

    def test_search_sweep_exit_one(self, capsys):
        code = main(["search", "--graph", "cycle:6", "--ground-set", "sweep:n=3,max=6"])
        assert code == 1

    @pytest.mark.parametrize("spec", ["sweep:n=4,max=5", "sweep:max=5,n=4"])
    def test_sweep_spec_parses(self, spec):
        assert cli._parse_sweep(spec, argparse.ArgumentParser()) == (4, 5)

    def test_search_gate_rejected_exit_three(self, capsys):
        assert main(["search", "--graph", "cycle:6", "--ground-set", "0,1,2"]) == 3

    def test_search_budget_exit_two(self, capsys):
        code = main(["search", "--graph", "star:6", "--ground-set", "0,1,2",
                     "--node-budget", "1"])
        assert code == 2

    def test_search_sweep_budget_exit_two(self, capsys):
        code = main(["search", "--graph", "star:6", "--ground-set", "sweep:n=3,max=4",
                     "--node-budget", "1"])
        assert code == 2

    def test_search_names_the_budget_that_stopped_it(self, capsys):
        # K(1,14) over {0,1,2,3}: 100 nodes find its canonical witness,
        # and the node budget ends the DFS (16,422 nodes in all) early.
        argv = ["search", "--graph", "star:14", "--ground-set", "0,1,2,3", "--find-all"]
        assert main([*argv, "--node-budget", "100"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["status"], payload["budget_stop"]) == ("found", "node")
        assert main([*argv, "--node-budget", "100", "--format", "table"]) == 0
        assert "budget   node" in capsys.readouterr().out.splitlines()
        plain = ["search", "--graph", "star:14", "--ground-set", "0,1,2,3"]
        # A search run to its end, then the same search answered from
        # the kept outcome: neither was stopped.
        for _ in range(2):
            assert main(plain) == 0
            assert json.loads(capsys.readouterr().out)["budget_stop"] is None
        assert main([*plain, "--format", "table"]) == 0
        assert "budget   none" in capsys.readouterr().out.splitlines()

    def test_search_sweep_items_name_their_budget_stop(self, capsys):
        argv = ["search", "--graph", "star:6", "--ground-set", "sweep:n=3,max=4"]
        assert main([*argv, "--node-budget", "1"]) == 2
        items = json.loads(capsys.readouterr().out)["sweep"]
        assert [i["outcome"]["budget_stop"] for i in items] == ["node"] * len(items)
        # 5 ground sets of 2 types: 3 outcomes are kept ones, mapped.
        assert main(argv) == 0
        items = json.loads(capsys.readouterr().out)["sweep"]
        assert [i["outcome"]["budget_stop"] for i in items] == [None] * 5

    def test_search_find_all(self, capsys):
        code = main(["search", "--graph", "star:2", "--ground-set", "0,1",
                     "--find-all"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # K(1,2) over {0,1}: center {0}, leaves {1} and {0,1} in either
        # order. The leaves are twins: one witness stands for both.
        assert len(payload["witnesses"]) == 1
        assert payload["labelings"] == 2
        assert main(["search", "--graph", "star:2", "--ground-set", "0,1", "--find-all",
                     "--format", "table"]) == 0
        assert "labelings 2" in capsys.readouterr().out.splitlines()

    def test_search_prints_orbit_counts_of_any_size(self, capsys):
        # 2046! has 5,888 digits, past the interpreter's default limit
        # for converting an int to decimal: the CLI lifts it while it
        # prints and restores it, and a reader must lift it too.
        from math import factorial

        argv = ["search", "--graph", "star:2046", "--ground-set", ",".join(map(str, range(11)))]
        limit = getattr(sys, "get_int_max_str_digits", int)()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert main([*argv, "--format", "table"]) == 0
        table = capsys.readouterr().out.splitlines()
        assert getattr(sys, "get_int_max_str_digits", int)() == limit
        with unlimited_int_digits():
            assert json.loads(out)["labelings"] == factorial(2046)
            assert f"labelings {factorial(2046)}" in table

    @needs_int_digit_limit
    def test_search_file_graph_with_oversized_int_is_usage_error(self, tmp_path, capsys):
        # K2 whose one vertex id is an integer of 300,000 digits: rejected
        # by the digit limit as the document is parsed, as ``verify``
        # rejects it, not converted at quadratic cost and then gated.
        big = "1" + "0" * 299_999
        path = tmp_path / "big-id.json"
        path.write_text(f'{{"vertices": [{{"id": {big}}}, "b"], "edges": [["{big}", "b"]]}}')
        with pytest.raises(SystemExit) as err:
            main(["verify", str(path)])
        assert err.value.code == 2
        detail = capsys.readouterr().err.partition(f"cannot verify {str(path)!r}: ")[2]
        assert "300000 digits" in detail
        start = time.process_time()
        with pytest.raises(SystemExit) as err:
            main(["search", "--graph", f"file:{path}", "--ground-set", "0,1",
                  "--time-budget-ms", "100"])
        assert time.process_time() - start < 1.0
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(f"cannot read graph file {str(path)!r}: {detail}")

    @needs_int_digit_limit
    def test_search_ground_set_with_oversized_int_is_usage_error(self, capsys):
        ground_set = "0,1" + "0" * 5_000  # an element of 5,001 digits
        errors = []
        for argv in (["classify", "--ground-set", ground_set],
                     ["search", "--graph", "star:2", "--ground-set", ground_set]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            line = capsys.readouterr().err.splitlines()[-1]
            assert line.startswith(f"iasgl {argv[0]}: error: ")
            errors.append(line.partition("error: ")[2])
        assert errors[0] == errors[1] == f"malformed ground set: {ground_set!r}"

    def test_search_file_graph(self, tmp_path, capsys):
        k4 = tmp_path / "k4.json"
        k4.write_text(json.dumps({
            "vertices": ["v0", "v1", "v2", "v3"],
            "edges": [["v0", "v1"], ["v0", "v2"], ["v0", "v3"],
                       ["v1", "v2"], ["v1", "v3"], ["v2", "v3"]],
        }))
        assert main(["search", "--graph", f"file:{k4}", "--ground-set", "0,1,3"]) == 3
        capsys.readouterr()
        code = main(["search", "--graph", f"file:{k4}", "--ground-set", "0,1,3",
                     "--no-gate"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "exhausted-none"

    def test_search_bad_specs(self):
        for argv in (
            ["search", "--graph", "blob:4", "--ground-set", "0,1"],
            ["search", "--graph", "star:x", "--ground-set", "0,1"],
            ["search", "--graph", "star:2", "--ground-set", "0,x"],
            ["search", "--graph", "star:2", "--ground-set", "sweep:n=3"],
            ["search", "--graph", "star:2", "--ground-set", "sweep:n=3,max=6,n=4"],
            ["search", "--graph", "star:2", "--ground-set", "sweep:n=3,max=6,foo=1"],
            ["search", "--graph", "star:2", "--ground-set", "sweep:n=3,max=6,bogus"],
            ["search", "--graph", "file:/nonexistent.json", "--ground-set", "0,1"],
        ):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (["classify", "--ground-set", ","], "empty ground set"),
        (["classify", "--ground-set", "0,-1"], "ground set elements must be non-negative"),
        (["search", "--graph", "cycle:2", "--ground-set", "0,1"], "cycle size must be >= 3"),
        (["search", "--graph", "star:0", "--ground-set", "0,1"], "star size must be >= 1"),
        (["search", "--graph", "star:2", "--ground-set", "sweep:n=1,max=5"],
         "ground set cardinality must be at least 2"),
    ], ids=["empty", "negative", "cycle-2", "star-0", "sweep-n-1"])
    def test_malformed_argument_is_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert f"iasgl {argv[0]}: error: {message}\n" in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("argv", [
        ["search", "--graph", "star:2"],  # argparse: --ground-set is required
        ["search", "--graph", "star:2", "--ground-set", "0,x"],  # cmd_search
        ["theorems", "--n-min", "1"],  # HarnessConfig, through cmd_theorems
        ["theorems", "--trees", "3"],  # an argument theorems does not know
    ], ids=["argparse", "handler", "config", "unknown"])
    def test_usage_errors_name_their_command(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith(f"usage: iasgl {argv[0]} [-h]")
        assert lines[-1].startswith(f"iasgl {argv[0]}: error: ")

    @pytest.mark.parametrize("flag", [["--node-budget", "0"], ["--time-budget-ms", "-5"]])
    def test_search_bad_budget_is_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as err:
            main(["search", "--graph", "star:2", "--ground-set", "0,1", *flag])
        assert err.value.code == 2
        assert "budgets must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("ground_set", ["0,1", "sweep:n=2,max=3"])
    def test_search_time_budget_above_float_range_is_usage_error(self, ground_set, capsys):
        # 10^309 ms has no float deadline.
        with pytest.raises(SystemExit) as err:
            main(["search", "--graph", "star:2", "--ground-set", ground_set,
                  "--time-budget-ms", "1" + "0" * 309])
        assert err.value.code == 2
        assert "time budget too large" in capsys.readouterr().err

    def test_search_seed_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["search", "--graph", "star:6", "--ground-set", "0,1,2", "--seed", "3"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        # C(60, 9) ≈ 1.5e10 ground sets of size 10.
        ["search", "--graph", "star:6", "--ground-set", "sweep:n=10,max=60"],
        # C(1000, 2) ≈ 5e5 ground sets of size 3, the first n over the cap.
        ["theorems", "--max-element", "1000"],
    ], ids=["search-sweep", "theorems"])
    def test_ground_set_family_above_cap_is_usage_error(self, argv, capsys):
        start = time.monotonic()
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert time.monotonic() - start < 1.0
        assert "ground-set family too large" in capsys.readouterr().err

    def test_sweep_above_subset_cap_is_usage_error(self, capsys):
        # C(40, 20) ground sets of size 21: rejected before enumerating any.
        start = time.monotonic()
        with pytest.raises(SystemExit) as err:
            main(["search", "--graph", "star:6", "--ground-set", "sweep:n=21,max=40"])
        assert err.value.code == 2
        assert time.monotonic() - start < 1.0
        assert "ground set too large" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["star:100000000", "complete:5000", "star:1048575"])
    def test_family_spec_above_subset_cap_is_usage_error(self, spec, capsys):
        # 10^8, 12,497,500 and 2^20 - 1 edges: more than the 2^20 - 2 any
        # ground set within the subset cap labels, so the spec is
        # rejected before the graph is built.
        start = time.monotonic()
        with pytest.raises(SystemExit) as err:
            main(["search", "--graph", spec, "--ground-set", "0,1,2"])
        assert err.value.code == 2
        assert time.monotonic() - start < 1.0
        assert f"graph spec {spec!r} has" in capsys.readouterr().err

    def test_search_deeper_than_recursion_limit(self, tmp_path, capsys):
        # 1,023 vertices, one DFS level each: deeper than the default
        # recursion limit, which the search leaves as it is.
        out = tmp_path / "witness.json"
        limit = sys.getrecursionlimit()
        code = main(["search", "--graph", "star:1022", "--ground-set",
                     ",".join(map(str, range(10))), "--out", str(out)])
        assert code == 0
        assert sys.getrecursionlimit() == limit
        assert json.loads(capsys.readouterr().out)["status"] == "found"
        assert verify_iasgl(generate("star", 1022), load_document(out).to_labeling())

    def test_deep_search_runs_on_a_1mb_stack(self):
        # 4,095 vertices, one DFS level each, in a child whose C stack is
        # capped at 1 MB. The DFS is one loop, so the depth costs no
        # stack; a frame per vertex overflowed it on Python 3.10 (SIGSEGV).
        resource = pytest.importorskip("resource")
        _, hard = resource.getrlimit(resource.RLIMIT_STACK)

        def small_stack():
            resource.setrlimit(resource.RLIMIT_STACK, (1 << 20, hard))

        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "iasgl.cli", "search", "--graph", "star:4094",
             "--ground-set", ",".join(map(str, range(12)))],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=60, preexec_fn=small_stack,
        )
        assert proc.returncode == 0, proc.stderr
        # Not json.loads: "labelings", 4,093!, has more digits than the
        # interpreter's int parsing limit.
        assert '\n  "status": "found",\n' in proc.stdout

    def test_internal_error_has_its_own_exit_code(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(iasgl.search, "search_iasgl", broken)
        code = main(["search", "--graph", "star:2", "--ground-set", "0,1"])
        assert code == EXIT_INTERNAL_ERROR == 70
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: injected failure" in err

    @pytest.mark.parametrize("argv,flag", [
        (["construct", "--ground-set", "0,1,2"], "--out"),
        (["construct", "--ground-set", "0,1,2"], "--dot"),
        (["search", "--graph", "star:6", "--ground-set", "0,1,2"], "--out"),
        (["search", "--graph", "star:6", "--ground-set", "sweep:n=3,max=4"], "--out"),
        (["theorems", "--n-max", "3", "--max-element", "4"], "--report"),
    ], ids=["construct-out", "construct-dot", "search-out", "sweep-out", "theorems-report"])
    def test_unwritable_output_path_is_usage_error(self, argv, flag, tmp_path, capsys):
        path = str(tmp_path / "missing-dir" / "out.txt")
        with pytest.raises(SystemExit) as err:
            main([*argv, flag, path])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)  # the result was printed first
        assert f"cannot write {path!r}: No such file or directory" in captured.err
        assert "Traceback" not in captured.err

    def test_verify_builder_output(self, tmp_path, capsys):
        out = tmp_path / "doc.json"
        assert main(["construct", "--ground-set", "0,1,2,3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["highest"] == "IASGL"

    def test_verify_star_document_with_edge_labels(self, tmp_path, capsys):
        # Edge label keys may name an edge in either orientation.
        doc = {**STAR_DOC, "edge_labels": {"c--a": [1], "b--c": [0, 1]}}
        path = tmp_path / "star.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["highest"] == "IASGL"

    def test_verify_collision_reported(self, tmp_path, capsys):
        out = tmp_path / "doc.json"
        main(["construct", "--ground-set", "0,1,2", "--out", str(out)])
        capsys.readouterr()
        doc = json.loads(out.read_text())
        # Swap two vertex labels to collide and break injectivity; the
        # derived edge labels no longer hold, so drop them.
        doc["vertices"][0]["label"] = doc["vertices"][1]["label"]
        del doc["edge_labels"]
        out.write_text(json.dumps(doc))
        assert main(["verify", str(out)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert not payload["iasl"]
        assert any(v["rule"] == "injectivity" for v in payload["violations"])

    @pytest.mark.parametrize("labels,edges,highest,rules", [
        ({"a": [1], "b": [1]}, [["a", "b"]], "none", ["injectivity"]),
        # {0} + {1,2} = {1} + {0,1}: distinct vertex labels, one edge label.
        ({"a": [0], "b": [1, 2], "c": [1], "d": [0, 1]}, [["a", "b"], ["c", "d"]],
         "IASL", ["edge-collision"]),
        ({"a": [0], "b": [1]}, [["a", "b"]], "IASI", ["target-missing"]),
        ({"a": [0], "b": [1], "c": [2], "d": [0, 1], "e": [0, 2], "f": [1, 2], "g": [0, 1, 2]},
         [["a", leaf] for leaf in "bcdefg"], "IASGL", []),
    ], ids=["none", "IASL", "IASI", "IASGL"])
    def test_verify_reports_highest_rung(self, labels, edges, highest, rules, tmp_path, capsys):
        doc = {
            "vertices": [{"id": vid, "label": lab} for vid, lab in labels.items()],
            "edges": edges,
            "ground_set": [0, 1, 2],
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == (0 if highest == "IASGL" else 1)
        payload = json.loads(capsys.readouterr().out)
        climbed = ("none", "IASL", "IASI", "IASGL").index(highest)
        assert payload["highest"] == highest
        assert [payload["iasl"], payload["iasi"], payload["iasgl"]] == [
            rung < climbed for rung in range(3)
        ]
        assert [v["rule"] for v in payload["violations"]] == rules

    def test_verify_computes_each_edge_label_once(self, tmp_path, capsys, edge_steps):
        # The builder's 62-edge graph over {0..5}: each edge that is not
        # on the {0}-vertex is summed once, and a passing document
        # builds no sums as sets.
        built = build_realisation(GroundSet.of(*range(6)))
        path = tmp_path / "b6.json"
        dump_document(document_from_graph(built.graph, built.labeling), path)
        edge_steps["sum_label"].clear()
        assert main(["verify", str(path)]) == 0
        summed = summed_edges(built.graph, built.labeling)
        assert edge_steps["sum_label"] == summed and len(summed) == 34
        assert edge_steps["induced_edge_label"] == []

    @pytest.mark.parametrize("command", ["verify", "search"])
    @pytest.mark.parametrize("doc", [
        {"vertices": 5, "edges": []},
        {"vertices": ["a", "b"], "edges": [1]},
        {"vertices": [{"id": "a", "label": 5}], "edges": [], "ground_set": [0, 1]},
        {"vertices": ["a"], "edges": [], "ground_set": [0, 1], "labels": [1]},
        {"vertices": ["a"], "edges": [], "ground_set": [0, 1], "labels": {"a": ["x"]}},
        {**STAR_DOC, "labels": {"zz": [1]}},
        {**STAR_DOC, "edge_labels": {"x--y": [1]}},
        {**STAR_DOC, "edge_labels": {"c--a": [5]}},
        {**STAR_DOC, "edges": [["c", "a"], ["c", "b"], ["c", "a"]]},
        {**STAR_DOC, "edges": [["c", "a"], ["c", "b"], ["a", "c"]]},
        {"vertices": ["a", "b--c", "a--b", "c"], "edges": [["a", "b--c"], ["a--b", "c"]],
         "edge_labels": {"a--b--c": [1]}},
    ], ids=["vertices-int", "edge-int", "label-int", "labels-array", "labels-str",
            "labels-unknown-vertex", "edge-labels-unknown-edge", "edge-label-not-derived",
            "edge-repeated", "edge-repeated-reversed", "edge-label-key-names-two-edges"])
    def test_malformed_document_is_usage_error(self, command, doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        argv = (["verify", str(path)] if command == "verify"
                else ["search", "--graph", f"file:{path}", "--ground-set", "0,1"])
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "search"])
    def test_wrong_edge_label_names_the_edge(self, command, tmp_path, capsys):
        # The derived label of c--a is {0} + {1} = {1}.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**STAR_DOC, "edge_labels": {"c--a": [5]}}))
        argv = (["verify", str(path)] if command == "verify"
                else ["search", "--graph", f"file:{path}", "--ground-set", "0,1"])
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "edge label 'c--a' is {5}, but f(a) + f(c) = {1}" in capsys.readouterr().err

    def test_edge_label_key_naming_two_edges_is_refused_on_reading(self, tmp_path, capsys):
        # A written document keyed "a--c--b" once would lose one of the
        # two edges' labels; read back, that key picks neither.
        path = tmp_path / "dashed.json"
        path.write_text(json.dumps({**DASHED_IDS_GRAPH, "edge_labels": {"a--c--b": [2]}}))
        with pytest.raises(SystemExit) as err:
            main(["search", "--graph", f"file:{path}", "--ground-set", "0,1,2"])
        assert err.value.code == 2
        assert ("edge label 'a--c--b' names two edges: ('a--c', 'b') and ('a', 'c--b')"
                in capsys.readouterr().err)

    def test_search_out_refuses_an_edge_label_key_naming_two_edges(self, tmp_path, capsys):
        graph, out = tmp_path / "dashed.json", tmp_path / "w.json"
        graph.write_text(json.dumps(DASHED_IDS_GRAPH))
        with pytest.raises(SystemExit) as err:
            main(["search", "--graph", f"file:{graph}", "--ground-set", "0,1,2", "--out", str(out)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["status"] == "found"  # the result was printed first
        assert (f"cannot write {str(out)!r}: edge label 'a--c--b' names two edges: "
                "('a', 'c--b') and ('a--c', 'b')") in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_search_out_document_round_trips(self, tmp_path, capsys):
        out = tmp_path / "witness.json"
        assert main(["search", "--graph", "star:6", "--ground-set", "0,1,2",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["edge_labels"]
        assert main(["verify", str(out)]) == 0
        assert main(["search", "--graph", f"file:{out}", "--ground-set", "0,1,2"]) == 0

    @pytest.mark.parametrize("labels", [[[0], [1]], [[0], [0]]], ids=["IASI", "none"])
    def test_verify_above_subset_cap_is_usage_error(self, labels, tmp_path, capsys):
        # 21 elements: naming the missing targets would enumerate 2^21
        # subsets, so the document is rejected whichever rung it fails.
        doc = {
            "vertices": [{"id": vid, "label": lab} for vid, lab in zip("ab", labels)],
            "edges": [["a", "b"]],
            "ground_set": list(range(21)),
        }
        path = tmp_path / "over.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as err:
            main(["verify", str(path)])
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert "ground set too large" in err_text and "Traceback" not in err_text

    def test_verify_edge_escape_named(self, tmp_path, capsys):
        doc = {
            "vertices": [{"id": "a", "label": [1]}, {"id": "b", "label": [3]}],
            "edges": [["a", "b"]],
            "ground_set": [0, 1, 2, 3],
        }
        path = tmp_path / "escape.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        escape = [v for v in payload["violations"] if v["rule"] == "edge-escape"]
        assert escape and escape[0]["vertex_ids"] == ["a", "b"]

    def test_construct_summary_and_dot(self, tmp_path, capsys):
        dot = tmp_path / "out.dot"
        assert main(["construct", "--ground-set", "0,1", "--dot", str(dot)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vertices"] == 3
        assert payload["edges"] == 2
        text = dot.read_text()
        assert text.count('" -- "') == 2

    def test_construct_x0123_summary(self, capsys):
        assert main(["construct", "--ground-set", "0,1,2,3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vertices"] == 9
        assert payload["edges"] == 14
        assert payload["bipartite"] is False

    def test_construct_rejects_removed_prefer_nonbipartite_flag(self, capsys):
        # The realisation is non-bipartite whenever X has a sum, so the
        # flag is gone; passing it is a usage error, not silently ignored.
        with pytest.raises(SystemExit) as err:
            main(["construct", "--ground-set", "0,1,2,3", "--prefer-nonbipartite"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --prefer-nonbipartite" in captured.err

    @pytest.mark.parametrize("n", [11, 12])
    def test_construct_deeper_than_recursion_limit(self, n, tmp_path, capsys):
        # 1,388 and 2,754 unfixed targets: more than the default recursion limit.
        out = tmp_path / "doc.json"
        assert main(["construct", "--ground-set", ",".join(map(str, range(n))),
                     "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["edges"] == (1 << n) - 2
        assert main(["verify", str(out)]) == 0

    def test_allow_equal_summands_is_classify_only(self, capsys):
        # classify keeps the flag (test_classify_allow_equal).
        for argv in (["search", "--graph", "star:6", "--ground-set", "0,1,2"],
                     ["construct", "--ground-set", "0,1,2"]):
            with pytest.raises(SystemExit) as err:
                main([*argv, "--allow-equal-summands"])
            assert err.value.code == 2

    def test_theorems_report_file(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        code = main(["theorems", "--n-max", "3", "--max-element", "6",
                     "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["totals"]["Refuted"] == 0
        assert payload["bounds"]["n_range"] == [2, 3]

    def test_theorems_output_is_pinned(self, capsys):
        # The benchmark's theorems-breadth report, byte for byte; CI
        # compares the installed console script's output with this file.
        golden = Path(__file__).parent / "data" / "theorems_n5_max10.json"
        assert main(["theorems", "--n-max", "5", "--max-element", "10"]) == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("flags", [
        ["--n-min", "1"],
        ["--n-max", "10"],
        ["--max-element", "2", "--n-max", "4"],
        ["--trees", "3"],  # the tree orders are fixed, not a flag
        ["--n-min", "4", "--n-max", "3"],
        ["--n-max", "2", "--max-element", "1"],  # the fixed checks sweep |X| = 3
    ])
    def test_theorems_bad_bounds_are_usage_errors(self, flags, capsys):
        with pytest.raises(SystemExit) as err:
            main(["theorems", *flags])
        assert err.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("flags,error", [
        # |X| = 3 is asked for only by the fixed sweeps, and the error
        # says so; when n-max asks for it, the family check alone speaks.
        (["--n-max", "2", "--max-element", "1"],
         "empty ground-set family: |X| = 3 needs max element >= 2, for the fixed "
         "|X| = 3 sweeps (P_7, C_6, K_4, the 7-vertex trees)"),
        (["--n-max", "2", "--max-element", "500"],
         "ground-set family too large: C(500, 2) combinations, for the fixed "
         "|X| = 3 sweeps (P_7, C_6, K_4, the 7-vertex trees)"),
        (["--n-max", "3", "--max-element", "1"],
         "empty ground-set family: |X| = 3 needs max element >= 2"),
    ])
    def test_theorems_family_error_names_who_needs_it(self, flags, error, capsys):
        with pytest.raises(SystemExit) as err:
            main(["theorems", *flags])
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"iasgl theorems: error: {error}"

    def test_theorems_diophantine_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["theorems", "--diophantine-max", "30"])
        assert err.value.code == 2

    def test_table_format(self, capsys):
        assert main(["classify", "--ground-set", "0,1,2", "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "non-sumsets" in out and "{0,1,2}" in out

    #: (exit code, first 16 hex digits of the SHA-256 of stdout) of each
    #: command under --format json and --format table, recorded when every
    #: command still built its table lines under either format.
    FORMAT_DIGESTS = {
        ("classify", "json"): (0, "2f5c0099678fdb7e"),
        ("classify", "table"): (0, "0d6dceb33f4ff0eb"),
        ("classify-allow-equal", "json"): (0, "2e598dc5c5217431"),
        ("classify-allow-equal", "table"): (0, "d8dedd5e67a467e1"),
        ("search", "json"): (0, "fa06aeb84e3d27b0"),
        ("search", "table"): (0, "652a116b477d22e7"),
        ("sweep", "json"): (0, "8731a21e8b96d2be"),
        ("sweep", "table"): (0, "a98ccab0006a8a67"),
        ("verify", "json"): (1, "aa5bfea9fd56dd1b"),
        ("verify", "table"): (1, "e64e6a2dbdedc7d8"),
        ("construct", "json"): (0, "145e72e4909bef76"),
        ("construct", "table"): (0, "c1fb733413293c24"),
        ("theorems", "json"): (0, "bd46010f29f93547"),
        ("theorems", "table"): (0, "4b00a8c3cc927376"),
    }

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_both_formats_are_byte_identical(self, fmt, tmp_path, capsys):
        # P_4 over {0,1,2,3} whose outer edges both induce {1,2}.
        collide = tmp_path / "collide.json"
        collide.write_text(json.dumps({
            "vertices": [{"id": "v0", "label": [1]}, {"id": "v1", "label": [0, 1]},
                         {"id": "v2", "label": [0]}, {"id": "v3", "label": [1, 2]}],
            "edges": [["v0", "v1"], ["v1", "v2"], ["v2", "v3"]],
            "ground_set": [0, 1, 2, 3],
        }))
        commands = {
            "classify": ["classify", "--ground-set", "0,1,2,3,4,5"],
            "classify-allow-equal": ["classify", "--ground-set", "0,1,3,7",
                                     "--allow-equal-summands"],
            "search": ["search", "--graph", "star:6", "--ground-set", "0,1,2"],
            "sweep": ["search", "--graph", "star:6", "--ground-set", "sweep:n=3,max=6"],
            "verify": ["verify", str(collide)],
            "construct": ["construct", "--ground-set", "0,1,2,3"],
            "theorems": ["theorems", "--n-max", "3", "--max-element", "4"],
        }
        for name, argv in commands.items():
            code = main([*argv, "--format", fmt])
            digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
            assert (code, digest) == self.FORMAT_DIGESTS[name, fmt], name

    def test_json_output_formats_no_set(self, monkeypatch, capsys):
        # The table lines print each set with IntegerSet.__str__; JSON
        # output never builds them.
        calls = count_calls(monkeypatch, IntegerSet, "__str__")
        assert main(["classify", "--ground-set", ",".join(map(str, range(10)))]) == 0
        capsys.readouterr()
        assert calls[0] == 0
        assert main(["classify", "--ground-set", "0,1,2", "--format", "table"]) == 0
        assert "{0,1,2}" in capsys.readouterr().out
        assert calls[0] > 0


class TestHugeElements:
    """A ground set's cost and output depend on its additive type only.

    {0, ..., 5, 10**30} has the type of {0, ..., 5, 100}: each command
    over it finishes well inside the timeout, and its output is the one
    over {0, ..., 5, 100} with 100 replaced by 10**30. A kernel holding
    one bit per integer value could not build the first at all.
    """

    SRC = Path(__file__).resolve().parent.parent / "src"
    SMALL = (0, 1, 2, 3, 4, 5, 100)
    HUGE = (0, 1, 2, 3, 4, 5, 10**30)

    def run(self, argv: list[str], ground: tuple[int, ...]):
        env = dict(os.environ, PYTHONPATH=str(self.SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "iasgl.cli", *argv, "--format", "json",
             "--ground-set", ",".join(map(str, ground))],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def to_huge(self, obj):
        """The output over SMALL with each element mapped index-wise onto HUGE;
        elements sit in lists and in set strings such as "{0,1,100}"."""
        elems = dict(zip(self.SMALL, self.HUGE))
        if isinstance(obj, dict):
            return {self.to_huge(k): self.to_huge(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [elems[v] if type(v) is int else self.to_huge(v) for v in obj]
        if isinstance(obj, str) and re.fullmatch(r"\{[0-9,]*\}", obj):
            return "{" + ",".join(str(elems[int(e)]) for e in obj[1:-1].split(",")) + "}"
        return obj

    @pytest.mark.parametrize(
        "argv", [["classify"], ["construct"], ["search", "--graph", "star:126"]]
    )
    def test_output_maps_index_wise_onto_same_type(self, argv):
        huge = self.run(argv, self.HUGE)
        assert huge == self.to_huge(self.run(argv, self.SMALL))
