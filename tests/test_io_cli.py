"""Document round-trips, DOT output, and the CLI exit-code contract."""

import json

import pytest

from iasgl.cli import main
from iasgl.io import (
    Document,
    document_from_graph,
    dump_document,
    labeling_from_obj,
    labeling_to_obj,
    load_document,
    parse_document,
    to_dot,
)
from iasgl.labeling import Labeling
from iasgl.realisation import build_realisation

from conftest import iset


class TestDocument:
    def test_round_trip(self, x012, tmp_path):
        r = build_realisation(x012)
        doc = document_from_graph(r.graph, r.labeling, include_edge_labels=True)
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

    def test_labeling_obj_round_trip(self, x0123):
        f = Labeling.from_mapping(x0123, {"a": iset(0), "b": iset(1, 3)})
        assert labeling_from_obj(labeling_to_obj(f)) == f

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
        dot = to_dot(r.graph, r.labeling)
        assert dot == to_dot(r.graph, r.labeling)
        assert dot.startswith('graph "realisation" {')
        assert dot.rstrip().endswith("}")
        assert '"v0" [label="{0}"];' in dot
        assert "--" in dot

    def test_braces_balanced(self, x0123):
        r = build_realisation(x0123, prefer_nonbipartite=True)
        dot = to_dot(r.graph, r.labeling)
        assert dot.count("{") == dot.count("}")
        lines = dot.strip().splitlines()
        assert len(lines) == 1 + len(r.graph.vertex_ids) + r.graph.edge_count() + 1


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
        for argv in (["classify", "--ground-set", "0"],
                     ["construct", "--ground-set", "0"]):
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

    def test_search_find_all(self, capsys):
        code = main(["search", "--graph", "star:2", "--ground-set", "0,1",
                     "--find-all"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # K(1,2) over {0,1}: center {0}, leaves {1} and {0,1} in either order.
        assert len(payload["witnesses"]) == 2

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
            ["search", "--graph", "file:/nonexistent.json", "--ground-set", "0,1"],
        ):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2

    @pytest.mark.parametrize("flag", [["--node-budget", "0"], ["--time-budget-ms", "-5"]])
    def test_search_bad_budget_is_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as err:
            main(["search", "--graph", "star:2", "--ground-set", "0,1", *flag])
        assert err.value.code == 2
        assert "budgets must be positive" in capsys.readouterr().err

    def test_verify_builder_output(self, tmp_path, capsys):
        out = tmp_path / "doc.json"
        assert main(["construct", "--ground-set", "0,1,2,3",
                     "--prefer-nonbipartite", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["highest"] == "IASGL"

    def test_verify_collision_reported(self, tmp_path, capsys):
        out = tmp_path / "doc.json"
        main(["construct", "--ground-set", "0,1,2", "--out", str(out)])
        capsys.readouterr()
        doc = json.loads(out.read_text())
        # Swap two vertex labels to collide and break injectivity.
        doc["vertices"][0]["label"] = doc["vertices"][1]["label"]
        out.write_text(json.dumps(doc))
        assert main(["verify", str(out)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert not payload["iasl"]
        assert any(v["rule"] == "injectivity" for v in payload["violations"])

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
        assert main(["construct", "--ground-set", "0,1,2,3",
                     "--prefer-nonbipartite"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vertices"] == 9
        assert payload["edges"] == 14
        assert payload["bipartite"] is False

    def test_theorems_report_file(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        code = main(["theorems", "--n-max", "3", "--max-element", "6",
                     "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["totals"]["Refuted"] == 0
        assert payload["bounds"]["n_range"] == [2, 3]

    def test_theorems_trees_budget_flag(self, capsys):
        code = main(["theorems", "--n-max", "3", "--max-element", "6",
                     "--trees", "3", "15"])
        assert code == 0  # Unknown-budget entries do not fail the run
        payload = json.loads(capsys.readouterr().out)
        tree15 = [c for c in payload["checks"] if c["id"] == "tree-theorem/m=15"]
        assert tree15 and tree15[0]["status"] == "Unknown-budget"

    def test_table_format(self, capsys):
        assert main(["classify", "--ground-set", "0,1,2", "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "non-sumsets" in out and "{0,1,2}" in out
