"""What each CLI process loads, and the package's lazy exports.

Each command runs in a fresh interpreter, so ``sys.modules`` afterwards
holds exactly what that command imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iasgl

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every name the package exported before its exports became lazy, by
#: defining module.
EXPORTED = {
    "graphs": ("Graph", "enumerate_free_trees", "generate", "pendant_vertices"),
    "labeling": (
        "GateReport", "Labeling", "Violation", "graceful_targets", "induced_edge_label",
        "structural_gate", "verify_iasgl", "verify_iasi", "verify_iasl", "verify_ladder",
    ),
    "realisation": ("RealisationResult", "build_realisation"),
    "search": (
        "SearchConfig", "SearchOutcome", "SearchStats", "SearchStatus", "search_iasgl",
        "sweep_ground_sets",
    ),
    "sets": (
        "Classification", "GroundSet", "IntegerSet", "SummandMode", "ZERO_SET",
        "classify_ground_set", "enumerate_canonical_ground_sets", "enumerate_nonempty_subsets",
        "sumset",
    ),
}

#: Runs the CLI in this process, then prints what it loaded as JSON on
#: stderr (stdout carries the command's output).
PROBE = """
import sys
code = 0
if sys.argv[1:]:
    from iasgl.cli import main
    code = main(sys.argv[1:])
else:
    import iasgl.cli
loaded = sorted(m for m in sys.modules if m == "iasgl" or m.startswith("iasgl."))
got = {"code": code, "iasgl": loaded, "dataclasses": "dataclasses" in sys.modules,
       "decimal": "decimal" in sys.modules, "json": "json" in sys.modules,
       "typing": "typing" in sys.modules}
import json
print(json.dumps(got), file=sys.stderr)
"""


def loads(*argv: str, site: bool = True) -> dict:
    """Run the probe on argv; without ``site`` the interpreter runs with
    -S, so no ``.pth`` file imports anything before the command."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    flags = [] if site else ["-S"]
    proc = subprocess.run(
        [sys.executable, *flags, "-c", PROBE, *argv], capture_output=True, text=True, env=env,
        timeout=120,
    )
    return json.loads(proc.stderr.strip().splitlines()[-1])


class TestLoadedLayers:
    def test_import_cli_loads_only_sets(self):
        got = loads()
        assert got["iasgl"] == ["iasgl", "iasgl.cli", "iasgl.sets"]
        assert not got["dataclasses"]
        assert not got["json"]

    def test_classify(self):
        got = loads("classify", "--ground-set", "0,1,2,3")
        assert got["code"] == 0
        assert got["iasgl"] == ["iasgl", "iasgl._jsonout", "iasgl.cli", "iasgl.sets"]
        assert not got["dataclasses"]
        # Output is written without the json package; only reading a
        # document imports it.
        assert not got["json"]

    def test_construct(self, tmp_path):
        got = loads("construct", "--ground-set", "0,1,2", "--out", str(tmp_path / "r.json"),
                    "--dot", str(tmp_path / "r.dot"))
        assert got["code"] == 0
        assert "iasgl.search" not in got["iasgl"]
        assert "iasgl.harness" not in got["iasgl"]
        assert not got["dataclasses"]
        assert not got["json"]

    def test_verify(self, tmp_path):
        doc = tmp_path / "r.json"
        assert loads("construct", "--ground-set", "0,1,2", "--out", str(doc))["code"] == 0
        got = loads("verify", str(doc))
        assert got["code"] == 0
        assert "iasgl.search" not in got["iasgl"]
        assert "iasgl.realisation" not in got["iasgl"]
        assert not got["dataclasses"]

    def test_search(self):
        got = loads("search", "--graph", "star:6", "--ground-set", "0,1,2")
        assert got["code"] == 0
        assert "iasgl.search" in got["iasgl"]
        assert "iasgl.realisation" not in got["iasgl"]
        assert "iasgl.harness" not in got["iasgl"]
        assert not got["json"]

    def test_theorems(self):
        got = loads("theorems", "--n-max", "3", "--max-element", "4")
        assert got["code"] == 0
        assert {"iasgl.harness", "iasgl.search"} <= set(got["iasgl"])
        # No check builds a realisation (the harness docstring's proofs).
        assert "iasgl.realisation" not in got["iasgl"]

    def test_theorems_loads_no_typing(self):
        # The command that loads the most layers; a site ``.pth`` file
        # may import typing on its own, hence -S.
        got = loads("theorems", "--n-max", "3", "--max-element", "4", site=False)
        assert got["code"] == 0
        assert not got["typing"]


def test_benchmark_commands_load_no_decimal(tmp_path):
    """``decimal`` is imported only to format an int of more than
    ``_jsonout.BIG_INT_BITS`` bits; no benchmark command prints one."""
    edges = [["v0", f"v{i}"] for i in range(1, 14)] + [["v13", "v14"]]
    broom = tmp_path / "broom.json"
    broom.write_text(json.dumps({"vertices": [f"v{i}" for i in range(15)], "edges": edges}))
    x10, x9 = ",".join(map(str, range(10))), ",".join(map(str, range(9)))
    witness, realisation = str(tmp_path / "w.json"), str(tmp_path / "r.json")
    for argv, code in [
        (("search", "--graph", f"file:{broom}", "--ground-set", "sweep:n=4,max=5"), 1),
        (("classify", "--ground-set", x10), 0),
        (("search", "--graph", "star:510", "--ground-set", x9, "--out", witness), 0),
        (("verify", witness), 0),
        (("construct", "--ground-set", x9, "--out", realisation), 0),
        (("theorems", "--n-max", "5", "--max-element", "10"), 0),
    ]:
        got = loads(*argv)
        assert (got["code"], got["decimal"]) == (code, False), argv


class TestLazyExports:
    @pytest.mark.parametrize(
        "module,name", [(m, n) for m, names in EXPORTED.items() for n in names]
    )
    def test_export_is_the_defining_modules_object(self, module, name):
        namespace: dict = {}
        exec(f"from iasgl import {name}", namespace)
        defining = __import__(f"iasgl.{module}", fromlist=[name])
        assert namespace[name] is getattr(defining, name)

    def test_dir_and_all_list_every_export(self):
        names = {n for names in EXPORTED.values() for n in names}
        assert names <= set(dir(iasgl))
        assert set(iasgl.__all__) == names

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            iasgl.no_such_name  # noqa: B018

    def test_submodule_import_still_works(self):
        from iasgl import io

        assert io.__name__ == "iasgl.io"

    def test_importing_the_package_loads_no_layer(self):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
        code = ("import sys, iasgl; "
                "print(sorted(m for m in sys.modules if m.startswith('iasgl.')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60).stdout
        assert out.strip() == "[]"
