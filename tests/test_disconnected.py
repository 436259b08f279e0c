"""A disconnected IASGL graph, pinned as a document.

Over X = {0,1,3,4,5,8}, the assignment graph of seed 6 has 56 vertices
and 62 edges in two components: the {0}-vertex's 54 vertices and the
single edge {4}--{1,4}. Its labeling verifies, the structural gate
passes it and the search finds it, so no rule may assume connectivity.

Rewrite the document with ``PYTHONPATH=src python tests/test_disconnected.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from iasgl._jsonout import dumps
from iasgl.cli import main
from iasgl.io import document_from_graph, dump_document, load_document
from iasgl.labeling import structural_gate
from iasgl.sets import GroundSet

from conftest import assignment_labeling

PATH = Path(__file__).resolve().parent / "data" / "disconnected_n6.json"
X = GroundSet.of(0, 1, 3, 4, 5, 8)


def document():
    return document_from_graph(*assignment_labeling(X, 6))


def components(doc) -> list[list[tuple[int, ...]]]:
    """The vertex labels of each connected component, largest first."""
    label = {vid: lab.elements for vid, lab in doc.vertices}
    adj = {vid: [] for vid in label}
    for u, v in doc.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, parts = set(), []
    for start in label:
        if start in seen:
            continue
        seen.add(start)
        part, stack = [], [start]
        while stack:
            v = stack.pop()
            part.append(label[v])
            stack.extend(w for w in adj[v] if w not in seen)
            seen.update(adj[v])
        parts.append(sorted(part))
    return sorted(parts, key=len, reverse=True)


def test_document_is_the_regenerated_one():
    assert PATH.read_text(encoding="utf-8") == dumps(document().to_obj()) + "\n"
    doc = load_document(PATH)
    assert (len(doc.vertices), len(doc.edges)) == (56, 62)
    big, small = components(doc)
    assert (len(big), small) == (54, [(1, 4), (4,)])
    assert (0,) in big


def test_verify_accepts_it(capsys):
    assert main(["verify", str(PATH)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["iasgl"], out["violations"]) == (True, [])


def test_gate_passes_it():
    assert structural_gate(load_document(PATH).to_graph(), X).passed


def test_search_finds_it(capsys):
    argv = ["search", "--graph", f"file:{PATH}", "--ground-set", "0,1,3,4,5,8"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "found"


if __name__ == "__main__":
    dump_document(document(), PATH)
