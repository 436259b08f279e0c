"""JSON document schemas and DOT export shared by the CLI and library.

Three wire formats:

* graph: {"vertices": ["v0", ...], "edges": [["v0", "v1"], ...]}
* labeling: {"ground_set": [...], "labels": {"v0": [0], ...}}
* document: the full form with per-vertex label objects and an optional
  derived edge-label map, round-tripping losslessly.

Set-labels serialize as ascending integer arrays everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .graphs import Edge, Graph
from .labeling import Labeling, induced_edge_label
from .sets import GroundSet, IntegerSet, sumset


@dataclass
class Document:
    """Graph plus optional ground set, labels, and derived edge labels."""

    vertices: list[tuple[str, IntegerSet | None]]
    edges: list[Edge]
    ground_set: IntegerSet | None = None
    edge_labels: dict[Edge, IntegerSet] = field(default_factory=dict)

    def to_graph(self) -> Graph:
        return Graph.from_edges([vid for vid, _ in self.vertices], self.edges)

    def to_labeling(self) -> Labeling:
        if self.ground_set is None:
            raise ValueError("document has no ground_set")
        labeled = {vid: lab for vid, lab in self.vertices if lab is not None}
        missing = [vid for vid, lab in self.vertices if lab is None]
        if missing:
            raise ValueError(f"vertices without labels: {missing}")
        return Labeling.from_mapping(GroundSet(self.ground_set), labeled)

    def to_obj(self) -> dict:
        obj: dict = {
            "vertices": [
                {"id": vid} if lab is None else {"id": vid, "label": list(lab.elements)}
                for vid, lab in self.vertices
            ],
            "edges": [[u, v] for u, v in self.edges],
        }
        if self.ground_set is not None:
            obj["ground_set"] = list(self.ground_set.elements)
        if self.edge_labels:
            obj["edge_labels"] = {
                f"{u}--{v}": list(lab.elements)
                for (u, v), lab in sorted(self.edge_labels.items())
            }
        return obj


def document_from_graph(graph: Graph, labeling: Labeling) -> Document:
    """The labeled document of graph, with its derived edge labels."""
    edges = graph.sorted_edges()
    return Document(
        vertices=[(vid, labeling.label_of(vid)) for vid in graph.vertex_ids],
        edges=edges,
        ground_set=labeling.ground.base,
        edge_labels={(u, v): induced_edge_label(labeling, u, v) for u, v in edges},
    )


def _int_set(value, what: str) -> IntegerSet:
    if not isinstance(value, list) or not all(type(e) is int and e >= 0 for e in value):
        raise ValueError(f"{what} must be an array of non-negative integers: {value!r}")
    return IntegerSet.from_iterable(value)


def _json_object(obj: dict, key: str) -> dict:
    value = {} if obj.get(key) is None else obj[key]
    if not isinstance(value, dict):
        raise ValueError(f"'{key}' must be an object: {value!r}")
    return value


def parse_document(obj: dict) -> Document:
    """Parse either the full document form or the bare graph schema.

    Any other shape is a ValueError, and so are a repeated edge (in
    either orientation), a label or edge label naming no vertex or edge
    of the document, and an edge label that differs from f(u) + f(v)
    when both endpoints are labeled."""
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise ValueError("document needs 'vertices' and 'edges'")
    if not isinstance(obj["vertices"], list) or not isinstance(obj["edges"], list):
        raise ValueError("'vertices' and 'edges' must be arrays")
    vertices: list[tuple[str, IntegerSet | None]] = []
    for entry in obj["vertices"]:
        if isinstance(entry, str):
            vertices.append((entry, None))
        elif isinstance(entry, dict) and "id" in entry:
            vid, label = str(entry["id"]), entry.get("label")
            vertices.append((vid, None if label is None else _int_set(label, f"label of {vid!r}")))
        else:
            raise ValueError(f"bad vertex entry: {entry!r}")
    edges: list[Edge] = []
    seen: set[Edge] = set()
    for pair in obj["edges"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"bad edge entry: {pair!r}")
        u, v = str(pair[0]), str(pair[1])
        edge = (u, v) if u <= v else (v, u)
        if edge in seen:
            raise ValueError(f"repeated edge {pair!r}")
        seen.add(edge)
        edges.append(edge)
    ground = obj.get("ground_set")
    labels = _json_object(obj, "labels")
    if labels:
        by_id = dict(vertices)
        for vid, arr in labels.items():
            if str(vid) not in by_id:
                raise ValueError(f"label for unknown vertex {vid!r}")
            by_id[str(vid)] = _int_set(arr, f"label of {vid!r}")
        vertices = [(vid, by_id[vid]) for vid, _ in vertices]
    edge_keys = {f"{a}--{b}": (u, v) for u, v in edges for a, b in ((u, v), (v, u))}
    label_of = dict(vertices)
    edge_labels: dict[Edge, IntegerSet] = {}
    for key, arr in _json_object(obj, "edge_labels").items():
        if key not in edge_keys:
            raise ValueError(f"edge label {key!r} is not 'u--v' for an edge of the document")
        u, v = edge = edge_keys[key]
        declared = edge_labels[edge] = _int_set(arr, f"edge label {key!r}")
        fu, fv = label_of.get(u), label_of.get(v)
        if fu is not None and fv is not None:
            derived = sumset(fu, fv)
            if declared != derived:
                raise ValueError(
                    f"edge label {key!r} is {declared}, but f({u}) + f({v}) = {derived}"
                )
    return Document(
        vertices=vertices,
        edges=edges,
        ground_set=None if ground is None else _int_set(ground, "ground_set"),
        edge_labels=edge_labels,
    )


def labeling_to_obj(f: Labeling) -> dict:
    return {
        "ground_set": list(f.ground.base.elements),
        "labels": {vid: list(s.elements) for vid, s in f.assignment},
    }


def load_document(path: str | Path) -> Document:
    with open(path, encoding="utf-8") as fh:
        return parse_document(json.load(fh))


def dump_document(doc: Document, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc.to_obj(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(graph: Graph, labeling: Labeling) -> str:
    """Deterministic DOT text of the graph "realisation"; vertices carry
    their set-label, edges the induced sumset label."""
    lines = ['graph "realisation" {']
    for vid in graph.vertex_ids:
        lines.append(f'  "{_dot_escape(vid)}" [label="{_dot_escape(str(labeling.label_of(vid)))}"];')
    for u, v in graph.sorted_edges():
        lab = induced_edge_label(labeling, u, v)
        lines.append(f'  "{_dot_escape(u)}" -- "{_dot_escape(v)}" [label="{_dot_escape(str(lab))}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
