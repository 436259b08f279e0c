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
from .sets import GroundSet, IntegerSet


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


def document_from_graph(
    graph: Graph, labeling: Labeling | None = None, include_edge_labels: bool = False
) -> Document:
    vertices: list[tuple[str, IntegerSet | None]] = [
        (vid, labeling.label_of(vid) if labeling else None) for vid in graph.vertex_ids
    ]
    edge_labels: dict[Edge, IntegerSet] = {}
    if labeling and include_edge_labels:
        edge_labels = {
            (u, v): induced_edge_label(labeling, u, v) for u, v in graph.sorted_edges()
        }
    return Document(
        vertices=vertices,
        edges=graph.sorted_edges(),
        ground_set=labeling.ground.base if labeling else None,
        edge_labels=edge_labels,
    )


def parse_document(obj: dict) -> Document:
    """Parse either the full document form or the bare graph schema."""
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise ValueError("document needs 'vertices' and 'edges'")
    vertices: list[tuple[str, IntegerSet | None]] = []
    for entry in obj["vertices"]:
        if isinstance(entry, str):
            vertices.append((entry, None))
        elif isinstance(entry, dict) and "id" in entry:
            label = entry.get("label")
            vertices.append(
                (str(entry["id"]), None if label is None else IntegerSet.from_iterable(label))
            )
        else:
            raise ValueError(f"bad vertex entry: {entry!r}")
    edges = []
    for pair in obj["edges"]:
        if len(pair) != 2:
            raise ValueError(f"bad edge entry: {pair!r}")
        u, v = str(pair[0]), str(pair[1])
        edges.append((u, v) if u <= v else (v, u))
    ground = obj.get("ground_set")
    labels = obj.get("labels")
    if labels:
        by_id = dict(vertices)
        for vid, arr in labels.items():
            by_id[str(vid)] = IntegerSet.from_iterable(arr)
        vertices = [(vid, by_id[vid]) for vid, _ in vertices]
    edge_labels: dict[Edge, IntegerSet] = {}
    for key, arr in (obj.get("edge_labels") or {}).items():
        u, _, v = key.partition("--")
        edge_labels[(u, v) if u <= v else (v, u)] = IntegerSet.from_iterable(arr)
    return Document(
        vertices=vertices,
        edges=edges,
        ground_set=None if ground is None else IntegerSet.from_iterable(ground),
        edge_labels=edge_labels,
    )


def labeling_to_obj(f: Labeling) -> dict:
    return {
        "ground_set": list(f.ground.base.elements),
        "labels": {vid: list(s.elements) for vid, s in f.assignment},
    }


def labeling_from_obj(obj: dict) -> Labeling:
    ground = GroundSet(IntegerSet.from_iterable(obj["ground_set"]))
    return Labeling.from_mapping(
        ground, {vid: IntegerSet.from_iterable(arr) for vid, arr in obj["labels"].items()}
    )


def load_document(path: str | Path) -> Document:
    with open(path, encoding="utf-8") as fh:
        return parse_document(json.load(fh))


def dump_document(doc: Document, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc.to_obj(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(graph: Graph, labeling: Labeling | None = None, name: str = "realisation") -> str:
    """Deterministic DOT text; vertices carry their set-label, edges the
    induced sumset label."""
    lines = [f'graph "{_dot_escape(name)}" {{']
    for vid in graph.vertex_ids:
        if labeling is not None:
            lines.append(f'  "{_dot_escape(vid)}" [label="{_dot_escape(str(labeling.label_of(vid)))}"];')
        else:
            lines.append(f'  "{_dot_escape(vid)}";')
    for u, v in graph.sorted_edges():
        if labeling is not None:
            lab = induced_edge_label(labeling, u, v)
            lines.append(
                f'  "{_dot_escape(u)}" -- "{_dot_escape(v)}" [label="{_dot_escape(str(lab))}"];'
            )
        else:
            lines.append(f'  "{_dot_escape(u)}" -- "{_dot_escape(v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
