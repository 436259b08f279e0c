"""Vertex set-labelings, induced edge labels, and the verification ladder.

A labeling assigns a non-empty subset of the ground set to every vertex.
Three nested properties are checked, each implying the previous:

* set-labeling: the vertex map is injective and every edge's induced
  sumset stays inside the ground set;
* set-indexer: distinct edges get distinct induced labels;
* graceful set-indexer: the induced edge labels are exactly the
  non-empty subsets of the ground set other than {0}, each once.

``structural_gate`` bundles the necessary conditions that can be read
off the graph shape alone (edge count, a high-degree host for {0},
pendant supply). Passing the gate never asserts existence; failing it
refutes existence without any search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .graphs import Graph, pendant_vertices
from .sets import (
    ZERO_SET,
    GroundSet,
    IntegerSet,
    SummandMode,
    classify_ground_set,
    enumerate_nonempty_subsets,
    sumset,
)


@dataclass(frozen=True)
class Violation:
    """One failed rule: rule id, human detail, offending ids and sets."""

    rule: str
    detail: str
    vertex_ids: tuple[str, ...] = ()
    sets: tuple[IntegerSet, ...] = ()

    def to_obj(self) -> dict:
        return {
            "rule": self.rule,
            "detail": self.detail,
            "vertex_ids": list(self.vertex_ids),
            "sets": [list(s.elements) for s in self.sets],
        }


@dataclass(frozen=True)
class GateReport:
    passed: bool
    violations: tuple[Violation, ...] = ()

    def __post_init__(self) -> None:
        if self.passed != (not self.violations):
            raise ValueError("passed flag inconsistent with violations")

    def __bool__(self) -> bool:
        return self.passed


def _report(violations: list[Violation]) -> GateReport:
    return GateReport(passed=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class Labeling:
    """Injective-by-intent map from vertex ids to non-empty subsets of X.

    Injectivity is a property checked by ``verify_iasl``, not enforced
    here; membership in the ground set and non-emptiness are enforced.
    Stored as a sorted tuple of (id, set) pairs so labelings hash and
    compare deterministically.
    """

    ground: GroundSet
    assignment: tuple[tuple[str, IntegerSet], ...]

    def __post_init__(self) -> None:
        pairs = tuple(sorted(self.assignment))
        ids = [vid for vid, _ in pairs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex id in labeling")
        for vid, s in pairs:
            if s.is_empty():
                raise ValueError(f"empty set-label at {vid!r}")
            if not s.is_subset_of(self.ground.base):
                raise ValueError(f"label {s} at {vid!r} is not a subset of ground set")
        object.__setattr__(self, "assignment", pairs)
        object.__setattr__(self, "_by_id", dict(pairs))

    @classmethod
    def from_mapping(cls, ground: GroundSet, mapping: Mapping[str, IntegerSet]) -> "Labeling":
        return cls(ground, tuple(mapping.items()))

    def label_of(self, vid: str) -> IntegerSet:
        try:
            return self._by_id[vid]
        except KeyError:
            raise ValueError(f"vertex {vid!r} has no label") from None

    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(vid for vid, _ in self.assignment)

    def as_dict(self) -> dict[str, IntegerSet]:
        return dict(self.assignment)


def induced_edge_label(f: Labeling, u: str, v: str) -> IntegerSet:
    """Sumset of the endpoint labels; not truncated to the ground set."""
    return sumset(f.label_of(u), f.label_of(v))


def _require_coverage(g: Graph, f: Labeling) -> None:
    if set(f.vertex_ids()) != set(g.vertex_ids):
        raise ValueError("labeling does not cover the graph's vertex set exactly")


def graceful_targets(x: GroundSet) -> list[IntegerSet]:
    """The required edge-label family: non-empty subsets of X except {0}."""
    return [s for s in enumerate_nonempty_subsets(x) if s != ZERO_SET]


def verify_iasl(g: Graph, f: Labeling) -> GateReport:
    """Injective vertex labels, every edge sumset inside the ground set."""
    _require_coverage(g, f)
    violations: list[Violation] = []
    seen: dict[IntegerSet, str] = {}
    for vid in g.vertex_ids:
        s = f.label_of(vid)
        if s in seen:
            violations.append(
                Violation(
                    rule="injectivity",
                    detail=f"vertices {seen[s]!r} and {vid!r} share the label {s}",
                    vertex_ids=(seen[s], vid),
                    sets=(s,),
                )
            )
        else:
            seen[s] = vid
    for u, v in g.sorted_edges():
        lab = induced_edge_label(f, u, v)
        if not lab.is_subset_of(f.ground.base):
            violations.append(
                Violation(
                    rule="edge-escape",
                    detail=f"edge {u!r}-{v!r} has label {lab} outside ground set {f.ground}",
                    vertex_ids=(u, v),
                    sets=(lab,),
                )
            )
    return _report(violations)


def verify_iasi(g: Graph, f: Labeling) -> GateReport:
    """On top of verify_iasl: distinct edges carry distinct labels."""
    base = verify_iasl(g, f)
    if not base:
        return base
    violations: list[Violation] = []
    seen: dict[IntegerSet, tuple[str, str]] = {}
    for u, v in g.sorted_edges():
        lab = induced_edge_label(f, u, v)
        if lab in seen:
            pu, pv = seen[lab]
            violations.append(
                Violation(
                    rule="edge-collision",
                    detail=f"edges {pu!r}-{pv!r} and {u!r}-{v!r} share the label {lab}",
                    vertex_ids=(pu, pv, u, v),
                    sets=(lab,),
                )
            )
        else:
            seen[lab] = (u, v)
    return _report(violations)


def verify_iasgl(g: Graph, f: Labeling) -> GateReport:
    """On top of verify_iasi: edge labels are exactly the target family."""
    base = verify_iasi(g, f)
    if not base:
        return base
    violations: list[Violation] = []
    targets = set(graceful_targets(f.ground))
    realized = {induced_edge_label(f, u, v) for u, v in g.edges}
    missing = sorted(targets - realized, key=lambda s: (len(s), s.elements))
    extra = sorted(realized - targets, key=lambda s: (len(s), s.elements))
    if missing:
        violations.append(
            Violation(
                rule="target-missing",
                detail=f"{len(missing)} required edge labels never realized",
                sets=tuple(missing),
            )
        )
    if extra:
        violations.append(
            Violation(
                rule="target-extra",
                detail=f"{len(extra)} edge labels outside the required family",
                sets=tuple(extra),
            )
        )
    return _report(violations)


def zero_vertex(g: Graph, f: Labeling) -> str | None:
    """The vertex labeled {0}, if any."""
    for vid in g.vertex_ids:
        if f.label_of(vid) == ZERO_SET:
            return vid
    return None


def structural_gate(
    g: Graph, x: GroundSet, mode: SummandMode = SummandMode.DISTINCT_LABELS
) -> GateReport:
    """Necessary conditions for a graceful set-indexer, without search.

    R1: |E| = 2^n - 2.
    R2: some vertex has degree >= |non_sumsets| (that vertex hosts {0}).
    R3: pendant count >= |neither| and >= n - 1.
    R4: some single vertex has >= |neither| pendant neighbors.

    R2-R4 are evaluated only when R1 holds, so a graph with the wrong
    edge count is rejected without classifying X. Otherwise every
    violated rule is reported; passing proves nothing.
    """
    if not x.contains_zero():
        raise ValueError("graceful ground set must contain 0")
    required_edges = (1 << x.n) - 2
    if g.edge_count() != required_edges:
        return _report([
            Violation(
                rule="R1",
                detail=f"|E| = {g.edge_count()} but a ground set of size {x.n} "
                f"needs exactly {required_edges} edges",
            )
        ])
    if x.n < 2:
        # No non-{0} subsets to classify; only the empty graph gets here.
        return _report([])

    violations: list[Violation] = []
    cls = classify_ground_set(x, mode)
    max_degree = max(g.degree(v) for v in g.vertex_ids)
    if max_degree < len(cls.non_sumsets):
        violations.append(
            Violation(
                rule="R2",
                detail=f"no vertex of degree >= {len(cls.non_sumsets)} to host {{0}} "
                f"(max degree {max_degree})",
            )
        )
    pendants = pendant_vertices(g)
    needed = max(len(cls.neither), x.n - 1)
    if len(pendants) < needed:
        violations.append(
            Violation(
                rule="R3",
                detail=f"{len(pendants)} pendant vertices but at least {needed} required "
                f"(|neither| = {len(cls.neither)}, n - 1 = {x.n - 1})",
            )
        )
    pendant_set = set(pendants)
    best_host = max(
        (sum(1 for w in g.neighbors(v) if w in pendant_set) for v in g.vertex_ids),
        default=0,
    )
    if best_host < len(cls.neither):
        violations.append(
            Violation(
                rule="R4",
                detail=f"no single vertex has {len(cls.neither)} pendant neighbors "
                f"(best is {best_host})",
            )
        )
    return _report(violations)
