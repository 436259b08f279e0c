"""Vertex set-labelings, induced edge labels, and the verification ladder.

A labeling assigns a non-empty subset of the ground set to every vertex.
Three nested properties are checked, each implying the previous:

* set-labeling: the vertex map is injective and every edge's induced
  sumset stays inside the ground set;
* set-indexer: distinct edges get distinct induced labels;
* graceful set-indexer: the induced edge labels are exactly the
  non-empty subsets of the ground set other than {0}, each once.

All three are conditions on one induced map f+(uv) = f(u) + f(v), so
``verify_ladder`` computes each edge label once and checks the rungs in
order; the three ``verify_*`` functions read their report off it. It
reads each vertex label's element tuple once and compares labels by
those tuples. Edge labels are summed from the endpoint elements into
plain sets (``edge_sums``) and tested against one frozenset of X;
``IntegerSet``s are built only for the labels a ``Violation`` reports.
Once IASL and IASI hold, the IASGL rung is a count: the |E| edge labels
are distinct members of the target family, so they are all of it iff
|E| is its size (2^n - 2 when 0 is in X). The target family is
enumerated only to name what is missing. The ladder reads nothing of
the subset-algebra kernel of ``sets``, so every witness and realisation
the kernel leads to is re-checked by an independent route.

A result kept per additive type (see ``sets``) is a tuple of label
masks; ``mapped_labeling`` is the one step that maps such a result onto
X's own subsets and re-verifies it there, for the search's kept
outcomes and the realisation builder alike. A labeling that fails is a
RuntimeError, never a fallback.

``structural_gate`` bundles the necessary conditions that can be read
off the graph shape and X's classification (edge count, a high-degree
host for {0}, pendant supply). Passing the gate never asserts
existence; failing it refutes existence without any search. The gate is
not independent of the kernel: it counts the kernel's classification
masks (``SubsetAlgebra.class_masks``) and builds no subset of X, so a
gate rejection rests on the kernel being right.
"""

from __future__ import annotations

from collections.abc import Mapping

from .graphs import Edge, Graph, pendant_vertices
from .sets import (
    ZERO_SET,
    GroundSet,
    IntegerSet,
    Record,
    SummandMode,
    additive_type,
    enumerate_nonempty_subsets,
    subset_algebra,
    subsets_by_mask,
    sumset,
)


class Violation(Record):
    """One failed rule: rule id, human detail, offending ids and sets."""

    __slots__ = _fields = ("rule", "detail", "vertex_ids", "sets")

    def __init__(
        self,
        rule: str,
        detail: str,
        vertex_ids: tuple[str, ...] = (),
        sets: tuple[IntegerSet, ...] = (),
    ) -> None:
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "vertex_ids", vertex_ids)
        object.__setattr__(self, "sets", sets)

    def to_obj(self) -> dict:
        return {
            "rule": self.rule,
            "detail": self.detail,
            "vertex_ids": list(self.vertex_ids),
            "sets": [list(s.elements) for s in self.sets],
        }


class GateReport(Record):
    """The violations of one check; it passes when there are none."""

    __slots__ = _fields = ("violations",)

    def __init__(self, violations: tuple[Violation, ...] = ()) -> None:
        object.__setattr__(self, "violations", violations)

    @property
    def passed(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.passed


class Labeling(Record):
    """Injective-by-intent map from vertex ids to non-empty subsets of X.

    Injectivity is a property checked by ``verify_iasl``, not enforced
    here; membership in the ground set and non-emptiness are enforced.
    Stored as a sorted tuple of (id, set) pairs so labelings hash and
    compare deterministically.
    """

    __slots__ = ("ground", "assignment", "_by_id")
    _fields = ("ground", "assignment")

    def __init__(self, ground: GroundSet, assignment: tuple[tuple[str, IntegerSet], ...]) -> None:
        pairs = tuple(sorted(assignment))
        by_id = dict(pairs)
        if len(by_id) != len(pairs):
            raise ValueError("duplicate vertex id in labeling")
        base = frozenset(ground.base.elements)
        for vid, s in pairs:
            elements = s.elements
            if not elements:
                raise ValueError(f"empty set-label at {vid!r}")
            if not base.issuperset(elements):
                raise ValueError(f"label {s} at {vid!r} is not a subset of ground set")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "assignment", pairs)
        object.__setattr__(self, "_by_id", by_id)

    @classmethod
    def from_mapping(cls, ground: GroundSet, mapping: Mapping[str, IntegerSet]) -> "Labeling":
        return cls(ground, tuple(mapping.items()))

    def label_of(self, vid: str) -> IntegerSet:
        try:
            return self._by_id[vid]
        except KeyError:
            raise ValueError(f"vertex {vid!r} has no label") from None


def induced_edge_label(f: Labeling, u: str, v: str) -> IntegerSet:
    """Sumset of the endpoint labels; not truncated to the ground set."""
    return sumset(f.label_of(u), f.label_of(v))


def edge_sums(a: tuple[int, ...], b: tuple[int, ...]) -> frozenset[int]:
    """The sumset A + B of two element tuples as a plain set of element
    sums (never truncated)."""
    return frozenset([x + y for x in a for y in b])


def _require_coverage(g: Graph, f: Labeling) -> None:
    if f._by_id.keys() != set(g.vertex_ids):
        raise ValueError("labeling does not cover the graph's vertex set exactly")


def graceful_targets(x: GroundSet) -> list[IntegerSet]:
    """The required edge-label family: non-empty subsets of X except {0}."""
    return [s for s in enumerate_nonempty_subsets(x) if s != ZERO_SET]


def verify_ladder(g: Graph, f: Labeling) -> tuple[GateReport, ...]:
    """Check the IASL, IASI and IASGL rungs in order, computing each edge
    label once; the reports end at the first rung that fails.

    Labels are read as element tuples, one dict lookup per endpoint, and
    compared by those tuples; ``IntegerSet``s are built only for the
    labels a violation reports.
    """
    _require_coverage(g, f)
    # With the coverage checked, the assignment lists g's vertices in id
    # order. Each rule is first tested in one pass of built-in set
    # operations; its loop runs only to report what that test found.
    elements = {vid: s.elements for vid, s in f.assignment}
    edges = g.sorted_edges()
    labels = [edge_sums(elements[u], elements[v]) for u, v in edges]
    base = frozenset(f.ground.base.elements)

    # IASL: injective vertex labels, every edge label inside X.
    violations: list[Violation] = []
    if len(set(elements.values())) < len(elements):
        owner: dict[tuple[int, ...], str] = {}
        for vid, s in f.assignment:
            first = owner.setdefault(s.elements, vid)
            if first != vid:
                violations.append(
                    Violation(
                        rule="injectivity",
                        detail=f"vertices {first!r} and {vid!r} share the label {s}",
                        vertex_ids=(first, vid),
                        sets=(s,),
                    )
                )
    if not all(map(base.issuperset, labels)):
        for (u, v), lab in zip(edges, labels):
            if not base.issuperset(lab):
                lab_set = IntegerSet.from_iterable(lab)
                violations.append(
                    Violation(
                        rule="edge-escape",
                        detail=f"edge {u!r}-{v!r} has label {lab_set} outside ground set {f.ground}",
                        vertex_ids=(u, v),
                        sets=(lab_set,),
                    )
                )
    iasl = GateReport(tuple(violations))
    if not iasl:
        return (iasl,)

    # IASI: distinct edges carry distinct labels.
    violations = []
    distinct = set(labels)
    if len(distinct) < len(labels):
        carrier: dict[frozenset[int], Edge] = {}
        for edge, lab in zip(edges, labels):
            first = carrier.setdefault(lab, edge)
            if first != edge:
                (pu, pv), (u, v) = first, edge
                lab_set = IntegerSet.from_iterable(lab)
                violations.append(
                    Violation(
                        rule="edge-collision",
                        detail=f"edges {pu!r}-{pv!r} and {u!r}-{v!r} share the label {lab_set}",
                        vertex_ids=(pu, pv, u, v),
                        sets=(lab_set,),
                    )
                )
    iasi = GateReport(tuple(violations))
    if not iasi:
        return (iasl, iasi)

    # IASGL: the edge labels are exactly the target family. After IASL
    # every label is a non-empty subset of X, and none is {0}: A + B = {0}
    # needs A = B = {0}, which injectivity rules out. After IASI the
    # labels are distinct. So they are |E| distinct members of the family
    # (2^n - 2 sets, or 2^n - 1 when 0 is not in X), and cover it iff |E|
    # equals its size; only a target can be missing, never an extra label.
    if len(distinct) == (1 << len(base)) - 1 - (0 in base):
        return (iasl, iasi, GateReport())
    missing = sorted(
        (s for s in graceful_targets(f.ground) if frozenset(s.elements) not in distinct),
        key=lambda s: (len(s), s.elements),
    )
    violation = Violation(
        rule="target-missing",
        detail=f"{len(missing)} required edge labels never realized",
        sets=tuple(missing),
    )
    return (iasl, iasi, GateReport((violation,)))


def verify_iasl(g: Graph, f: Labeling) -> GateReport:
    """Injective vertex labels, every edge sumset inside the ground set."""
    return verify_ladder(g, f)[0]


def verify_iasi(g: Graph, f: Labeling) -> GateReport:
    """On top of verify_iasl: distinct edges carry distinct labels."""
    return verify_ladder(g, f)[:2][-1]


def verify_iasgl(g: Graph, f: Labeling) -> GateReport:
    """On top of verify_iasi: edge labels are exactly the target family."""
    return verify_ladder(g, f)[-1]


def mapped_labeling(g: Graph, x: GroundSet, masks: tuple[int, ...]) -> Labeling:
    """The labeling over X of a result kept per additive type: g's
    vertices, in ``g.vertex_ids`` order, take the subsets of X with these
    masks. It is verified again, and one that is not an IASGL labeling of
    g is a RuntimeError."""
    f = Labeling(x, tuple(zip(g.vertex_ids, map(subsets_by_mask(x).__getitem__, masks))))
    check = verify_iasgl(g, f)
    if not check:
        details = "; ".join(v.detail for v in check.violations)
        raise RuntimeError(f"mapped witness over {x} failed re-verification: {details}")
    return f


def zero_vertex(g: Graph, f: Labeling) -> str | None:
    """The vertex labeled {0}, if any."""
    for vid in g.vertex_ids:
        if f.label_of(vid) == ZERO_SET:
            return vid
    return None


def structural_gate(g: Graph, x: GroundSet) -> GateReport:
    """Necessary conditions for a graceful set-indexer, without search.

    R1: |E| = 2^n - 2.
    R2: some vertex has degree >= |non_sumsets| (that vertex hosts {0}).
    R3: pendant count >= |neither| and >= n - 1.
    R4: some single vertex has >= |neither| pendant neighbors.

    R2-R4 are evaluated only when R1 holds, so a graph with the wrong
    edge count is rejected without classifying X; they count the
    kernel's DISTINCT_LABELS classification masks. Otherwise every
    violated rule is reported; passing proves nothing.
    """
    if not x.contains_zero():
        raise ValueError("graceful ground set must contain 0")
    required_edges = (1 << x.n) - 2
    if g.edge_count() != required_edges:
        return GateReport((
            Violation(
                rule="R1",
                detail=f"|E| = {g.edge_count()} but a ground set of size {x.n} "
                f"needs exactly {required_edges} edges",
            ),
        ))
    if x.n < 2:
        # No non-{0} subsets to classify; only the empty graph gets here.
        return GateReport()

    violations: list[Violation] = []
    masks = subset_algebra(additive_type(x)).class_masks(SummandMode.DISTINCT_LABELS)
    non_sumsets, neither = len(masks[0]), len(masks[2])
    max_degree = max(g.degree(v) for v in g.vertex_ids)
    if max_degree < non_sumsets:
        violations.append(
            Violation(
                rule="R2",
                detail=f"no vertex of degree >= {non_sumsets} to host {{0}} "
                f"(max degree {max_degree})",
            )
        )
    pendants = pendant_vertices(g)
    needed = max(neither, x.n - 1)
    if len(pendants) < needed:
        violations.append(
            Violation(
                rule="R3",
                detail=f"{len(pendants)} pendant vertices but at least {needed} required "
                f"(|neither| = {neither}, n - 1 = {x.n - 1})",
            )
        )
    pendant_set = set(pendants)
    best_host = max(
        (sum(1 for w in g.neighbors(v) if w in pendant_set) for v in g.vertex_ids),
        default=0,
    )
    if best_host < neither:
        violations.append(
            Violation(
                rule="R4",
                detail=f"no single vertex has {neither} pendant neighbors "
                f"(best is {best_host})",
            )
        )
    return GateReport(tuple(violations))
