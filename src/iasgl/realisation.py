"""Construct a verified graceful graph-realisation for a ground set.

The skeleton: a hub vertex v0 labeled {0}, one pendant-or-better vertex
per subset that is not a non-trivial sumset, each joined to v0. Those
edges are forced: a non-sumset target has no decomposition other than
{0} + itself, so only a v0 edge can realize it. Every remaining target
is a sumset, and drawing every compatible edge would duplicate labels,
so the rest is solved as an exact assignment problem: each remaining
target is matched to exactly one label pair from the subset algebra's
pair table (existing vertices first, new vertices lazily).

The assignment works on subset masks and turns them into
``IntegerSet``s once per solution. It backtracks over an explicit stack
of (candidate list, cursor) frames, one per target, so the number of
targets, not the interpreter's recursion limit, bounds its depth.

No candidate is ever rejected: a label pair determines its sumset, so
it is a candidate for exactly one target, and the forced pairs
({0}, s) realize the non-sumsets, never an unfixed target. Every
unfixed target t keeps the pair ({0}, t), so every candidate list is
non-empty and the first descent reaches a solution without
backtracking: the builder cannot fail for a valid ground set. When
asked, it scans further solutions for one with an odd cycle and reports
the bipartiteness flag honestly when none is reachable.
"""

from __future__ import annotations

from .graphs import Edge, Graph, is_bipartite
from .labeling import Labeling, verify_iasgl
from .sets import (
    ZERO_MASK,
    GroundSet,
    IntegerSet,
    Record,
    SubsetAlgebra,
    SummandMode,
    additive_type,
    subset_algebra,
    subsets_by_mask,
)

ASSIGNMENT_NODE_BUDGET = 200_000
NONBIPARTITE_SOLUTION_CAP = 2_000


class RealisationResult(Record):
    __slots__ = _fields = ("graph", "labeling", "non_bipartite", "assignment_trace")

    def __init__(
        self,
        graph: Graph,
        labeling: Labeling,
        non_bipartite: bool,
        assignment_trace: tuple[tuple[IntegerSet, Edge], ...],
    ) -> None:
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "labeling", labeling)
        object.__setattr__(self, "non_bipartite", non_bipartite)
        object.__setattr__(self, "assignment_trace", assignment_trace)


def _solutions(
    alg: SubsetAlgebra, sets: tuple[IntegerSet, ...], order: list[int], pool: set[int]
):
    """Yield exact assignments as tuples of mask pairs, one per target of order.

    sets is X's ``subsets_by_mask``. For each target the candidates are
    ordered by how many new vertices they would add (pool pairs, then
    one new label, then two), then by the operands as ``IntegerSet``s
    (lexicographic, which is not mask order), which keeps vertex growth
    lazy and the output deterministic. ASSIGNMENT_NODE_BUDGET only ends
    the scan once a solution has been yielded.
    """
    ranked = sorted(range(1, len(sets)), key=sets.__getitem__)
    rank = [0] * len(sets)
    for r, m in enumerate(ranked):
        rank[m] = r

    def candidates(target: int) -> list[tuple[int, int]]:
        return sorted(
            alg.pairs[target],
            key=lambda p: ((p[0] not in pool) + (p[1] not in pool), rank[p[0]], rank[p[1]]),
        )

    if not order:
        yield ()
        return
    chosen: list[tuple[int, int]] = []
    added: list[tuple[int, ...]] = []  # labels each choice put into the pool
    stack = [[candidates(order[0]), 0]]
    nodes = 0
    yielded = False
    while stack:
        frame = stack[-1]
        if len(chosen) == len(stack):  # undo this frame's previous choice
            pool.difference_update(added.pop())
            chosen.pop()
        cands, cursor = frame
        if cursor == len(cands):
            stack.pop()
            continue
        nodes += 1
        if nodes > ASSIGNMENT_NODE_BUDGET and yielded:
            return
        frame[1] = cursor + 1
        a, b = cands[cursor]
        new = tuple(lab for lab in (a, b) if lab not in pool)
        pool.update(new)
        added.append(new)
        chosen.append((a, b))
        if len(chosen) == len(order):
            yielded = True
            yield tuple(chosen)
        else:
            stack.append([candidates(order[len(chosen)]), 0])


def build_realisation(x: GroundSet, prefer_nonbipartite: bool = False) -> RealisationResult:
    """Build and re-verify a graceful graph-realisation of X.

    The returned graph always carries exactly 2^n - 2 edges. With
    prefer_nonbipartite the assignment solutions are scanned (bounded)
    for one containing an odd cycle; if only bipartite realisations are
    reachable the flag records that honestly.
    """
    if not x.contains_zero():
        raise ValueError("graceful ground set must contain 0")
    if x.n < 2:
        raise ValueError("realisation needs a ground set with at least 2 elements")

    alg = subset_algebra(additive_type(x))
    forced = alg.class_masks(SummandMode.DISTINCT_LABELS)[0]
    sets = subsets_by_mask(x)
    forced_set = set(forced)
    order = sorted(
        (t for t in range(ZERO_MASK + 1, len(sets)) if t not in forced_set),
        key=lambda t: (len(alg.pairs[t]), len(sets[t]), sets[t]),
    )

    def materialize(solution: tuple[tuple[int, int], ...]) -> RealisationResult:
        vertex_of = {ZERO_MASK: "v0"}
        for i, s in enumerate(forced, start=1):
            vertex_of[s] = f"v{i}"
        trace = [(s, ("v0", vertex_of[s])) for s in forced]
        for t, (a, b) in zip(order, solution):
            for lab in (a, b):
                if lab not in vertex_of:
                    vertex_of[lab] = f"v{len(vertex_of)}"
            u, w = sorted((vertex_of[a], vertex_of[b]))
            trace.append((t, (u, w)))
        graph = Graph.from_edges(vertex_of.values(), [e for _, e in trace])
        labeling = Labeling.from_mapping(x, {vid: sets[m] for m, vid in vertex_of.items()})
        trace.sort(key=lambda item: (len(sets[item[0]]), sets[item[0]]))
        return RealisationResult(
            graph=graph,
            labeling=labeling,
            non_bipartite=not is_bipartite(graph),
            assignment_trace=tuple((sets[t], e) for t, e in trace),
        )

    result: RealisationResult | None = None
    scanned = 0
    for sol in _solutions(alg, sets, order, {ZERO_MASK, *forced}):
        built = materialize(sol)
        if result is None or built.non_bipartite:
            result = built
        if not prefer_nonbipartite or built.non_bipartite:
            break
        scanned += 1
        if scanned >= NONBIPARTITE_SOLUTION_CAP:
            break

    check = verify_iasgl(result.graph, result.labeling)
    if not check:
        details = "; ".join(v.detail for v in check.violations)
        raise RuntimeError(f"realisation failed re-verification: {details}")
    return result
