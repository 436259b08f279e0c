"""Construct a verified graceful graph-realisation for a ground set.

The skeleton: a hub vertex v0 labeled {0}, one pendant-or-better vertex
per subset that is not a non-trivial sumset, each joined to v0. Those
edges are forced: a non-sumset target has no decomposition other than
{0} + itself, so only a v0 edge can realize it. Every remaining target
is a sumset, and drawing every compatible edge would duplicate labels,
so the rest is solved as an exact assignment problem: each remaining
target is matched to exactly one label pair from the subset algebra's
pair table (existing vertices first, new vertices lazily).

The assignment works on subset masks. It backtracks over an explicit
stack of (candidate list, cursor) frames, one per target, so the number
of targets, not the interpreter's recursion limit, bounds its depth.

The builder's choices depend on X only through its additive type (see
``sets``), so ``build_realisation`` keeps each result in subset masks
and vertex numbers per (type, prefer_nonbipartite) in a bounded LRU.
Every call takes the same path: it maps the kept masks onto X's own
subsets and verifies the realisation there.

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

from collections import OrderedDict

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

#: Realisations ``build_realisation`` keeps, one per (type, prefer_nonbipartite).
REALISATION_CACHE_SIZE = 32

#: (type, prefer_nonbipartite) -> ``_build``'s result, least recently used first.
_built: OrderedDict = OrderedDict()


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
    reachable the flag records that honestly. The build runs once per
    additive type of X (see the module docstring).
    """
    if not x.contains_zero():
        raise ValueError("graceful ground set must contain 0")
    if x.n < 2:
        raise ValueError("realisation needs a ground set with at least 2 elements")

    key = (additive_type(x), prefer_nonbipartite)
    stored = _built.get(key)
    if stored is None:
        stored = _built[key] = _build(x, prefer_nonbipartite)
        if len(_built) > REALISATION_CACHE_SIZE:
            _built.popitem(last=False)
    else:
        _built.move_to_end(key)
    labels, trace, non_bipartite = stored
    sets = subsets_by_mask(x)
    names = [f"v{i}" for i in range(len(labels))]
    edges = [(names[u], names[w]) for _, u, w in trace]
    result = RealisationResult(
        graph=Graph.from_edges(names, edges),
        labeling=Labeling(x, tuple(zip(names, map(sets.__getitem__, labels)))),
        non_bipartite=non_bipartite,
        assignment_trace=tuple((sets[t], e) for (t, _, _), e in zip(trace, edges)),
    )
    check = verify_iasgl(result.graph, result.labeling)
    if not check:
        details = "; ".join(v.detail for v in check.violations)
        raise RuntimeError(f"realisation failed re-verification: {details}")
    return result


def _build(
    x: GroundSet, prefer_nonbipartite: bool
) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...], bool]:
    """The builder over X, in subset masks and vertex numbers (vertex i
    is named v<i>): each vertex's label mask, the trace as (target mask,
    u, w) with u's name before w's, in (|target|, target) order, and
    whether the graph has an odd cycle."""
    alg = subset_algebra(additive_type(x))
    forced = alg.class_masks(SummandMode.DISTINCT_LABELS)[0]
    sets = subsets_by_mask(x)
    forced_set = set(forced)
    order = sorted(
        (t for t in range(ZERO_MASK + 1, len(sets)) if t not in forced_set),
        key=lambda t: (len(alg.pairs[t]), len(sets[t]), sets[t]),
    )

    def materialize(solution: tuple[tuple[int, int], ...]):
        vertex_of = {ZERO_MASK: 0}
        for s in forced:
            vertex_of[s] = len(vertex_of)
        trace = [(s, 0, vertex_of[s]) for s in forced]
        for t, (a, b) in zip(order, solution):
            for lab in (a, b):
                if lab not in vertex_of:
                    vertex_of[lab] = len(vertex_of)
            # Ordered as the names v<u>, v<w> sort.
            u, w = sorted((vertex_of[a], vertex_of[b]), key=str)
            trace.append((t, u, w))
        trace.sort(key=lambda step: (len(sets[step[0]]), sets[step[0]]))
        names = [f"v{i}" for i in range(len(vertex_of))]
        graph = Graph.from_edges(names, [(names[u], names[w]) for _, u, w in trace])
        return tuple(vertex_of), tuple(trace), not is_bipartite(graph)

    result = None
    scanned = 0
    for sol in _solutions(alg, sets, order, {ZERO_MASK, *forced}):
        built = materialize(sol)
        non_bipartite = built[2]
        if result is None or non_bipartite:
            result = built
        if not prefer_nonbipartite or non_bipartite:
            break
        scanned += 1
        if scanned >= NONBIPARTITE_SOLUTION_CAP:
            break
    return result
