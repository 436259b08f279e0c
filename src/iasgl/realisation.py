"""Construct a verified graceful graph-realisation for a ground set.

The skeleton: a hub vertex v0 labeled {0}, one pendant-or-better vertex
per subset that is not a non-trivial sumset, each joined to v0. Those
edges are forced: a non-sumset target has no decomposition other than
{0} + itself, so only a v0 edge can realize it. Every remaining target
is a sumset, and drawing every compatible edge would duplicate labels,
so the rest is solved as an exact assignment problem: each remaining
target is matched to exactly one label pair (existing vertices first,
new vertices lazily), no edge reused, all labels realized once.

Matching every target to the pair ({0}, target) with a fresh leaf is
always feasible, so the star on all 2^n - 2 subsets is the fallback and
the builder cannot fail for a valid ground set. When asked, the builder
scans assignment solutions for one with an odd cycle and reports the
bipartiteness flag honestly when none is reachable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Edge, Graph, is_bipartite
from .labeling import Labeling, graceful_targets, verify_iasgl
from .sets import (
    ZERO_SET,
    GroundSet,
    IntegerSet,
    SummandMode,
    classify_ground_set,
    subset_algebra,
    sumset,
)

ASSIGNMENT_NODE_BUDGET = 200_000
NONBIPARTITE_SOLUTION_CAP = 2_000

LabelPair = tuple[IntegerSet, IntegerSet]


class RealisationInfeasible(ValueError):
    """No exact edge-label assignment exists for the given constraints."""

    def __init__(self, mode: SummandMode, unassignable: list[IntegerSet]) -> None:
        self.unassignable = unassignable
        pretty = ", ".join(str(t) for t in unassignable)
        super().__init__(f"realisation infeasible under mode {mode.value}: "
                         f"unassignable targets [{pretty}]")


@dataclass(frozen=True)
class RealisationResult:
    graph: Graph
    labeling: Labeling
    non_bipartite: bool
    assignment_trace: tuple[tuple[IntegerSet, Edge], ...]

    def trace_dict(self) -> dict[IntegerSet, Edge]:
        return dict(self.assignment_trace)


def _norm_pair(a: IntegerSet, b: IntegerSet) -> LabelPair:
    return (a, b) if a <= b else (b, a)


def _family_key(s: IntegerSet) -> tuple[int, tuple[int, ...]]:
    return (len(s), s.elements)


def _decomposition_pairs(x: GroundSet) -> dict[IntegerSet, list[LabelPair]]:
    """All unordered label pairs (A != B, both non-empty subsets of X)
    keyed by their sumset, for sumsets that stay inside X.

    A view of the subset algebra's mask pair table: the lower-mask
    operand comes first, and each target's pairs are sorted.
    """
    alg = subset_algebra(x)
    sets = alg.sets
    table: dict[IntegerSet, list[LabelPair]] = {}
    for t, mask_pairs in alg.pairs.items():
        pairs = [(sets[a], sets[b]) for a, b in mask_pairs]
        pairs.sort()
        table[sets[t]] = pairs
    return table


def _solutions(
    unfixed: list[IntegerSet],
    pool: set[IntegerSet],
    used_edges: set[LabelPair],
    pair_table: dict[IntegerSet, list[LabelPair]],
    allow_new_vertices: bool,
    node_budget: int,
):
    """Yield exact assignments {target: pair} by backtracking.

    Targets are processed fewest-compatible-pairs first. For each target
    the candidates are ordered by how many new vertices they would add
    (pool pairs, then one new label, then two), canonically within each
    group, which keeps vertex growth lazy and the output deterministic.
    """
    order = sorted(unfixed, key=lambda t: (len(pair_table.get(t, ())), _family_key(t)))
    chosen: dict[IntegerSet, LabelPair] = {}
    nodes = 0

    def extend(i: int):
        nonlocal nodes
        if i == len(order):
            yield dict(chosen)
            return
        target = order[i]
        candidates = []
        for a, b in pair_table.get(target, ()):
            new_count = (a not in pool) + (b not in pool)
            if new_count and not allow_new_vertices:
                continue
            if _norm_pair(a, b) in used_edges:
                continue
            candidates.append((new_count, a, b))
        candidates.sort(key=lambda c: (c[0], c[1], c[2]))
        for new_count, a, b in candidates:
            nodes += 1
            if nodes > node_budget:
                return
            added = [s for s in (a, b) if s not in pool]
            pool.update(added)
            edge = _norm_pair(a, b)
            used_edges.add(edge)
            chosen[target] = (a, b)
            yield from extend(i + 1)
            del chosen[target]
            used_edges.discard(edge)
            pool.difference_update(added)

    yield from extend(0)


def assign_edge_labels(
    targets: list[IntegerSet],
    vertex_pool: list[IntegerSet],
    fixed_edges: set[LabelPair],
    x: GroundSet,
    mode: SummandMode = SummandMode.DISTINCT_LABELS,
    allow_new_vertices: bool = True,
) -> dict[IntegerSet, LabelPair]:
    """Match every unfixed target to one realizing label pair.

    fixed_edges already realize their own sumsets (which must be
    pairwise distinct members of targets); the remaining targets each
    get one pair (A, B), A != B, sumset(A, B) = target, drawn from the
    pool or from unused subsets of X, with no edge reused. Raises
    RealisationInfeasible when no exact assignment exists.
    """
    target_set = set(targets)
    fixed_labels = []
    for a, b in fixed_edges:
        lab = sumset(a, b)
        if lab not in target_set:
            raise ValueError(f"fixed edge label {lab} is not a target")
        fixed_labels.append(lab)
    if len(set(fixed_labels)) != len(fixed_labels):
        raise ValueError("fixed edges carry duplicate labels")

    unfixed = sorted(target_set - set(fixed_labels), key=_family_key)
    pair_table = _decomposition_pairs(x)
    pool = set(vertex_pool)
    used = {_norm_pair(a, b) for a, b in fixed_edges}
    for sol in _solutions(unfixed, pool, used, pair_table,
                          allow_new_vertices, ASSIGNMENT_NODE_BUDGET):
        return sol

    # Pinpoint the stuck targets for the error report.
    stuck = []
    for t in unfixed:
        pairs = pair_table.get(t, [])
        if allow_new_vertices:
            usable = [p for p in pairs if _norm_pair(*p) not in used]
        else:
            usable = [
                p for p in pairs
                if p[0] in pool and p[1] in pool and _norm_pair(*p) not in used
            ]
        if not usable:
            stuck.append(t)
    raise RealisationInfeasible(mode, stuck or unfixed)


def build_realisation(
    x: GroundSet,
    prefer_nonbipartite: bool = False,
    mode: SummandMode = SummandMode.DISTINCT_LABELS,
) -> RealisationResult:
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

    cls = classify_ground_set(x, mode)
    targets = graceful_targets(x)
    forced = list(cls.non_sumsets)
    fixed_edges = {_norm_pair(ZERO_SET, s) for s in forced}
    unfixed = sorted(set(targets) - set(forced), key=_family_key)

    pair_table = _decomposition_pairs(x)
    base_pool = {ZERO_SET, *forced}

    def materialize(solution: dict[IntegerSet, LabelPair]) -> RealisationResult:
        vertex_of: dict[IntegerSet, str] = {ZERO_SET: "v0"}
        for i, s in enumerate(forced, start=1):
            vertex_of[s] = f"v{i}"
        trace: list[tuple[IntegerSet, Edge]] = []
        edges: list[Edge] = []
        for s in forced:
            e = ("v0", vertex_of[s])
            edges.append(e)
            trace.append((s, e))
        order = sorted(solution, key=lambda t: (len(pair_table.get(t, ())), _family_key(t)))
        for t in order:
            a, b = solution[t]
            for lab in (a, b):
                if lab not in vertex_of:
                    vertex_of[lab] = f"v{len(vertex_of)}"
            u, w = sorted((vertex_of[a], vertex_of[b]))
            edges.append((u, w))
            trace.append((t, (u, w)))
        graph = Graph.from_edges(vertex_of.values(), edges)
        labeling = Labeling.from_mapping(x, {vid: s for s, vid in vertex_of.items()})
        trace.sort(key=lambda item: _family_key(item[0]))
        return RealisationResult(
            graph=graph,
            labeling=labeling,
            non_bipartite=not is_bipartite(graph),
            assignment_trace=tuple(trace),
        )

    first: RealisationResult | None = None
    result: RealisationResult | None = None
    scanned = 0
    for sol in _solutions(unfixed, set(base_pool), set(fixed_edges), pair_table,
                          True, ASSIGNMENT_NODE_BUDGET):
        built = materialize(sol)
        if first is None:
            first = built
        if not prefer_nonbipartite or built.non_bipartite:
            result = built
            break
        scanned += 1
        if scanned >= NONBIPARTITE_SOLUTION_CAP:
            break
    if result is None:
        result = first
    if result is None:
        raise RealisationInfeasible(mode, unfixed)

    check = verify_iasgl(result.graph, result.labeling)
    if not check:
        details = "; ".join(v.detail for v in check.violations)
        raise RuntimeError(f"realisation failed re-verification: {details}")
    return result
