"""Backtracking decision procedure for graceful set-labelability.

Vertices are assigned distinct non-empty subsets of the ground set in
descending-degree order. Four pruning rules and one symmetry rule cut
the tree:

P1  {0} is only tried on vertices whose degree can host every forced
    edge (degree >= |non_sumsets|).
P2  labels that cannot act as a summand are only tried on pendant
    vertices whose neighbor is (or can still become) the {0}-vertex.
P3  an assignment dies as soon as an edge label escapes the ground set,
    collides with an already realized label, or falls outside the
    required target family.
P4  coverage: every target label not yet realized must still be
    realizable by a label pair with at least one unused label sitting
    next to an unassigned vertex, and enough unassigned edges must
    remain to carry the missing targets.
twins
    vertices with the same open neighbourhood (false twins) or the same
    closed neighbourhood (true twins) are interchangeable: swapping
    their labels is a graph automorphism. Within each twin class the
    label masks must increase in DFS order, so the search visits one
    labeling per orbit. Under find_all every verified canonical leaf is
    expanded lazily over the label permutations within each class; each
    extra labeling is verified and ticks the node budget.

P1 and P2 are applied to the candidate lists, never to a node. P1 and
the degree test of P2 depend only on the vertex, so each vertex draws
its labels from a precomputed list that already omits them. A pendant
also has a summand-only list, which it draws from instead once its
neighbor holds a label other than {0} (the dynamic part of P2). So
``stats.nodes`` counts only labels that pass P1 and P2, and
``stats.prunes`` never has a P1 or P2 key.

P4 is incremental: a running count of missing targets makes its count
test O(1), and after a vertex takes a label only the targets whose
viable pairs that assignment can have killed are rescanned (see
``_State.coverage_ok``). The verdict equals a full rescan of every
unrealized target.

Set-up that depends only on X (the subset algebra, its label ->
targets index and the classification) or only on the graph (vertex
order, adjacency by DFS index, twin classes: ``_graph_layout``) sits in
small LRU caches and is shared read-only, so a sweep of one graph over
many ground sets, or of many graphs over one X, pays each part once.

The DFS recurses once per vertex; ``search_iasgl`` lifts the
interpreter's recursion limit by the depth it needs for the duration of
the search, so the graph's size, not that limit, bounds the depth.

All rules are sound (they never discard a completable branch, up to
twin symmetry), so a fully explored tree with no accepted leaf is a
proof of nonexistence. Witnesses are re-verified by the independent
checker before they are reported; search state is never trusted.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import permutations

from .graphs import Graph
from .labeling import Labeling, structural_gate, verify_iasgl
from .sets import (
    SUBSET_ENUMERATION_CAP,
    ZERO_MASK,
    GroundSet,
    classify_ground_set,
    enumerate_canonical_ground_sets,
    subset_algebra,
    _sum_value_mask,
)

PRUNE_RULES = ("gate", "P1", "P2", "P3", "P4", "twins")


class SearchStatus(Enum):
    FOUND = "found"
    EXHAUSTED_NONE = "exhausted-none"
    BUDGET_EXCEEDED = "budget-exceeded"
    GATE_REJECTED = "gate-rejected"


@dataclass(frozen=True)
class SearchConfig:
    node_budget: int = 10_000_000
    time_budget_ms: int = 60_000
    find_all: bool = False
    disabled_rules: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.node_budget <= 0 or self.time_budget_ms <= 0:
            raise ValueError("budgets must be positive")
        unknown = set(self.disabled_rules) - set(PRUNE_RULES)
        if unknown:
            raise ValueError(f"unknown rules: {sorted(unknown)}")

    def enabled(self, rule: str) -> bool:
        return rule not in self.disabled_rules


@dataclass
class SearchStats:
    nodes: int = 0
    prunes: dict[str, int] = field(default_factory=dict)

    def bump(self, rule: str) -> None:
        self.prunes[rule] = self.prunes.get(rule, 0) + 1

    def to_obj(self) -> dict:
        return {"nodes": self.nodes, "prunes": dict(sorted(self.prunes.items()))}


@dataclass
class SearchOutcome:
    status: SearchStatus
    witnesses: list[Labeling]
    stats: SearchStats

    @property
    def found(self) -> bool:
        return self.status is SearchStatus.FOUND


class _Budget(Exception):
    pass


#: Frames kept free above the DFS for the leaf's verification calls.
_STACK_HEADROOM = 100


@dataclass(frozen=True)
class _Layout:
    """The graph-only part of the DFS set-up, shared by every search of
    one graph: vertices in DFS order (descending degree, then id), and
    per DFS index the degree, the neighbours, the earlier neighbours,
    plus the non-trivial twin classes (members in DFS order) and each
    member's predecessor in its class."""

    order: tuple[str, ...]
    degree: tuple[int, ...]
    neighbors: tuple[tuple[int, ...], ...]
    earlier: tuple[tuple[int, ...], ...]
    twin_classes: tuple[tuple[int, ...], ...]
    twin_prev: tuple[int | None, ...]


@lru_cache(maxsize=32)
def _graph_layout(g: Graph) -> _Layout:
    """Compute (or fetch from a small LRU cache) the DFS layout of g.

    False twins share N(v), true twins share N[v]. A vertex is never in
    non-trivial classes of both kinds: if u, v are false twins and u, w
    true twins, then w is adjacent to v, so v lies in N[w] = N[u].
    """
    order = tuple(sorted(g.vertex_ids, key=lambda v: (-g.degree(v), v)))
    index = {v: i for i, v in enumerate(order)}
    neighbors = tuple(tuple(index[w] for w in g.neighbors(v)) for v in order)
    earlier = tuple(tuple(w for w in nbrs if w < i) for i, nbrs in enumerate(neighbors))

    false_twins: dict[frozenset[int], list[int]] = {}
    true_twins: dict[frozenset[int], list[int]] = {}
    for v, nbrs in enumerate(neighbors):
        key = frozenset(nbrs)
        false_twins.setdefault(key, []).append(v)
        true_twins.setdefault(key | {v}, []).append(v)
    twin_classes = tuple(
        tuple(members)
        for classes in (false_twins, true_twins)
        for members in classes.values()
        if len(members) > 1
    )
    twin_prev: list[int | None] = [None] * len(order)
    for members in twin_classes:
        for prev, v in zip(members, members[1:]):
            twin_prev[v] = prev
    return _Layout(
        order=order,
        degree=tuple(len(nbrs) for nbrs in neighbors),
        neighbors=neighbors,
        earlier=earlier,
        twin_classes=twin_classes,
        twin_prev=tuple(twin_prev),
    )


class _State:
    """Mutable backtracking state over subset masks.

    Labels and targets are handled as subset masks; edge sums as value
    masks translated back through a value->mask table (a miss means the
    sum escaped the ground set).
    """

    def __init__(
        self, g: Graph, x: GroundSet, cfg: SearchConfig, stats: SearchStats, deadline: float
    ) -> None:
        self.g = g
        self.x = x
        self.cfg = cfg
        self.stats = stats
        self.deadline = deadline

        n = x.n
        alg = subset_algebra(x)
        self.sets = alg.sets
        self.value = alg.value
        self.value_to_mask = alg.value_to_mask
        self.subset_elems = alg.elements
        # Label-mask pairs (a < b) per target mask; every target has one.
        self.pairs_by_target = alg.pairs
        # Label mask -> the targets with a pair that uses it (P4 rechecks).
        self.targets_of = alg.targets_of
        self.zero_mask = ZERO_MASK
        self.targets = range(ZERO_MASK + 1, 1 << n)

        cls = classify_ground_set(x)
        self.min_zero_degree = len(cls.non_sumsets)
        self.non_summand_masks = {alg.value_to_mask[s.value_mask()] for s in cls.non_summands}
        self.p3 = cfg.enabled("P3")
        self.p4 = cfg.enabled("P4")

        layout = _graph_layout(g)
        self.order = layout.order
        self.degree = layout.degree
        self.neighbors = layout.neighbors
        self.earlier = layout.earlier

        self.candidates, self.summand_only = self._candidate_lists()

        if cfg.enabled("twins"):
            self.twin_classes, self.twin_prev = layout.twin_classes, layout.twin_prev
        else:
            self.twin_classes, self.twin_prev = (), (None,) * len(self.order)

        nv = len(self.order)
        self.assigned: list[int | None] = [None] * nv
        self.owner: dict[int, int] = {}
        self.realized = [0] * (1 << n)  # edges carrying each target mask
        self.missing = len(self.targets)  # targets with no edge yet
        self.edge_count = len(g.edges)
        self.assigned_edges = 0
        self.unassigned = nv
        self.free_neighbors = list(self.degree)  # unassigned neighbours per vertex
        self.witnesses: list[Labeling] = []

    def _candidate_lists(self) -> tuple[list[list[int]], list[list[int] | None]]:
        """Per-vertex label lists with P1 and P2 applied, each in
        ascending subset-mask order.

        The first list per vertex applies P1 and the degree test of P2.
        The second is the summand-only list that a pendant draws from
        once its neighbor holds a label other than {0} (the dynamic part
        of P2); it is None where P2 never narrows the first list. A list
        depends only on whether {0} and the non-summands are allowed, so
        vertices share at most four distinct lists.
        """
        p1, p2 = self.cfg.enabled("P1"), self.cfg.enabled("P2")
        shared: dict[tuple[bool, bool], list[int]] = {}

        def labels(zero_ok: bool, non_summand_ok: bool) -> list[int]:
            key = (zero_ok, non_summand_ok)
            if key not in shared:
                shared[key] = [
                    m
                    for m in range(1, len(self.sets))
                    if (zero_ok or m != self.zero_mask)
                    and (non_summand_ok or m not in self.non_summand_masks)
                ]
            return shared[key]

        lists, summand_only = [], []
        for degree in self.degree:
            zero_ok = not p1 or degree >= self.min_zero_degree
            lists.append(labels(zero_ok, not p2 or degree == 1))
            summand_only.append(labels(zero_ok, False) if p2 and degree == 1 else None)
        return lists, summand_only

    def tick(self) -> None:
        self.stats.nodes += 1
        if self.stats.nodes > self.cfg.node_budget:
            raise _Budget
        if self.stats.nodes % 1024 == 0 and time.monotonic() > self.deadline:
            raise _Budget

    def coverage_ok(self, vi: int, mask: int) -> bool:
        """P4 after vertex vi took label mask.

        Invariant: the parent state already passed P4. For the root this
        holds whenever it has >= 2 vertices, since every target t has
        the viable pair ({0}, t). A pair that was viable in the parent
        dies only if it uses mask, if it is anchored at an earlier
        neighbor of vi that has just lost its last unassigned neighbor,
        or if it needs two unassigned vertices and fewer than two remain.
        So only the targets of mask, the targets of each such neighbor's
        label and, once unassigned < 2, every target are rescanned; the
        verdict is that of a full rescan of all unrealized targets.
        """
        if self.missing > self.edge_count - self.assigned_edges:
            return False
        if self.unassigned < 2:
            groups = [self.targets]
        else:
            groups = [self.targets_of[mask]]
            for w in self.earlier[vi]:
                if not self.free_neighbors[w]:
                    groups.append(self.targets_of[self.assigned[w]])
        realized = self.realized
        for group in groups:
            for t in group:
                if not realized[t] and not self.viable(t):
                    return False
        return True

    def viable(self, t: int) -> bool:
        """Some pair of target t can still become an edge label."""
        for a, b in self.pairs_by_target[t]:
            va = self.owner.get(a)
            vb = self.owner.get(b)
            if va is None and vb is None:
                if self.unassigned >= 2:
                    return True
            elif va is None or vb is None:
                anchored = vb if va is None else va
                if self.free_neighbors[anchored]:
                    return True
            # both labels placed on non-adjacent vertices: pair is dead
        return False

    def record(self) -> bool:
        """Verify the full assignment independently; keep it if it passes."""
        mapping = {self.order[i]: self.sets[m] for i, m in enumerate(self.assigned)}
        labeling = Labeling.from_mapping(self.x, mapping)
        if verify_iasgl(self.g, labeling):
            self.witnesses.append(labeling)
            return True
        return False

    def expand_twins(self, k: int, identity: bool) -> None:
        """Record the leaf's relabelings that permute labels within twin
        classes k.., except the all-identity one (the leaf itself).

        Permutations are generated lazily and each one ticks, so the
        node and time budgets bound the expansion.
        """
        if k == len(self.twin_classes):
            if not identity:
                self.tick()
                self.record()
            return
        members = self.twin_classes[k]
        masks = [self.assigned[v] for v in members]
        for j, perm in enumerate(permutations(masks)):
            for v, m in zip(members, perm):
                self.assigned[v] = m
            self.expand_twins(k + 1, identity and j == 0)
        for v, m in zip(members, masks):
            self.assigned[v] = m

    def search(self, vi: int) -> bool:
        """Depth-first over vertex vi; returns True to stop the search."""
        if vi == len(self.order):
            if not self.record():
                return False
            if not self.cfg.find_all:
                return True
            self.expand_twins(0, True)
            return False

        candidates = self.candidates[vi]
        summand_only = self.summand_only[vi]
        if summand_only is not None:
            placed = self.assigned[self.neighbors[vi][0]]
            if placed is not None and placed != self.zero_mask:
                candidates = summand_only
        prev = self.twin_prev[vi]
        floor = 0 if prev is None else self.assigned[prev]
        realized = self.realized
        for mask in candidates:
            if mask <= floor or mask in self.owner:
                continue
            self.tick()

            new_targets: list[int | None] = []
            ok = True
            elems = self.subset_elems[mask]
            for w in self.earlier[vi]:
                s = _sum_value_mask(elems, self.value[self.assigned[w]])
                t = self.value_to_mask.get(s)
                if self.p3:
                    bad = (
                        t is None
                        or t == self.zero_mask
                        or realized[t] > 0
                        or t in new_targets
                    )
                    if bad:
                        self.stats.bump("P3")
                        ok = False
                        break
                new_targets.append(t)
            if not ok:
                continue

            self.assigned[vi] = mask
            self.owner[mask] = vi
            self.unassigned -= 1
            self.assigned_edges += len(self.earlier[vi])
            for w in self.neighbors[vi]:
                self.free_neighbors[w] -= 1
            for t in new_targets:
                if t is not None and t != self.zero_mask:
                    if not realized[t]:
                        self.missing -= 1
                    realized[t] += 1

            proceed = True
            if self.p4 and not self.coverage_ok(vi, mask):
                self.stats.bump("P4")
                proceed = False

            stop = proceed and self.search(vi + 1)

            for t in new_targets:
                if t is not None and t != self.zero_mask:
                    realized[t] -= 1
                    if not realized[t]:
                        self.missing += 1
            for w in self.neighbors[vi]:
                self.free_neighbors[w] += 1
            self.assigned_edges -= len(self.earlier[vi])
            self.unassigned += 1
            del self.owner[mask]
            self.assigned[vi] = None
            if stop:
                return True
        return False


def search_iasgl(g: Graph, x: GroundSet, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Decide whether g admits a graceful set-indexer over X.

    The structural gate runs first (GATE_REJECTED short-circuits unless
    the "gate" rule is disabled). EXHAUSTED_NONE is only reported when
    the whole pruned tree was explored within budget; BUDGET_EXCEEDED
    means unknown, with any witnesses found so far still valid. A ground
    set above the subset enumeration cap is a ValueError, gate or not.
    The time budget counts from entry, so the gate, the kernel build and
    the candidate-list set-up spend it too.

    The DFS takes one frame per vertex, so the interpreter's recursion
    limit is raised by that depth while it runs and restored afterwards.
    The limit is process-wide: searches must not run concurrently in
    threads of one process.
    """
    cfg = cfg or SearchConfig()
    deadline = time.monotonic() + cfg.time_budget_ms / 1000.0
    if not x.contains_zero():
        raise ValueError("graceful ground set must contain 0")
    if x.n > SUBSET_ENUMERATION_CAP:
        raise ValueError("ground set too large")

    stats = SearchStats()
    if cfg.enabled("gate"):
        gate = structural_gate(g, x)
        if not gate:
            stats.bump("gate")
            return SearchOutcome(SearchStatus.GATE_REJECTED, [], stats)

    if len(g.vertex_ids) > (1 << x.n) - 1:
        # More vertices than available labels: no injective assignment.
        return SearchOutcome(SearchStatus.EXHAUSTED_NONE, [], stats)

    state = _State(g, x, cfg, stats, deadline)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(
        limit + len(state.order) + len(state.twin_classes) + _STACK_HEADROOM
    )
    try:
        state.search(0)
        exhausted = True
    except _Budget:
        exhausted = False
    finally:
        sys.setrecursionlimit(limit)

    witnesses = sorted(state.witnesses, key=lambda f: f.assignment)
    if witnesses:
        status = SearchStatus.FOUND
    elif exhausted:
        status = SearchStatus.EXHAUSTED_NONE
    else:
        status = SearchStatus.BUDGET_EXCEEDED
    return SearchOutcome(status, witnesses, stats)


def sweep_ground_sets(
    g: Graph, n: int, max_element: int, cfg: SearchConfig | None = None
) -> dict[GroundSet, SearchOutcome]:
    """Run the search over every canonical ground set of a given size.

    Ground sets are enumerated with 0 present, |X| = n and max element
    bounded, reduced to canonical (gcd 1) representatives. Items run in
    order, one after another; results are keyed and ordered by ground set.
    """
    cfg = cfg or SearchConfig()
    family = enumerate_canonical_ground_sets(n, max_element)
    return {x: search_iasgl(g, x, cfg) for x in family}
