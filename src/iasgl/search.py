"""Backtracking decision procedure for graceful set-labelability.

Vertices are assigned distinct non-empty subsets of the ground set in
descending-degree order; among vertices of one degree, those with fewer
twins come first (see ``_graph_layout``). Four pruning rules and one
symmetry rule cut the tree:

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
    labeling per orbit. Under find_all the outcome lists the verified
    canonical leaves only and counts the labelings they stand for: each
    leaf's orbit has prod |C|! members over g's twin classes C, every one
    an IASGL labeling once the leaf is one, so none is listed.

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

Set-up that depends only on X's additive type (the subset algebra, its
pair-sum table and its classification masks, all in subset masks) or
only on the graph (vertex order, adjacency by DFS index, twin classes:
``_graph_layout``) sits in small LRU caches and is shared read-only, so
a sweep of one graph over many ground sets, or of many graphs over one
X, pays each part once per type or graph. The pair-sum table maps a
label mask to {partner mask: target mask} for every pair summing inside
X, so P3 costs one dict lookup per edge and a missing key is a sum that
escapes X; its values for a label are the targets P4 rechecks. X's own
subsets (``subsets_by_mask``) are read only to build a witness.

A search is a function of X's additive type (see ``sets``), so
``search_iasgl`` keeps each outcome in subset masks per (graph, config,
type) in a bounded LRU and hands it to every X of the type, each
witness mapped onto X and verified again by ``mapped_labeling``, the
one mapping step that the realisation builder uses too: any caller that
loops over ground sets, a sweep or the theorem harness alike, runs the
DFS once per type.

The twin rule is a cursor, not a filter: the candidate lists are
strictly ascending, so a vertex's scan starts by bisection just past
its twin predecessor's label. A star's leaves therefore cost O(1) each
rather than a scan from the front of a 2^n-long list.

The DFS recurses once per vertex; ``search_iasgl`` lifts the
interpreter's recursion limit by the depth it needs for the duration of
the search, so the graph's size, not that limit, bounds the depth.

All rules are sound (they never discard a completable branch, up to
twin symmetry), so a fully explored tree with no accepted leaf is a
proof of nonexistence. Witnesses are re-verified by the independent
checker before they are reported; search state is never trusted. The
DFS leaf's check is a filter, not an assertion: a leaf that fails it
is dropped and the search goes on within its budgets.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from math import factorial, prod

from .graphs import Graph
from .labeling import Labeling, mapped_labeling, structural_gate, verify_iasgl
from .sets import (
    SUBSET_ENUMERATION_CAP,
    ZERO_MASK,
    GroundSet,
    SummandMode,
    additive_type,
    enumerate_canonical_ground_sets,
    subset_algebra,
    subsets_by_mask,
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
        if self.time_budget_ms > sys.float_info.max:
            # The deadline is a float of seconds.
            raise ValueError("time budget too large")
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
    """Status, verified witnesses and counters of one search.

    ``budget_stop`` names the budget that ended the search ("node" or
    "time"), or is None when it ran to its end; a FOUND search under
    find_all can carry one too.

    Under the twin rule the witnesses are canonical, one per twin orbit,
    and ``labelings`` counts the labelings they stand for (see
    ``_labelings``); without it, ``labelings`` is ``len(witnesses)``.
    Under find_all with ``budget_stop`` None it is the exact number of
    IASGL labelings of the graph over X.
    """

    status: SearchStatus
    witnesses: list[Labeling]
    stats: SearchStats
    budget_stop: str | None = None
    labelings: int = 0

    @property
    def found(self) -> bool:
        return self.status is SearchStatus.FOUND


class _Budget(Exception):
    """A budget ran out; the argument names it ("node" or "time")."""


#: Frames kept free above the DFS for the leaf's verification calls.
_STACK_HEADROOM = 100

#: Search outcomes ``search_iasgl`` keeps, one per (graph, config, type).
SEARCH_CACHE_SIZE = 128

#: (graph, config, type) -> (status, each witness's label masks in
#: ``g.vertex_ids`` order, nodes, prunes), least recently used first.
#: Kept by hand, not by ``lru_cache``: an outcome that a budget stopped
#: must not be kept, and the first X's gate and leaf verification run
#: inside its time budget, so the decision takes X, which the key omits.
_outcomes: OrderedDict = OrderedDict()


@dataclass(frozen=True)
class _Layout:
    """The graph-only part of the DFS set-up, shared by every search of
    one graph: vertices in DFS order (descending degree, then ascending
    twin-class size, then id), and
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

    False twins share N(v), true twins share N[v]; both are found on
    vertex ids, before the order is fixed. A vertex is never in
    non-trivial classes of both kinds: if u, v are false twins and u, w
    true twins, then w is adjacent to v, so v lies in N[w] = N[u]. So
    each vertex has one twin class, of size 1 when it has no twin.

    The DFS order is one sort by (-degree, size of the twin class, id):
    among vertices of one degree, the less symmetric ones are decided
    first (fail first). The twin cursor makes a class of k vertices cost
    C(m, k) label choices rather than m^k, but a vertex without twins
    placed after the class is decided again under each of them; placed
    first, P3 and P4 cut its branch before that fan-out. The members of
    a class share their degree and class size, so they stay in id order,
    and every rule holds for any order that lists each class's members
    in DFS order: only node and prune counts depend on the order.
    """
    false_twins: dict[tuple[str, ...], list[str]] = {}
    true_twins: dict[tuple[str, ...], list[str]] = {}
    for v in g.vertex_ids:
        nbrs = g.neighbors(v)
        false_twins.setdefault(nbrs, []).append(v)
        true_twins.setdefault(tuple(sorted((v, *nbrs))), []).append(v)
    classes = [
        members
        for kind in (false_twins, true_twins)
        for members in kind.values()
        if len(members) > 1
    ]
    size = {v: len(members) for members in classes for v in members}

    order = tuple(sorted(g.vertex_ids, key=lambda v: (-g.degree(v), size.get(v, 1), v)))
    index = {v: i for i, v in enumerate(order)}
    neighbors = tuple(tuple(index[w] for w in g.neighbors(v)) for v in order)
    # Members were listed in id order, which is their DFS order.
    twin_classes = tuple(tuple(index[v] for v in members) for members in classes)
    twin_prev: list[int | None] = [None] * len(order)
    for members in twin_classes:
        for prev, v in zip(members, members[1:]):
            twin_prev[v] = prev
    return _Layout(
        order=order,
        degree=tuple(map(len, neighbors)),
        neighbors=neighbors,
        earlier=tuple(tuple(w for w in nbrs if w < i) for i, nbrs in enumerate(neighbors)),
        twin_classes=twin_classes,
        twin_prev=tuple(twin_prev),
    )


class _State:
    """Mutable backtracking state over subset masks.

    Labels, targets and the classification's families are handled as
    subset masks; X's ``IntegerSet``s are read only to build a witness. An
    edge's label is one lookup in the kernel's pair-sum table
    (``pair_sums``): the partner's entry under the vertex's label,
    absent when the sum escapes the ground set.
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
        alg = subset_algebra(additive_type(x))
        # Label mask -> {partner label mask: target mask} (P3, P4 rechecks).
        self.pair_sums = alg.pair_sums
        # Label-mask pairs (a < b) per target mask; every target has one.
        self.pairs_by_target = alg.pairs
        self.targets = range(ZERO_MASK + 1, 1 << n)

        non_sumsets, non_summands, _ = alg.class_masks(SummandMode.DISTINCT_LABELS)
        self.min_zero_degree = len(non_sumsets)
        self.non_summand_masks = set(non_summands)
        self.p3 = cfg.enabled("P3")
        self.p4 = cfg.enabled("P4")

        layout = _graph_layout(g)
        self.order = layout.order
        self.degree = layout.degree
        self.neighbors = layout.neighbors
        self.earlier = layout.earlier

        self.candidates, self.summand_only = self._candidate_lists()

        self.twin_prev = layout.twin_prev if cfg.enabled("twins") else (None,) * len(self.order)

        nv = len(self.order)
        self.assigned: list[int | None] = [None] * nv
        self.owner: list[int | None] = [None] * (1 << n)
        self.realized = [0] * (1 << n)  # edges carrying each target mask
        self.missing = len(self.targets)  # targets with no edge yet
        self.edge_count = len(g.edges)
        self.assigned_edges = 0
        self.unassigned = nv
        self.free_neighbors = list(self.degree)  # unassigned neighbours per vertex
        self.witnesses: list[tuple[Labeling, tuple[int, ...]]] = []

    def _candidate_lists(self) -> tuple[list[list[int]], list[list[int] | None]]:
        """Per-vertex label lists with P1 and P2 applied, each strictly
        ascending in subset-mask order (the twin rule's cursor bisects
        them).

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
                    for m in range(1, 1 << self.x.n)
                    if (zero_ok or m != ZERO_MASK)
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
        """Count one node and apply the node and time budgets."""
        stats = self.stats
        stats.nodes += 1
        if stats.nodes > self.cfg.node_budget:
            raise _Budget("node")
        if stats.nodes % 1024 == 0 and time.monotonic() > self.deadline:
            raise _Budget("time")

    def coverage_ok(self, vi: int, mask: int) -> bool:
        """P4 after vertex vi took label mask.

        Invariant: the parent state already passed P4. For the root this
        holds whenever it has >= 2 vertices, since every target t has
        the viable pair ({0}, t). A pair that was viable in the parent
        dies only if it uses mask, if it is anchored at an earlier
        neighbor of vi that has just lost its last unassigned neighbor,
        or if it needs two unassigned vertices and fewer than two remain.
        So only the targets of mask, the targets of each such neighbor's
        label (the values of their ``pair_sums`` rows; a target listed
        twice is rescanned twice, to the same verdict) and, once
        unassigned < 2, every target are rescanned; the verdict is that
        of a full rescan of all unrealized targets.

        A target is viable while some pair of it can still become an
        edge label: both labels unused with two vertices unassigned, or
        one label placed on a vertex that keeps an unassigned neighbor.
        A pair whose labels both sit on vertices is dead (they are not
        adjacent, or the target would be realized).
        """
        if self.missing > self.edge_count - self.assigned_edges:
            return False
        unassigned = self.unassigned
        free_neighbors = self.free_neighbors
        if unassigned < 2:
            groups = [self.targets]
        else:
            pair_sums = self.pair_sums
            groups = [pair_sums[mask].values()]
            for w in self.earlier[vi]:
                if not free_neighbors[w]:
                    groups.append(pair_sums[self.assigned[w]].values())
        realized = self.realized
        owner = self.owner
        pairs_by_target = self.pairs_by_target
        for group in groups:
            for t in group:
                if realized[t]:
                    continue
                for a, b in pairs_by_target[t]:
                    va = owner[a]
                    vb = owner[b]
                    if va is None:
                        if vb is None:
                            if unassigned >= 2:
                                break
                        elif free_neighbors[vb]:
                            break
                    elif vb is None and free_neighbors[va]:
                        break
                else:
                    return False
        return True

    def record(self) -> bool:
        """Verify the full assignment independently; keep it, with its
        label masks in ``g.vertex_ids`` order, if it passes."""
        mask_of = dict(zip(self.order, self.assigned))
        labels = tuple(map(mask_of.__getitem__, self.g.vertex_ids))
        sets = subsets_by_mask(self.x)
        labeling = Labeling(self.x, tuple(zip(self.g.vertex_ids, map(sets.__getitem__, labels))))
        if verify_iasgl(self.g, labeling):
            self.witnesses.append((labeling, labels))
            return True
        return False

    def search(self, vi: int) -> bool:
        """Depth-first over vertex vi; returns True to stop the search.

        The twin rule is a cursor: the scan starts just past the label of
        vi's predecessor in its twin class. What taking a vertex does to
        the counters (unassigned vertices, assigned edges, the
        neighbours' free counts) does not depend on the label, so it is
        applied once around the scan; P4 and the deeper vertices see the
        state they would if each label applied it. A budget stop leaves
        the state as it is: the search is over.
        """
        if vi == len(self.order):
            return self.record() and not self.cfg.find_all

        assigned = self.assigned
        candidates = self.candidates[vi]
        summand_only = self.summand_only[vi]
        if summand_only is not None:
            placed = assigned[self.neighbors[vi][0]]
            if placed is not None and placed != ZERO_MASK:
                candidates = summand_only
        prev = self.twin_prev[vi]
        start = 0 if prev is None else bisect_right(candidates, assigned[prev])

        owner = self.owner
        realized = self.realized
        pair_sums = self.pair_sums
        p3, p4 = self.p3, self.p4
        prunes = self.stats.prunes
        earlier = self.earlier[vi]

        neighbors = self.neighbors[vi]
        free_neighbors = self.free_neighbors
        edges = len(earlier)
        self.unassigned -= 1
        self.assigned_edges += edges
        for w in neighbors:
            free_neighbors[w] -= 1

        stop = False
        for i in range(start, len(candidates)):
            mask = candidates[i]
            if owner[mask] is not None:
                continue
            self.tick()

            sums = pair_sums[mask]
            new_targets: list[int | None] = []
            # Two distinct labels never sum to {0}, the one non-target.
            for w in earlier:
                t = sums.get(assigned[w])
                if p3 and (t is None or realized[t] or t in new_targets):
                    prunes["P3"] = prunes.get("P3", 0) + 1
                    break
                new_targets.append(t)
            else:
                assigned[vi] = mask
                owner[mask] = vi
                fresh = 0  # targets this label realizes for the first time
                for t in new_targets:
                    if t is not None:
                        fresh += not realized[t]
                        realized[t] += 1
                self.missing -= fresh

                if not p4 or self.coverage_ok(vi, mask):
                    stop = self.search(vi + 1)
                else:
                    prunes["P4"] = prunes.get("P4", 0) + 1

                for t in new_targets:
                    if t is not None:
                        realized[t] -= 1
                self.missing += fresh
                owner[mask] = None
                assigned[vi] = None
                if stop:
                    break

        for w in neighbors:
            free_neighbors[w] += 1
        self.assigned_edges -= edges
        self.unassigned += 1
        return stop


def search_iasgl(g: Graph, x: GroundSet, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Decide whether g admits a graceful set-indexer over X.

    The structural gate runs first (GATE_REJECTED short-circuits unless
    the "gate" rule is disabled). EXHAUSTED_NONE is only reported when
    the whole pruned tree was explored within budget; BUDGET_EXCEEDED
    means unknown, with any witnesses found so far still valid. A ground
    set without 0 or above the subset enumeration cap is a ValueError,
    gate or not. The time budget counts from the start of the search,
    so the gate, the kernel build and the candidate-list set-up spend it
    too: the clock is read after the gate and again once set-up ends,
    and a budget spent by then stops the search at 0 nodes. The kernel
    build itself is not interrupted.

    The DFS takes one frame per vertex, so the interpreter's recursion
    limit is raised by that depth while it runs and restored afterwards.
    The limit is process-wide: searches must not run concurrently in
    threads of one process.

    g is searched once per additive type of X under cfg: the outcome is
    kept, as label masks and counters, in an LRU of
    ``SEARCH_CACHE_SIZE`` entries, and a later X of the type gets it
    with each witness mapped onto X's own subsets and verified again by
    ``mapped_labeling``: a mapped witness that fails is a RuntimeError,
    never a fallback. An outcome that a budget stopped is never kept, so
    every X spends its own budget on it.
    """
    cfg = cfg or SearchConfig()
    if not x.contains_zero():
        raise ValueError("graceful ground set must contain 0")
    if x.n > SUBSET_ENUMERATION_CAP:
        raise ValueError("ground set too large")
    key = (g, cfg, additive_type(x))
    stored = _outcomes.get(key)
    if stored is None:
        outcome, masks = _decide(g, x, cfg)
        if outcome.budget_stop is None:
            stats = outcome.stats
            _outcomes[key] = (outcome.status, masks, stats.nodes, tuple(stats.prunes.items()))
            if len(_outcomes) > SEARCH_CACHE_SIZE:
                _outcomes.popitem(last=False)
        return outcome
    _outcomes.move_to_end(key)
    status, masks, nodes, prunes = stored
    witnesses = [mapped_labeling(g, x, labels) for labels in masks]
    stats = SearchStats(nodes, dict(prunes))
    return SearchOutcome(status, witnesses, stats, labelings=_labelings(g, cfg, len(witnesses)))


def _labelings(g: Graph, cfg: SearchConfig, witnesses: int) -> int:
    """The labelings that many witnesses stand for: under the twin rule
    each is the canonical member of an orbit of prod |C|! labelings over
    g's twin classes C, else it stands for itself. The classes belong to
    g, so every witness has the same orbit size."""
    if not witnesses or not cfg.enabled("twins"):
        return witnesses
    return witnesses * prod(factorial(len(c)) for c in _graph_layout(g).twin_classes)


def _decide(
    g: Graph, x: GroundSet, cfg: SearchConfig
) -> tuple[SearchOutcome, tuple[tuple[int, ...], ...]]:
    """Run the gate and the DFS: the outcome, and each witness's label
    masks in ``g.vertex_ids`` order."""
    deadline = time.monotonic() + cfg.time_budget_ms / 1000.0
    stats = SearchStats()
    if cfg.enabled("gate"):
        gate = structural_gate(g, x)
        if not gate:
            stats.bump("gate")
            return SearchOutcome(SearchStatus.GATE_REJECTED, [], stats), ()

    if len(g.vertex_ids) > (1 << x.n) - 1:
        # More vertices than available labels: no injective assignment.
        return SearchOutcome(SearchStatus.EXHAUSTED_NONE, [], stats), ()

    out_of_time = SearchOutcome(SearchStatus.BUDGET_EXCEEDED, [], stats, "time"), ()
    if time.monotonic() > deadline:
        return out_of_time
    state = _State(g, x, cfg, stats, deadline)
    if time.monotonic() > deadline:
        return out_of_time
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + len(state.order) + _STACK_HEADROOM)
    budget_stop = None
    try:
        state.search(0)
    except _Budget as stop:
        budget_stop = stop.args[0]
    finally:
        sys.setrecursionlimit(limit)

    found = sorted(state.witnesses, key=lambda w: w[0].assignment)
    if found:
        status = SearchStatus.FOUND
    elif budget_stop is None:
        status = SearchStatus.EXHAUSTED_NONE
    else:
        status = SearchStatus.BUDGET_EXCEEDED
    outcome = SearchOutcome(
        status, [f for f, _ in found], stats, budget_stop, _labelings(g, cfg, len(found))
    )
    return outcome, tuple(labels for _, labels in found)


def sweep_ground_sets(
    g: Graph, n: int, max_element: int, cfg: SearchConfig | None = None
) -> dict[GroundSet, SearchOutcome]:
    """Run the search over every canonical ground set of a given size.

    Ground sets are enumerated with 0 present, |X| = n and max element
    bounded, reduced to canonical (gcd 1) representatives. Items run in
    order, one after another; results are keyed and ordered by ground set.
    Through ``search_iasgl``, each additive type is searched once.
    """
    cfg = cfg or SearchConfig()
    return {x: search_iasgl(g, x, cfg) for x in enumerate_canonical_ground_sets(n, max_element)}
