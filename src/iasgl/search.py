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
unrealized target. The other counts P4 reads are functions of the
depth, not of the labels: while vertices 0..vi hold labels, nv - 1 - vi
are unassigned, the edges not among 0..vi are unplaced, and a vertex
keeps an unassigned neighbour iff its last neighbour in DFS order comes
after vi. Both tables are read off the layout once per search.

Set-up that depends only on X's additive type (the subset algebra, its
pair-sum table and its one classification's masks, ``class_masks()``,
all in subset masks) or only on the graph (vertex order, adjacency by
DFS index, twin classes: ``_graph_layout``) sits in small LRU caches
and is shared read-only, so a sweep of one graph over many ground sets,
or of many graphs over one X, pays each part once per type or graph.
The pair-sum table maps a label mask to {partner mask: target mask}
for every pair summing inside X, so P3 costs one dict lookup per edge
and a missing key is a sum that escapes X; its values for a label are
the targets P4 rechecks. X's own subsets are read only to build a
witness.

A search is a function of X's additive type (see ``sets``), so
``search_iasgl`` keeps each outcome in subset masks per (graph, config,
type) in a bounded LRU and hands it to every X of the type, each
witness mapped onto X and verified again by ``mapped_labeling``, the
one mapping step that DFS leaves and the realisation builder use too:
any caller that loops over ground sets, a sweep or the theorem harness
alike, runs the DFS once per type. The kept outcome carries its orbit
size (the labelings each witness stands for), so a mapped X multiplies
it by its witness count and reads nothing of the graph's layout.

The twin rule is a cursor, not a filter: the candidate lists are
strictly ascending, so a vertex's scan starts by bisection just past
its twin predecessor's label. A star's leaves therefore cost O(1) each
rather than a scan from the front of a 2^n-long list.

The DFS is one loop over levels, one level per vertex, not a
recursion: each level keeps only its candidate list, the index of its
next candidate, and the targets and fresh count of the label it holds
(see ``_State.run``); entering or leaving a level changes no other
count. So a deep graph costs neither interpreter frames nor C stack,
and a budget stop is a returned value, not an exception.

All rules are sound (they never discard a completable branch, up to
twin symmetry), so a fully explored tree with no accepted leaf is a
proof of nonexistence. A leaf, a complete injective assignment, is
accepted when no target is missing and |E| = 2^n - 2: then each target
is carried by exactly one edge and no edge label escapes X, which is
the paper's graceful condition, with P3 and P4 on or off. An accepted
leaf is mapped onto X and verified by the independent checker at once,
inside the DFS and its budgets, through ``mapped_labeling``, the step
that kept outcomes use too; search state is never trusted. A leaf that
fails there is a RuntimeError (the CLI's exit 70), never a dropped leaf
that could end in a false "exhausted-none".
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from math import factorial, prod

from .graphs import Graph
from .labeling import Labeling, mapped_labeling, structural_gate
from .sets import (
    SUBSET_ENUMERATION_CAP,
    ZERO_MASK,
    GroundSet,
    Record,
    additive_type,
    enumerate_canonical_ground_sets,
    subset_algebra,
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
        # Any iterable of rule names will do; a frozenset keeps the
        # config hashable, since it keys the outcome cache.
        object.__setattr__(self, "disabled_rules", frozenset(self.disabled_rules))
        unknown = self.disabled_rules - set(PRUNE_RULES)
        if unknown:
            raise ValueError(f"unknown rules: {sorted(unknown)}")

    def enabled(self, rule: str) -> bool:
        return rule not in self.disabled_rules


class SearchStats:
    """Nodes visited and prunes per rule; a search updates them in place."""

    __slots__ = ("nodes", "prunes")

    def __init__(self, nodes: int = 0, prunes: dict[str, int] | None = None) -> None:
        self.nodes = nodes
        self.prunes = {} if prunes is None else prunes

    def bump(self, rule: str) -> None:
        self.prunes[rule] = self.prunes.get(rule, 0) + 1

    def to_obj(self) -> dict:
        return {"nodes": self.nodes, "prunes": dict(sorted(self.prunes.items()))}


class SearchOutcome:
    """Status, verified witnesses and counters of one search.

    ``budget_stop`` names the budget that ended the search ("node" or
    "time"), or is None when it ran to its end; a FOUND search under
    find_all can carry one too.

    Under the twin rule the witnesses are canonical, one per twin orbit,
    and ``labelings`` counts the labelings they stand for (see
    ``_orbit_size``); without it, ``labelings`` is ``len(witnesses)``.
    Under find_all with ``budget_stop`` None it is the exact number of
    IASGL labelings of the graph over X.
    """

    __slots__ = ("status", "witnesses", "stats", "budget_stop", "labelings")

    def __init__(
        self,
        status: SearchStatus,
        witnesses: list[Labeling],
        stats: SearchStats,
        budget_stop: str | None = None,
        labelings: int = 0,
    ) -> None:
        self.status = status
        self.witnesses = witnesses
        self.stats = stats
        self.budget_stop = budget_stop
        self.labelings = labelings

    @property
    def found(self) -> bool:
        return self.status is SearchStatus.FOUND


#: Search outcomes ``search_iasgl`` keeps, one per (graph, config, type).
SEARCH_CACHE_SIZE = 128

#: (graph, config, type) -> (status, each witness's label masks in
#: ``g.vertex_ids`` order, nodes, prunes, labelings per witness), least
#: recently used first.
#: Kept by hand, not by ``lru_cache``: an outcome that a budget stopped
#: must not be kept, and the first X's gate and leaf verification run
#: inside its time budget, so the decision takes X, which the key omits.
_outcomes: OrderedDict = OrderedDict()


class _Layout(Record):
    """The graph-only part of the DFS set-up, shared by every search of
    one graph: vertices in DFS order (descending degree, then ascending
    twin-class size, then id), and
    per DFS index the neighbours and the earlier neighbours,
    plus the non-trivial twin classes (members in DFS order) and each
    member's predecessor in its class."""

    __slots__ = _fields = ("order", "neighbors", "earlier", "twin_classes", "twin_prev")

    def __init__(
        self,
        order: tuple[str, ...],
        neighbors: tuple[tuple[int, ...], ...],
        earlier: tuple[tuple[int, ...], ...],
        twin_classes: tuple[tuple[int, ...], ...],
        twin_prev: tuple[int | None, ...],
    ) -> None:
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "neighbors", neighbors)
        object.__setattr__(self, "earlier", earlier)
        object.__setattr__(self, "twin_classes", twin_classes)
        object.__setattr__(self, "twin_prev", twin_prev)


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
        neighbors=neighbors,
        earlier=tuple(tuple(w for w in nbrs if w < i) for i, nbrs in enumerate(neighbors)),
        twin_classes=twin_classes,
        twin_prev=tuple(twin_prev),
    )


class _State:
    """Mutable backtracking state over subset masks.

    Labels, targets and the classification's families are handled as
    subset masks; X's ``IntegerSet``s are read only when an accepted
    leaf is mapped onto X (``mapped_labeling``). An
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

        non_sumsets, non_summands, _ = alg.class_masks()
        self.min_zero_degree = len(non_sumsets)
        self.non_summand_masks = set(non_summands)
        self.p3 = cfg.enabled("P3")
        self.p4 = cfg.enabled("P4")

        layout = _graph_layout(g)
        self.order = layout.order
        self.neighbors = layout.neighbors
        self.earlier = layout.earlier
        # Per DFS index, its last neighbour (-1 without one), and per
        # depth vi, the edges not yet placed once 0..vi hold labels.
        self.last = [max(nbrs, default=-1) for nbrs in self.neighbors]
        self.unplaced = [len(g.edges) - k for k in accumulate(map(len, self.earlier))]

        self.candidates, self.summand_only = self._candidate_lists()

        self.twin_prev = layout.twin_prev if cfg.enabled("twins") else (None,) * len(self.order)

        nv = len(self.order)
        self.assigned: list[int | None] = [None] * nv
        self.owner: list[int | None] = [None] * (1 << n)
        self.realized = [0] * (1 << n)  # edges carrying each target mask
        self.missing = len(self.targets)  # targets with no edge yet
        self.edge_count = len(g.edges)
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
        for degree in map(len, self.neighbors):
            zero_ok = not p1 or degree >= self.min_zero_degree
            lists.append(labels(zero_ok, not p2 or degree == 1))
            summand_only.append(labels(zero_ok, False) if p2 and degree == 1 else None)
        return lists, summand_only

    def coverage_ok(self, vi: int, mask: int) -> bool:
        """P4 after vertex vi took label mask.

        Vertices 0..vi hold labels, so the counts read here are
        functions of the depth vi alone: nv - 1 - vi vertices are
        unassigned, ``unplaced[vi]`` edges are unplaced, and a vertex
        v keeps an unassigned neighbor iff ``last[v] > vi``.

        Invariant: the parent state already passed P4. For the root this
        holds whenever it has >= 2 vertices, since every target t has
        the viable pair ({0}, t). A pair that was viable in the parent
        dies only if it uses mask, if it is anchored at an earlier
        neighbor w of vi that has just lost its last unassigned neighbor
        (``last[w] == vi``), or if it needs two unassigned vertices and
        fewer than two remain. So only the targets of mask, the targets
        of each such neighbor's label (the values of their ``pair_sums``
        rows; a target listed twice is rescanned twice, to the same
        verdict) and, once unassigned < 2, every target are rescanned;
        the verdict is that of a full rescan of all unrealized targets.

        A target is viable while some pair of it can still become an
        edge label: both labels unused with two vertices unassigned, or
        one label placed on a vertex that keeps an unassigned neighbor.
        A pair whose labels both sit on vertices is dead (they are not
        adjacent, or the target would be realized).
        """
        if self.missing > self.unplaced[vi]:
            return False
        unassigned = len(self.order) - 1 - vi
        last = self.last
        if unassigned < 2:
            groups = [self.targets]
        else:
            pair_sums = self.pair_sums
            groups = [pair_sums[mask].values()]
            for w in self.earlier[vi]:
                if last[w] == vi:
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
                        elif last[vb] > vi:
                            break
                    elif vb is None and last[va] > vi:
                        break
                else:
                    return False
        return True

    def run(self) -> str | None:
        """Depth-first over the vertices in DFS order, as one loop over
        levels; returns the budget that stopped it ("node" or "time"),
        or None when the tree was explored or a leaf ended it.

        Level vi is entered with vertex vi unlabeled: the twin rule's
        cursor starts its scan just past the label of vi's predecessor
        in its twin class. What taking a vertex does to the counts P4
        reads (unassigned vertices, unplaced edges, which vertices keep
        an unassigned neighbour) does not depend on the label: they are
        functions of the depth, read off ``last`` and ``unplaced``, so
        entering or leaving a level changes none of them. While
        vertex vi holds a label, ``levels[vi]`` keeps the level's
        candidate list, the index of its next candidate and that label's
        targets and fresh count. Coming back to a level that holds a
        label (its subtree is done, P4 pruned it or it completed a leaf)
        undoes the label and scans on. A budget stop leaves the state as
        it is: the search is over.
        """
        nv = len(self.order)
        if not nv:  # the empty graph: its one assignment is a leaf
            self.leaf()
            return None
        assigned, owner, realized = self.assigned, self.owner, self.realized
        pair_sums = self.pair_sums
        p3, p4 = self.p3, self.p4
        stats = self.stats
        prunes = stats.prunes
        node_budget = self.cfg.node_budget
        levels: list[tuple] = [()] * nv

        vi = 0
        while True:
            earlier = self.earlier[vi]
            if assigned[vi] is None:
                candidates = self.candidates[vi]
                summand_only = self.summand_only[vi]
                if summand_only is not None:
                    placed = assigned[self.neighbors[vi][0]]
                    if placed is not None and placed != ZERO_MASK:
                        candidates = summand_only
                prev = self.twin_prev[vi]
                start = 0 if prev is None else bisect_right(candidates, assigned[prev])
            else:
                candidates, start, new_targets, fresh = levels[vi]
                for t in new_targets:
                    if t is not None:
                        realized[t] -= 1
                self.missing += fresh
                owner[assigned[vi]] = None
                assigned[vi] = None

            for i in range(start, len(candidates)):
                mask = candidates[i]
                if owner[mask] is not None:
                    continue
                stats.nodes += 1
                if stats.nodes > node_budget:
                    return "node"
                if stats.nodes % 1024 == 0 and time.monotonic() > self.deadline:
                    return "time"

                sums = pair_sums[mask]
                new_targets = []
                # Two distinct labels never sum to {0}, the one non-target.
                for w in earlier:
                    t = sums.get(assigned[w])
                    if p3 and (t is None or realized[t] or t in new_targets):
                        prunes["P3"] = prunes.get("P3", 0) + 1
                        break
                    new_targets.append(t)
                else:
                    break  # mask passed P3: vertex vi takes it
            else:
                # Every candidate is spent: leave the level.
                if not vi:
                    return None
                vi -= 1
                continue

            assigned[vi] = mask
            owner[mask] = vi
            fresh = 0  # targets this label realizes for the first time
            for t in new_targets:
                if t is not None:
                    fresh += not realized[t]
                    realized[t] += 1
            self.missing -= fresh
            levels[vi] = (candidates, i + 1, new_targets, fresh)

            if p4 and not self.coverage_ok(vi, mask):
                prunes["P4"] = prunes.get("P4", 0) + 1
            elif vi + 1 < nv:
                vi += 1
            elif self.leaf() and not self.cfg.find_all:
                return None

    def leaf(self) -> bool:
        """Accept the complete assignment when no target is missing and
        |E| = 2^n - 2; an accepted leaf is mapped onto X, verified and
        kept as a witness. Returns whether it was accepted."""
        if self.missing or self.edge_count != len(self.targets):
            return False
        mask_of = dict(zip(self.order, self.assigned))
        labels = tuple(map(mask_of.__getitem__, self.g.vertex_ids))
        self.witnesses.append((mapped_labeling(self.g, self.x, labels), labels))
        return True


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

    The outcome cache and the layout and kernel caches are process-wide
    and unlocked: searches must not run concurrently in threads of one
    process.

    g is searched once per additive type of X under cfg: the outcome is
    kept, as label masks and counters, in an LRU of
    ``SEARCH_CACHE_SIZE`` entries, and a later X of the type gets it
    with each witness mapped onto X's own subsets and verified again by
    ``mapped_labeling``: a mapped witness that fails is a RuntimeError,
    never a fallback, and so is a DFS leaf that fails, which keeps
    nothing, so every later X of the type raises too. An outcome that a
    budget stopped is never kept, so every X spends its own budget on it.
    """
    cfg = cfg or SearchConfig()
    if not x.contains_zero():
        raise ValueError("graceful ground set must contain 0")
    if x.n > SUBSET_ENUMERATION_CAP:
        raise ValueError("ground set too large")
    key = (g, cfg, additive_type(x))
    stored = _outcomes.get(key)
    if stored is None:
        status, found, stats, budget_stop = _decide(g, x, cfg)
        witnesses = [f for f, _ in found]
        # With no witness there is nothing to count, and a gate-rejected
        # g has no layout to read the twin classes from.
        orbit = _orbit_size(g, cfg) if found else 0
        if budget_stop is None:
            masks = tuple(labels for _, labels in found)
            _outcomes[key] = (status, masks, stats.nodes, tuple(stats.prunes.items()), orbit)
            if len(_outcomes) > SEARCH_CACHE_SIZE:
                _outcomes.popitem(last=False)
    else:
        _outcomes.move_to_end(key)
        status, masks, nodes, prunes, orbit = stored
        witnesses = [mapped_labeling(g, x, labels) for labels in masks]
        stats, budget_stop = SearchStats(nodes, dict(prunes)), None
    return SearchOutcome(status, witnesses, stats, budget_stop, len(witnesses) * orbit)


def _orbit_size(g: Graph, cfg: SearchConfig) -> int:
    """The labelings each witness stands for: under the twin rule it is
    the canonical member of an orbit of prod |C|! labelings over g's
    twin classes C, else it stands for itself. The classes belong to g,
    so every witness has the same orbit size."""
    if not cfg.enabled("twins"):
        return 1
    return prod(factorial(len(c)) for c in _graph_layout(g).twin_classes)


def _decide(
    g: Graph, x: GroundSet, cfg: SearchConfig
) -> tuple[SearchStatus, list[tuple[Labeling, tuple[int, ...]]], SearchStats, str | None]:
    """Run the gate and the DFS: the status, each witness with its label
    masks in ``g.vertex_ids`` order, the counters and the budget stop."""
    deadline = time.monotonic() + cfg.time_budget_ms / 1000.0
    stats = SearchStats()
    if cfg.enabled("gate") and not structural_gate(g, x):
        stats.bump("gate")
        return SearchStatus.GATE_REJECTED, [], stats, None

    if len(g.vertex_ids) > (1 << x.n) - 1:
        # More vertices than available labels: no injective assignment.
        return SearchStatus.EXHAUSTED_NONE, [], stats, None

    out_of_time = SearchStatus.BUDGET_EXCEEDED, [], stats, "time"
    if time.monotonic() > deadline:
        return out_of_time
    state = _State(g, x, cfg, stats, deadline)
    if time.monotonic() > deadline:
        return out_of_time
    budget_stop = state.run()

    found = sorted(state.witnesses, key=lambda w: w[0].assignment)
    if found:
        status = SearchStatus.FOUND
    elif budget_stop is None:
        status = SearchStatus.EXHAUSTED_NONE
    else:
        status = SearchStatus.BUDGET_EXCEEDED
    return status, found, stats, budget_stop


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
