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

P1 and the degree test of P2 depend only on the vertex, so each vertex
draws its labels from a precomputed candidate list that already omits
them: ``stats.nodes`` and ``stats.prunes`` do not count those labels.
Only the dynamic part of P2 (the pendant's neighbor already holds a
label other than {0}) is counted as a P2 prune.

All rules are sound (they never discard a completable branch, up to
twin symmetry), so a fully explored tree with no accepted leaf is a
proof of nonexistence. Witnesses are re-verified by the independent
checker before they are reported; search state is never trusted.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import permutations

from .graphs import Graph
from .labeling import Labeling, structural_gate, verify_iasgl
from .sets import (
    SUBSET_ENUMERATION_CAP,
    GroundSet,
    IntegerSet,
    SummandMode,
    classify_ground_set,
    enumerate_canonical_ground_sets,
    subset_algebra,
    subset_to_mask,
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
    mode: SummandMode = SummandMode.DISTINCT_LABELS
    node_budget: int = 10_000_000
    time_budget_ms: int = 60_000
    find_all: bool = False
    seed: int = 0
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


class _State:
    """Mutable backtracking state over subset masks.

    Labels and targets are handled as subset masks; edge sums as value
    masks translated back through a value->mask table (a miss means the
    sum escaped the ground set).
    """

    def __init__(self, g: Graph, x: GroundSet, cfg: SearchConfig, stats: SearchStats) -> None:
        self.g = g
        self.x = x
        self.cfg = cfg
        self.stats = stats

        n = x.n
        alg = subset_algebra(x)
        self.value = alg.value
        self.value_to_mask = alg.value_to_mask
        self.subset_elems = alg.elements
        # Label-mask pairs (a < b) per target mask; every target has one.
        self.pairs_by_target = alg.pairs
        self.zero_mask = 1  # 0 is the least element of a graceful ground set
        self.targets = frozenset(m for m in range(1, 1 << n) if m != self.zero_mask)

        cls = classify_ground_set(x, cfg.mode)
        self.min_zero_degree = len(cls.non_sumsets)
        self.non_summand_masks = {subset_to_mask(x, s) for s in cls.non_summands}

        self.order = sorted(g.vertex_ids, key=lambda v: (-g.degree(v), v))
        self.index = {v: i for i, v in enumerate(self.order)}
        self.degree = [g.degree(v) for v in self.order]
        self.neighbors = [
            tuple(self.index[w] for w in g.neighbors(v)) for v in self.order
        ]
        self.earlier = [
            tuple(w for w in self.neighbors[i] if w < i) for i in range(len(self.order))
        ]

        candidates = list(range(1, 1 << n))
        if cfg.seed:
            random.Random(cfg.seed).shuffle(candidates)
        self.candidates = self._candidate_lists(candidates)

        self.twin_classes = self._twin_classes() if cfg.enabled("twins") else []
        self.twin_prev: list[int | None] = [None] * len(self.order)
        for members in self.twin_classes:
            for prev, v in zip(members, members[1:]):
                self.twin_prev[v] = prev

        nv = len(self.order)
        self.assigned: list[int | None] = [None] * nv
        self.owner: dict[int, int] = {}
        self.realized: dict[int, int] = {}
        self.assigned_edges = 0
        self.unassigned = nv
        self.free_neighbors = list(self.degree)  # unassigned neighbours per vertex
        self.witnesses: list[Labeling] = []
        self.deadline = time.monotonic() + cfg.time_budget_ms / 1000.0

    def _candidate_lists(self, candidates: list[int]) -> list[list[int]]:
        """Per-vertex label lists with the static parts of P1 and P2 applied.

        A list depends only on whether {0} and the non-summands are
        allowed, so vertices share at most three distinct lists.
        """
        p1, p2 = self.cfg.enabled("P1"), self.cfg.enabled("P2")
        shared: dict[tuple[bool, bool], list[int]] = {}
        lists = []
        for degree in self.degree:
            zero_ok = not p1 or degree >= self.min_zero_degree
            non_summand_ok = not p2 or degree == 1
            key = (zero_ok, non_summand_ok)
            if key not in shared:
                shared[key] = [
                    m
                    for m in candidates
                    if (zero_ok or m != self.zero_mask)
                    and (non_summand_ok or m not in self.non_summand_masks)
                ]
            lists.append(shared[key])
        return lists

    def _twin_classes(self) -> list[list[int]]:
        """Non-trivial twin classes, members in DFS order.

        False twins share N(v), true twins share N[v]. A vertex is never
        in non-trivial classes of both kinds: if u, v are false twins and
        u, w true twins, then w is adjacent to v, so v lies in N[w] = N[u].
        """
        false_twins: dict[frozenset[int], list[int]] = {}
        true_twins: dict[frozenset[int], list[int]] = {}
        for v, nbrs in enumerate(self.neighbors):
            key = frozenset(nbrs)
            false_twins.setdefault(key, []).append(v)
            true_twins.setdefault(key | {v}, []).append(v)
        return [
            members
            for classes in (false_twins, true_twins)
            for members in classes.values()
            if len(members) > 1
        ]

    def tick(self) -> None:
        self.stats.nodes += 1
        if self.stats.nodes > self.cfg.node_budget:
            raise _Budget
        if self.stats.nodes % 1024 == 0 and time.monotonic() > self.deadline:
            raise _Budget

    def coverage_ok(self) -> bool:
        remaining_edges = len(self.g.edges) - self.assigned_edges
        unrealized = [t for t in self.targets if not self.realized.get(t)]
        if len(unrealized) > remaining_edges:
            return False
        for t in unrealized:
            viable = False
            for a, b in self.pairs_by_target[t]:
                va = self.owner.get(a)
                vb = self.owner.get(b)
                if va is None and vb is None:
                    if self.unassigned >= 2:
                        viable = True
                        break
                elif va is None or vb is None:
                    anchored = vb if va is None else va
                    if self.free_neighbors[anchored]:
                        viable = True
                        break
                # both labels placed on non-adjacent vertices: pair is dead
            if not viable:
                return False
        return True

    def label_allowed(self, vi: int, mask: int) -> bool:
        """Dynamic part of P2; the candidate lists hold the static part."""
        if mask in self.non_summand_masks and self.cfg.enabled("P2"):
            neighbor = self.neighbors[vi][0]  # vi is pendant by its candidate list
            placed = self.assigned[neighbor]
            if placed is not None and placed != self.zero_mask:
                self.stats.bump("P2")
                return False
        return True

    def record(self) -> bool:
        """Verify the full assignment independently; keep it if it passes."""
        mapping = {
            self.order[i]: IntegerSet.from_iterable(self.subset_elems[m])
            for i, m in enumerate(self.assigned)
        }
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

        prev = self.twin_prev[vi]
        floor = 0 if prev is None else self.assigned[prev]
        for mask in self.candidates[vi]:
            if mask <= floor or mask in self.owner:
                continue
            self.tick()
            if not self.label_allowed(vi, mask):
                continue

            new_targets: list[int | None] = []
            ok = True
            elems = self.subset_elems[mask]
            for w in self.earlier[vi]:
                s = _sum_value_mask(elems, self.value[self.assigned[w]])
                t = self.value_to_mask.get(s)
                if self.cfg.enabled("P3"):
                    bad = (
                        t is None
                        or t == self.zero_mask
                        or self.realized.get(t, 0) > 0
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
                    self.realized[t] = self.realized.get(t, 0) + 1

            proceed = True
            if self.cfg.enabled("P4") and not self.coverage_ok():
                self.stats.bump("P4")
                proceed = False

            stop = proceed and self.search(vi + 1)

            for t in new_targets:
                if t is not None and t != self.zero_mask:
                    self.realized[t] -= 1
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
    """
    cfg = cfg or SearchConfig()
    if not x.contains_zero():
        raise ValueError("graceful ground set must contain 0")
    if x.n > SUBSET_ENUMERATION_CAP:
        raise ValueError("ground set too large")

    stats = SearchStats()
    if cfg.enabled("gate"):
        gate = structural_gate(g, x, cfg.mode)
        if not gate:
            stats.bump("gate")
            return SearchOutcome(SearchStatus.GATE_REJECTED, [], stats)

    if len(g.vertex_ids) > (1 << x.n) - 1:
        # More vertices than available labels: no injective assignment.
        return SearchOutcome(SearchStatus.EXHAUSTED_NONE, [], stats)

    state = _State(g, x, cfg, stats)
    try:
        state.search(0)
        exhausted = True
    except _Budget:
        exhausted = False

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
