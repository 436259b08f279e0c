"""Desk-scale executable re-verification of the structural results.

Every numbered claim behind the library is re-checked on bounded
families: stars admit exactly at size 2^n - 2, trees admit only as that
star, paths and cycles never admit, complete graphs never admit (parity
plus an exhaustive K_4 sweep plus the power-of-two counting equation),
and every witness respects the edge-count and pendant lower bounds.

Whatever the edge count alone decides (|E| = 2^n - 2, rule R1) is
settled by arithmetic, without building the graph; the star converse
adds one ``structural_gate`` spot-check per n in range.

Nonexistence claims are universally quantified over ground sets; the
harness bounds the quantifier (canonical ground sets, bounded max
element) and records the bound, so results are confirmations within a
bound, never proofs. Every search-backed check is decided by one
precedence rule over its searches, each with whether its graph must
admit: Refuted if any search answers definitely against that (a
witness where none may exist, or exhausted or gate-rejected where one
must), otherwise Unknown-budget if any search hit its budget, otherwise
Confirmed. So a budget stop never hides a counterexample, and a check
is never Confirmed from a budget-exceeded search.

The canonical ground sets of ``n_range`` are walked once, in the star
check: each X gets its neither family for the |neither| >= n - 1 bound,
is searched with K(1, 2^n - 2) and realised, one after another. The
neither family is read off the kernel's classification masks for X's
additive type and mapped onto X's own subsets (``_neither``): the
family ``classify_ground_set`` reports, without building the rest of
the classification. Every witness (the star's, the tree star's, the
realisation) is checked against the pendant and edge-count bounds as
soon as it is made; a ``WitnessTally`` keeps only counts and the first
violation, which the pendant and edge-count checks then report.

The checks call ``search_iasgl``, ``sweep_ground_sets`` and
``build_realisation`` once per X, as any caller does. Those decide each
additive type once and map the result onto every other X of the type,
verifying each mapped witness and realisation again, so every X still
gets its own evidence and the report is the one uncached calls would
give.
"""

from __future__ import annotations

import math
from typing import Iterable

from .graphs import Graph, enumerate_free_trees, family_edge_count, generate, pendant_vertices
from .labeling import Labeling, structural_gate
from .realisation import build_realisation
from .search import SearchConfig, SearchStatus, search_iasgl, sweep_ground_sets
from .sets import (
    SUBSET_ENUMERATION_CAP,
    GroundSet,
    Record,
    additive_type,
    check_ground_set_family,
    enumerate_canonical_ground_sets,
    subset_algebra,
    subsets_by_mask,
)

CONFIRMED = "Confirmed"
REFUTED = "Refuted"
UNKNOWN = "Unknown-budget"

#: Fixed bounds, recorded in every report's bounds.
PATH_CYCLE_RANGE = (3, 8)
COMPLETE_RANGE = (2, 8)
#: A tree on m vertices has m - 1 edges, so rule R1 (|E| = 2^n - 2) leaves
#: only m = 2^n - 1 to decide; these are the m <= FREE_TREE_CAP.
TREE_ORDERS = (3, 7)

#: Largest |X| swept outside n_range: P_7, C_6, K_4 and the trees on
#: 7 vertices have 2^3 - 2 edges.
FIXED_SWEEP_N = 3

#: Budget of every harness search.
NODE_BUDGET = 2_000_000
TIME_BUDGET_MS = 120_000

#: Largest exponent n the counting equation 4k^2 +/- k + 1 = 2^n is solved to.
DIOPHANTINE_MAX = 30


def _search_config(gate: bool) -> SearchConfig:
    rules = frozenset() if gate else frozenset({"gate"})
    return SearchConfig(node_budget=NODE_BUDGET, time_budget_ms=TIME_BUDGET_MS, disabled_rules=rules)


def _verdict(searches: Iterable[tuple[SearchStatus, bool]]) -> tuple[str, int, int]:
    """Decide one claim from its (status, should_admit) searches.

    Returns (status, found, budget): Refuted if any search answers
    definitely against its expectation (every status but
    budget-exceeded is definite), else Unknown-budget if any hit its
    budget, else Confirmed. ``found`` and ``budget`` count the searches
    that found a witness and that hit the budget. Only statuses are
    kept, so a check's witnesses are dropped once the tally has them.
    """
    searches = list(searches)
    found = sum(s is SearchStatus.FOUND for s, _ in searches)
    budget = sum(s is SearchStatus.BUDGET_EXCEEDED for s, _ in searches)
    refuted = any(
        (s is SearchStatus.FOUND) != should_admit and s is not SearchStatus.BUDGET_EXCEEDED
        for s, should_admit in searches
    )
    status = REFUTED if refuted else UNKNOWN if budget else CONFIRMED
    return status, found, budget


class CheckResult(Record):
    __slots__ = _fields = ("check_id", "anchor", "status", "evidence")

    def __init__(self, check_id: str, anchor: str, status: str, evidence: str) -> None:
        object.__setattr__(self, "check_id", check_id)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "evidence", evidence)

    def to_obj(self) -> dict:
        return {
            "id": self.check_id,
            "anchor": self.anchor,
            "status": self.status,
            "evidence": self.evidence,
        }


class HarnessConfig(Record):
    __slots__ = _fields = ("n_range", "max_element")

    def __init__(self, n_range: tuple[int, int] = (2, 4), max_element: int = 8) -> None:
        n_lo, n_hi = n_range
        if not 2 <= n_lo <= n_hi <= SUBSET_ENUMERATION_CAP:
            raise ValueError(f"need 2 <= n-min <= n-max <= {SUBSET_ENUMERATION_CAP}")
        for n in range(n_lo, n_hi + 1):
            check_ground_set_family(n, max_element)
        try:  # n = 2, also swept outside n_range, passes whenever n = 3 does.
            check_ground_set_family(FIXED_SWEEP_N, max_element)
        except ValueError as exc:
            sweeps = "P_7, C_6, K_4, the 7-vertex trees"
            raise ValueError(f"{exc}, for the fixed |X| = {FIXED_SWEEP_N} sweeps ({sweeps})") from None
        object.__setattr__(self, "n_range", n_range)
        object.__setattr__(self, "max_element", max_element)

    def bounds_obj(self) -> dict:
        return {
            "n_range": list(self.n_range),
            "max_element": self.max_element,
            "tree_sizes": list(TREE_ORDERS),
            "path_cycle_range": list(PATH_CYCLE_RANGE),
            "complete_range": list(COMPLETE_RANGE),
            "diophantine_max": DIOPHANTINE_MAX,
        }


class TheoremReport:
    __slots__ = ("checks", "bounds", "totals")

    def __init__(self, checks: list[CheckResult], bounds: dict) -> None:
        ids = [c.check_id for c in checks]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate check id in report")
        self.checks = checks
        self.bounds = bounds
        self.totals = {
            status: sum(1 for c in checks if c.status == status)
            for status in (CONFIRMED, REFUTED, UNKNOWN)
        }

    @property
    def refuted(self) -> int:
        return self.totals.get(REFUTED, 0)

    def to_obj(self) -> dict:
        return {
            "checks": [c.to_obj() for c in self.checks],
            "bounds": self.bounds,
            "totals": self.totals,
        }


def _exponent_of_edges(edges: int) -> int | None:
    """The n with ``edges`` = 2^n - 2 (rule R1), or None if there is none."""
    value = edges + 2
    if value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


def _star_order(n: int) -> int:
    return (1 << n) - 2


def _neither(x: GroundSet) -> frozenset[tuple[int, ...]]:
    """The neither family of X's classification, as the element tuples
    of ``classify_ground_set(x).neither``: the kernel's neither masks
    mapped onto X's own subsets. Read once per X, and
    handed to every bound check of X's witnesses."""
    masks = subset_algebra(additive_type(x)).class_masks()[2]
    subsets = subsets_by_mask(x)
    return frozenset([subsets[m].elements for m in masks])


def _pendant_violation(
    x: GroundSet, neither: frozenset[tuple[int, ...]], graph: Graph, labeling: Labeling
) -> str | None:
    """Why a witness breaks a pendant bound: a {0}-vertex hosting at
    least |neither| pendants, with every neither-labeled and
    max-element-labeled vertex pendant on it. ``neither`` holds the
    element tuples of X's neither family."""
    top = x.max_element
    v0 = None  # the first {0}-labeled vertex in id order
    placed = []  # the vertices that must be pendant on v0
    for vid, lab in labeling.assignment:
        elements = lab.elements
        if elements == (0,) and v0 is None:
            v0 = vid
        elif elements in neither or top in elements:
            placed.append(vid)
    if v0 is None:
        return f"witness over {x} has no {{0}}-labeled vertex"
    pendants = pendant_vertices(graph)
    # The pendants on v0: exactly the vertices whose one neighbour is v0.
    hosted = set(pendants).intersection(graph.neighbors(v0))
    if (
        len(pendants) >= len(neither)
        and len(hosted) >= len(neither)
        and hosted.issuperset(placed)
    ):
        return None
    return f"witness over {x} violates a pendant bound"


class WitnessTally:
    """Bounds evidence gathered while the checks run.

    Only counts and the first violation of each bound are kept: a
    witness is checked when it is made and then dropped.
    """

    def __init__(self) -> None:
        self.ground_sets = 0
        self.witnesses = 0
        self.neither_violation: str | None = None
        self.pendant_violation: str | None = None
        self.edge_violation: str | None = None

    def add_ground_set(self, x: GroundSet, neither: frozenset[tuple[int, ...]]) -> None:
        """Check |neither| >= n - 1 on one canonical ground set, given
        the neither family of its classification (``_neither(x)``)."""
        self.ground_sets += 1
        if len(neither) < x.n - 1 and self.neither_violation is None:
            self.neither_violation = f"|neither| = {len(neither)} < {x.n - 1} at X = {x}"

    def add_witness(
        self,
        x: GroundSet,
        neither: frozenset[tuple[int, ...]],
        graph: Graph,
        labeling: Labeling,
    ) -> None:
        """Check one witness over X, whose classification has the given
        neither family (``_neither(x)``), against the pendant and
        edge-count bounds.

        |E| = 2^n - 2 and n = log2(|E| + 2) are the same condition, so
        one comparison decides both.
        """
        self.witnesses += 1
        edges = graph.edge_count()
        if edges != _star_order(x.n) and self.edge_violation is None:
            self.edge_violation = (
                f"witness over {x} has {edges} edges, expected {_star_order(x.n)}"
            )
        if self.pendant_violation is None:
            self.pendant_violation = _pendant_violation(x, neither, graph, labeling)


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def check_star_theorem(config: HarnessConfig, tally: WitnessTally) -> list[CheckResult]:
    """Stars admit exactly at size 2^n - 2.

    Forward: K(1, 2^n - 2) is Found for every canonical ground set of
    size n. Converse: every other star size up to 2^n_max - 2 is
    rejected by the edge-count rule R1 for every ground set cardinality,
    which is arithmetic on m + 2; one gate spot-check per n in range
    (K(1, 2^n - 3) over {0..n-1}, one edge short) confirms that
    ``structural_gate`` applies R1. No other star is built.

    The forward loop is the harness's one pass over the canonical
    ground sets: each X's neither family is also read there (once, for
    the tally's three checks) and X is realised, and the star witness
    and the realisation go to the tally.
    """
    cfg = _search_config(gate=True)
    results = []
    anchor = "star K(1,m) admits a graceful set-indexer iff m = 2^n - 2"
    n_lo, n_hi = config.n_range

    for n in range(n_lo, n_hi + 1):
        star = generate("star", _star_order(n))
        statuses = []
        family = enumerate_canonical_ground_sets(n, config.max_element)
        for x in family:
            neither = _neither(x)
            tally.add_ground_set(x, neither)
            outcome = search_iasgl(star, x, cfg)
            if outcome.found:
                tally.add_witness(x, neither, star, outcome.witnesses[0])
            statuses.append((outcome.status, True))
            built = build_realisation(x)
            tally.add_witness(x, neither, built.graph, built.labeling)
        status, found, budget = _verdict(statuses)
        evidence = {
            CONFIRMED: f"K(1,{_star_order(n)}) found for all {len(family)} canonical ground sets",
            REFUTED: f"only {found}/{len(family)} ground sets admit K(1,{_star_order(n)})",
            UNKNOWN: f"{budget}/{len(family)} ground sets hit the search budget",
        }[status]
        results.append(CheckResult(f"star-theorem/forward-n={n}", anchor, status, evidence))

    sizes = range(1, _star_order(n_hi) + 1)
    rejected = [m for m in sizes if _exponent_of_edges(family_edge_count("star", m)) is None]
    # Spot-check that the gate applies R1: K(1, 2^n - 3) is one edge short.
    for n in range(n_lo, n_hi + 1):
        m = _star_order(n) - 1
        gate = structural_gate(generate("star", m), GroundSet.of(*range(n)))
        if gate.passed or "R1" not in {v.rule for v in gate.violations}:
            evidence = f"edge-count rule failed to reject K(1,{m}) at n={n}"
            return results + [CheckResult("star-theorem/converse", anchor, REFUTED, evidence)]
    results.append(
        CheckResult(
            "star-theorem/converse",
            anchor,
            CONFIRMED,
            f"edge-count rule rejects K(1,m) for m in {rejected} at every n in range",
        )
    )
    return results


def check_tree_theorem(config: HarnessConfig, tally: WitnessTally) -> list[CheckResult]:
    """Among trees, only the star K(1, 2^n - 2) admits.

    For each m in ``TREE_ORDERS``, every free tree on m = 2^n - 1
    vertices is decided for every canonical ground set of size n: the
    star must be Found, everything else must be exhausted to
    nonexistence (the gate-free run certifies full exploration).
    """
    anchor = "a tree admits a graceful set-indexer iff it is the star K(1,2^n-2)"
    results = []
    cfg = _search_config(gate=True)
    nogate = _search_config(gate=False)
    for m in TREE_ORDERS:
        trees = enumerate_free_trees(m)
        # m = 2^n - 1 has n bits.
        family = enumerate_canonical_ground_sets(m.bit_length(), config.max_element)
        stars = 0
        statuses = []
        for tree in trees:
            is_star = max(tree.degree(v) for v in tree.vertex_ids) == m - 1
            stars += is_star
            for x in family:
                outcome = search_iasgl(tree, x, cfg if is_star else nogate)
                if outcome.found and is_star:
                    neither = _neither(x)
                    tally.add_witness(x, neither, tree, outcome.witnesses[0])
                statuses.append((outcome.status, is_star))

        status, found, budget = _verdict(statuses)
        if stars != 1:
            status = REFUTED
        evidence = {
            CONFIRMED: f"{len(trees)} trees on {m} vertices: the star admits for all "
            f"{len(family)} canonical ground sets, the other {len(trees) - 1} "
            f"trees are exhausted to nonexistence everywhere",
            REFUTED: f"tree family on {m} vertices violated the star characterization "
            f"(stars={stars}, found={found}/{len(statuses)} searches)",
            UNKNOWN: f"{budget} searches hit the budget",
        }[status]
        results.append(CheckResult(f"tree-theorem/m={m}", anchor, status, evidence))
    return results


def check_path_cycle(config: HarnessConfig) -> list[CheckResult]:
    """Paths on four or more vertices and all cycles never admit.

    The 3-vertex path is the star K(1,2) and does admit; the check pins
    that exception explicitly instead of misreporting it. For the unique
    cardinality matching the edge count the whole canonical family is
    swept; other cardinalities are rejected by arithmetic, without
    building the graph. The counting contradiction (m = 2^n - 2 forces
    more vertex labels than the pendant-free bound 2^(n-1) - 1 allows)
    holds by arithmetic for every cycle whose edge count matches.
    """
    cfg = _search_config(gate=True)

    def decide(kind: str, m: int, anchor: str) -> CheckResult:
        check_id = f"{kind}-nonexistence/m={m}"
        edges = family_edge_count(kind, m)
        n = _exponent_of_edges(edges)
        if n is None:
            return CheckResult(
                check_id,
                anchor,
                CONFIRMED,
                f"|E| = {edges} never equals 2^n - 2, rejected by arithmetic",
            )
        # P_3 is the star K(1,2): the only path that admits.
        p3 = kind == "path" and m == 3
        outcomes = sweep_ground_sets(generate(kind, m), n, config.max_element, cfg)
        status, found, budget = _verdict((o.status, p3) for o in outcomes.values())
        confirmed = f"all {len(outcomes)} canonical ground sets at n={n} report nonexistence"
        refuted = f"{found} ground sets admitted {kind} {m}"
        if p3:
            confirmed = (
                "P_3 is the star K(1,2) and admits (the one path exception); "
                "nonexistence starts at 4 vertices"
            )
            refuted = "the star path P_3 = K(1,2) failed to admit"
        if kind == "cycle":
            # Pendant-free graphs cannot label with the maximal element,
            # leaving 2^(n-1) - 1 usable labels for m vertices. A cycle
            # has |E| = m, so m = 2^n - 2 > 2^(n-1) - 1 for every n >= 2.
            confirmed += (
                f"; counting contradiction confirmed: m = 2^{n} - 2 = {m} > "
                f"2^{n - 1} - 1 = {(1 << (n - 1)) - 1}"
            )
        evidence = {
            CONFIRMED: confirmed,
            REFUTED: refuted,
            UNKNOWN: f"{budget} sweep items hit the budget",
        }[status]
        return CheckResult(check_id, anchor, status, evidence)

    m_lo, m_hi = PATH_CYCLE_RANGE
    path_anchor = "no path on four or more vertices admits; P_3 = K(1,2) is the exception"
    return [decide("path", m, path_anchor) for m in range(m_lo, m_hi + 1)] + [
        decide("cycle", m, "the cycle C_m never admits") for m in range(m_lo, m_hi + 1)
    ]


def diophantine_solutions(n_max: int) -> list[tuple[int, int, str]]:
    """Odd non-negative k with 4k^2 +/- k + 1 = 2^n, found via the
    discriminant: k = (+-1 +- sqrt(2^(n+4) - 15)) / 8 must be integral.

    Returns (n, k, branch) triples; every candidate is re-verified
    against the original equation before being reported.
    """
    solutions = []
    for n in range(0, n_max + 1):
        d = (1 << (n + 4)) - 15
        if d < 0:
            continue
        s = math.isqrt(d)
        if s * s != d:
            continue
        for num in (1 + s, 1 - s, -1 + s, -1 - s):
            if num < 0 or num % 8:
                continue
            k = num // 8
            if k % 2 == 0:
                continue
            if 4 * k * k + k + 1 == 1 << n:
                solutions.append((n, k, "plus"))
            if 4 * k * k - k + 1 == 1 << n:
                solutions.append((n, k, "minus"))
    return sorted(set(solutions))


def check_complete_graphs(config: HarnessConfig) -> list[CheckResult]:
    """Complete graphs never admit a graceful set-indexer.

    K_2 and K_3 fall to parity, every other size in range except K_4
    fails the edge-count match, and K_4 (the one survivor of the
    counting equation, via k = 1) is exhausted over the whole canonical
    n = 3 family with the gate disabled so the sweep itself is the
    evidence. The counting equation 4k^2 +/- k + 1 = 2^n is then shown
    to have no further odd solutions up to the exponent bound.
    """
    anchor = "no complete graph admits a graceful set-indexer"
    results = []
    gate_cleared = []
    nogate = _search_config(gate=False)
    m_lo, m_hi = COMPLETE_RANGE
    for m in range(m_lo, m_hi + 1):
        n = _exponent_of_edges(family_edge_count("complete", m))
        if n is None:
            gate_cleared.append(m)
            continue
        check_id = f"complete/exhaustive-K{m}"
        outcomes = sweep_ground_sets(generate("complete", m), n, config.max_element, nogate)
        status, found, budget = _verdict((o.status, False) for o in outcomes.values())
        evidence = {
            CONFIRMED: f"K_{m} exhaustively refuted over all {len(outcomes)} canonical "
            f"ground sets of size {n} (max element {config.max_element})",
            REFUTED: f"{found} ground sets admitted K_{m}",
            UNKNOWN: f"{budget} sweep items hit the budget",
        }[status]
        results.append(CheckResult(check_id, anchor, status, evidence))
    results.insert(
        0,
        CheckResult(
            "complete/edge-count",
            anchor,
            CONFIRMED,
            f"edge counts m(m-1)/2 for m in {gate_cleared} never equal 2^n - 2 "
            "(K_2 and K_3 have odd size)",
        ),
    )

    sols = diophantine_solutions(DIOPHANTINE_MAX)
    covered = [s for s in sols if m_lo <= 4 * s[1] <= m_hi]
    stray = [s for s in sols if s not in covered]
    if stray:
        results.append(
            CheckResult(
                "complete/diophantine",
                anchor,
                REFUTED,
                f"unexpected odd solutions of 4k^2 +/- k + 1 = 2^n: {stray}",
            )
        )
    else:
        detail = (
            f"only odd solution up to n = {DIOPHANTINE_MAX} is {sols}"
            " and the matching K_4 is exhaustively refuted above"
            if sols
            else f"no odd solution up to n = {DIOPHANTINE_MAX}"
        )
        results.append(CheckResult("complete/diophantine", anchor, CONFIRMED, detail))
    return results


def check_pendant_bounds(tally: WitnessTally) -> list[CheckResult]:
    """Pendant lower bounds on every classification and every witness.

    |neither| >= n - 1 for every canonical ground set, and every
    witness has a {0}-vertex hosting at least |neither| pendant
    neighbors, with the neither-labeled and max-element-labeled
    vertices pendant on it. Reads the tally the star and tree checks
    filled.
    """
    anchor = "at least |X| - 1 pendants hang on the {0}-vertex"
    if tally.neither_violation is not None:
        return [
            CheckResult(
                "pendant-bounds/classification", anchor, REFUTED, tally.neither_violation
            )
        ]
    results = [
        CheckResult(
            "pendant-bounds/classification",
            anchor,
            CONFIRMED,
            f"|neither| >= n - 1 for all {tally.ground_sets} canonical ground sets in range",
        )
    ]
    if tally.pendant_violation is not None:
        results.append(
            CheckResult("pendant-bounds/witnesses", anchor, REFUTED, tally.pendant_violation)
        )
    else:
        results.append(
            CheckResult(
                "pendant-bounds/witnesses",
                anchor,
                CONFIRMED,
                f"{tally.witnesses} witnesses respect pendant count, hosting, and "
                "placement bounds",
            )
        )
    return results


def check_edge_count(tally: WitnessTally) -> list[CheckResult]:
    """|E| = 2^n - 2 and n = log2(|E| + 2), exactly, on every witness
    in the tally."""
    anchor = "every gracefully labeled graph has exactly 2^n - 2 edges"
    if tally.edge_violation is not None:
        return [CheckResult("edge-count", anchor, REFUTED, tally.edge_violation)]
    return [
        CheckResult(
            "edge-count",
            anchor,
            CONFIRMED,
            f"{tally.witnesses} witnesses match both |E| = 2^n - 2 and n = log2(|E| + 2)",
        )
    ]


def run_all(config: HarnessConfig | None = None) -> TheoremReport:
    """Run every check at desk-scale bounds and aggregate a report.

    Every witness the star and tree checks find, and a realisation of
    every ground set in range, is checked against the pendant and
    edge-count bounds, so every labeling the harness accepts anywhere
    is also size-checked. Identical configs give identical reports.
    """
    config = config or HarnessConfig()
    tally = WitnessTally()
    checks = check_star_theorem(config, tally)
    checks += check_tree_theorem(config, tally)
    checks += check_path_cycle(config)
    checks += check_complete_graphs(config)
    checks += check_pendant_bounds(tally)
    checks += check_edge_count(tally)
    return TheoremReport(checks=checks, bounds=config.bounds_obj())
