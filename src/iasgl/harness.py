"""Desk-scale executable re-verification of the structural results.

Every numbered claim behind the library is re-checked: stars admit
exactly at size 2^n - 2, trees admit only as that star, paths on four
or more vertices and all cycles never admit, complete graphs never
admit, and every ground set has at least n - 1 neither subsets, the
pendants its {0}-vertex must host. Rule R1 (|E| = 2^n - 2) alone
rejects every graph whose edge count is not 2^n - 2, so only graphs
with that edge count are built.

Triangle theorem. If f is a graceful set-indexer of G over X and some
edge has no end labelled {0}, then G has a triangle through the
{0}-vertex z. Proof: among the edges with no end labelled {0} take uv
with max f+(uv) least, and let A = f(u), B = f(v). Both differ from
{0}, so max A > 0, max B > 0 and max f+(uv) = max A + max B. A is a
target, so exactly one edge e carries it, and max f+(e) = max A <
max f+(uv). By the choice of uv, e has an end labelled {0}; its other
end is labelled A, so it is u, and u is adjacent to z. Likewise v, so
z, u, v is a triangle. The proof bounds neither X nor n.

Corollary: a triangle-free graph admits iff it is K(1, 2^n - 2), since
every edge then meets z and R1 fixes the edge count. A path or cycle
on m >= 4 vertices, and every tree but a star, is a triangle-free
non-star, and C_3 has an odd number of edges; so the path and cycle
rows hold for every order and every n, and their sweeps (the paths and
cycles with 2^n - 2 edges for n <= ``FIXED_SWEEP_N``) are executable
spot checks of that. The complete rows solve the edge-count equation
for every n (``complete_graph_solutions``) and sweep its one non-trivial
solution, K_4.

Every witness a search returns has passed ``verify_iasgl`` (a mapped
witness that fails is a RuntimeError), and two bounds hold for every
verified witness, so the harness does not check them again:

Edge count. A verified witness has |E| = 2^n - 2: its edge labels are
distinct, and the IASGL rung passes only when there are 2^n - 2 of
them (R1).

Pendant placement. Let X = {0 < x_1 < ...}. The edge carrying {x_1}
has two distinct singleton labels summing to x_1, so they are {0} and
{x_1}: some vertex z is labelled {0}, and only z, since labels are
distinct. A vertex labelled A whose neighbour is labelled B != {0}
has A + B inside X, so A is a summand and max A < max X. So a vertex
whose label is a non-summand or holds max X neighbours only z, and is
a pendant on z, since a ``Graph`` has no isolated vertex. A neither
set T is a non-summand and a non-sumset target: every pair summing to
T uses {0}, so the edge carrying T joins z to a vertex labelled T, and
that vertex is such a pendant. Labels are distinct, so z hosts at
least |neither| pendants, and the ``pendant-bounds/classification``
row checks |neither| >= n - 1 on every canonical ground set in range.

The other rows are universally quantified over ground sets; the
harness bounds the quantifier (canonical ground sets, bounded max
element) and records the bound, so those rows are confirmations within
a bound, not proofs. Every search-backed check is decided by one
precedence rule over its searches, each with whether its graph must
admit: Refuted if any search answers definitely against that (a
witness where none may exist, or exhausted or gate-rejected where one
must), otherwise Unknown-budget if any search hit its budget, otherwise
Confirmed. So a budget stop never hides a counterexample, and a check
is never Confirmed from a budget-exceeded search.

The canonical ground sets of ``n_range`` are walked once, in the star
check: each X's neither family is counted off the kernel's
classification masks for X's additive type, and X is searched with
K(1, 2^n - 2). Each check is a function of the config alone.

The checks call ``search_iasgl`` and ``sweep_ground_sets`` once per X,
as any caller does. Those decide each additive type once and map the
result onto every other X of the type, verifying each mapped witness
again, so every X still gets its own evidence and the report is the
one uncached calls would give.
"""

from __future__ import annotations

from collections.abc import Iterable

from .graphs import enumerate_free_trees, generate
from .labeling import structural_gate
from .search import SearchConfig, SearchStatus, search_iasgl, sweep_ground_sets
from .sets import (
    SUBSET_ENUMERATION_CAP,
    GroundSet,
    Record,
    additive_type,
    check_ground_set_family,
    enumerate_canonical_ground_sets,
    subset_algebra,
)

CONFIRMED = "Confirmed"
REFUTED = "Refuted"
UNKNOWN = "Unknown-budget"

#: A tree on m vertices has m - 1 edges, so rule R1 (|E| = 2^n - 2) leaves
#: only m = 2^n - 1 to decide; these are the m <= FREE_TREE_CAP, recorded
#: in every report's bounds.
TREE_ORDERS = (3, 7)

#: Largest |X| swept outside n_range: P_7, C_6, K_4 and the trees on
#: 7 vertices have 2^3 - 2 edges.
FIXED_SWEEP_N = 3

#: Budget of every harness search.
NODE_BUDGET = 2_000_000
TIME_BUDGET_MS = 120_000


def _search_config(gate: bool) -> SearchConfig:
    rules = frozenset() if gate else frozenset({"gate"})
    return SearchConfig(node_budget=NODE_BUDGET, time_budget_ms=TIME_BUDGET_MS, disabled_rules=rules)


def _verdict(searches: Iterable[tuple[SearchStatus, bool]]) -> tuple[str, int, int]:
    """Decide one claim from its (status, should_admit) searches.

    Returns (status, found, budget): Refuted if any search answers
    definitely against its expectation (every status but
    budget-exceeded is definite), else Unknown-budget if any hit its
    budget, else Confirmed. ``found`` and ``budget`` count the searches
    that found a witness and that hit the budget.
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


def _star_order(n: int) -> int:
    return (1 << n) - 2


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def check_star_theorem(config: HarnessConfig) -> list[CheckResult]:
    """Stars admit exactly at size 2^n - 2.

    Forward: K(1, 2^n - 2) is Found for every canonical ground set of
    size n. Converse: every other star size up to 2^n_max - 2 is
    rejected by the edge-count rule R1 for every ground set cardinality,
    which is arithmetic on m + 2; one gate spot-check per n in range
    (K(1, 2^n - 3) over {0..n-1}, one edge short) confirms that
    ``structural_gate`` applies R1. No other star is built.

    The forward loop is the harness's one pass over the canonical
    ground sets, so it also counts each X's neither family off the
    kernel that X's search reads, and returns the
    ``pendant-bounds/classification`` row (|neither| >= n - 1) last.
    """
    cfg = _search_config(gate=True)
    results = []
    anchor = "star K(1,m) admits a graceful set-indexer iff m = 2^n - 2"
    n_lo, n_hi = config.n_range
    ground_sets = 0
    short_of_neither = None  # the first X with |neither| < n - 1

    for n in range(n_lo, n_hi + 1):
        star = generate("star", _star_order(n))
        statuses = []
        family = enumerate_canonical_ground_sets(n, config.max_element)
        for x in family:
            neither = len(subset_algebra(additive_type(x)).class_masks()[2])
            if neither < n - 1 and short_of_neither is None:
                short_of_neither = f"|neither| = {neither} < {n - 1} at X = {x}"
            statuses.append((search_iasgl(star, x, cfg).status, True))
        ground_sets += len(family)
        status, found, budget = _verdict(statuses)
        evidence = {
            CONFIRMED: f"K(1,{_star_order(n)}) found for all {len(family)} canonical ground sets",
            REFUTED: f"only {found}/{len(family)} ground sets admit K(1,{_star_order(n)})",
            UNKNOWN: f"{budget}/{len(family)} ground sets hit the search budget",
        }[status]
        results.append(CheckResult(f"star-theorem/forward-n={n}", anchor, status, evidence))

    # Spot-check that the gate applies R1: K(1, 2^n - 3) is one edge short.
    converse = CheckResult(
        "star-theorem/converse",
        anchor,
        CONFIRMED,
        f"edge-count rule rejects K(1,m) for every m <= {_star_order(n_hi)} except "
        f"2^k - 2, k = 2..{n_hi}, at every n in range",
    )
    for n in range(n_lo, n_hi + 1):
        m = _star_order(n) - 1
        gate = structural_gate(generate("star", m), GroundSet.of(*range(n)))
        if gate.passed or "R1" not in {v.rule for v in gate.violations}:
            evidence = f"edge-count rule failed to reject K(1,{m}) at n={n}"
            converse = CheckResult("star-theorem/converse", anchor, REFUTED, evidence)
            break

    status, evidence = CONFIRMED, (
        f"|neither| >= n - 1 for all {ground_sets} canonical ground sets in range"
    )
    if short_of_neither is not None:
        status, evidence = REFUTED, short_of_neither
    classification = CheckResult(
        "pendant-bounds/classification",
        "at least |X| - 1 pendants hang on the {0}-vertex",
        status,
        evidence,
    )
    return results + [converse, classification]


def check_tree_theorem(config: HarnessConfig) -> list[CheckResult]:
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

    The triangle theorem's corollary (module docstring) proves this for
    every order and every n. The paths and cycles with 2^n - 2 edges
    for 2 <= n <= ``FIXED_SWEEP_N`` (P_3, P_7 and C_6) are swept over
    the whole canonical family as spot checks. P_3 is the star K(1,2)
    and must admit; the check pins that exception explicitly instead of
    misreporting it.
    """
    cfg = _search_config(gate=True)
    path_anchor = "no path on four or more vertices admits; P_3 = K(1,2) is the exception"
    proof = {
        "path": "every path on m >= 4 vertices is a triangle-free non-star",
        "cycle": "every cycle on m >= 4 vertices is a triangle-free non-star and C_3 has "
        "an odd number of edges",
    }
    results = []
    for kind, anchor in (("path", path_anchor), ("cycle", "the cycle C_m never admits")):
        for n in range(2, FIXED_SWEEP_N + 1):
            m = _star_order(n) + (kind == "path")  # P_m has m - 1 edges, C_m has m
            if m < 3:
                continue
            # P_3 is the star K(1,2): the only path that admits.
            p3 = m == 3
            outcomes = sweep_ground_sets(generate(kind, m), n, config.max_element, cfg)
            status, found, budget = _verdict((o.status, p3) for o in outcomes.values())
            confirmed = (
                f"all {len(outcomes)} canonical ground sets at n={n} report nonexistence; "
                f"{proof[kind]}, so none admits at any n (triangle theorem)"
            )
            refuted = f"{found} ground sets admitted {kind} {m}"
            if p3:
                confirmed = (
                    "P_3 is the star K(1,2) and admits (the one path exception); "
                    "nonexistence starts at 4 vertices"
                )
                refuted = "the star path P_3 = K(1,2) failed to admit"
            evidence = {
                CONFIRMED: confirmed,
                REFUTED: refuted,
                UNKNOWN: f"{budget} sweep items hit the budget",
            }[status]
            results.append(CheckResult(f"{kind}-nonexistence/m={m}", anchor, status, evidence))
    return results


def complete_graph_solutions() -> list[tuple[int, int]]:
    """Every (m, n) with m >= 1 and m(m - 1)/2 = 2^n - 2, for every n.

    Times 8, the equation is (2m - 1)^2 + 15 = 2^(n+3). An odd exponent
    leaves 2 mod 3, where a square plus 15 leaves 0 or 1. An even one,
    2j, factors as (2^j - s)(2^j + s) = 15 with s = 2m - 1 > 0, so
    (2^j - s, 2^j + s) is a factor pair (a, b) of 15 with a < b:
    2^(j+1) = a + b and s = (b - a)/2. The caller checks each pair
    against the original equation.
    """
    solutions = []
    for a, b in ((1, 15), (3, 5)):
        power, s = (a + b) // 2, (b - a) // 2  # 2^j and 2m - 1
        solutions.append(((s + 1) // 2, 2 * (power.bit_length() - 1) - 3))
    return sorted(solutions)


def check_complete_graphs(config: HarnessConfig) -> list[CheckResult]:
    """Complete graphs never admit a graceful set-indexer.

    ``complete_graph_solutions`` solves the edge-count equation
    m(m-1)/2 = 2^n - 2 for every n: only K_1 (n = 1) and K_4 (n = 3)
    have 2^n - 2 edges, so rule R1 rejects every other complete graph.
    The edge-count row is Refuted if a solution fails the equation or
    names an order other than 1 and 4. K_4 is exhausted over the whole
    canonical n = 3 family with the gate disabled, so the sweep itself
    is the evidence.
    """
    anchor = "no complete graph admits a graceful set-indexer"
    solutions = complete_graph_solutions()
    wrong = [
        (m, n) for m, n in solutions
        if m * (m - 1) // 2 != (1 << n) - 2 or m not in (1, 4)
    ]
    edge_count = (
        f"m(m-1)/2 = 2^n - 2 only at (m, n) in {solutions} for every n: (2m-1)^2 + 15 = "
        "2^(n+3) fails mod 3 at an odd exponent and factors 15 at an even one; "
        "K_1 has no edge, so K_4 is the one complete graph to decide"
    )
    if wrong:
        edge_count = f"solutions {wrong} fail m(m-1)/2 = 2^n - 2 or add an order beyond K_1 and K_4"
    results = [
        CheckResult("complete/edge-count", anchor, REFUTED if wrong else CONFIRMED, edge_count)
    ]
    outcomes = sweep_ground_sets(
        generate("complete", 4), FIXED_SWEEP_N, config.max_element, _search_config(gate=False)
    )
    status, found, budget = _verdict((o.status, False) for o in outcomes.values())
    evidence = {
        CONFIRMED: f"K_4 exhaustively refuted over all {len(outcomes)} canonical "
        f"ground sets of size {FIXED_SWEEP_N} (max element {config.max_element})",
        REFUTED: f"{found} ground sets admitted K_4",
        UNKNOWN: f"{budget} sweep items hit the budget",
    }[status]
    return results + [CheckResult("complete/exhaustive-K4", anchor, status, evidence)]


def run_all(config: HarnessConfig | None = None) -> TheoremReport:
    """Run every check at desk-scale bounds and aggregate a report.

    Identical configs give identical reports.
    """
    config = config or HarnessConfig()
    checks = check_star_theorem(config)
    checks += check_tree_theorem(config)
    checks += check_path_cycle(config)
    checks += check_complete_graphs(config)
    return TheoremReport(checks=checks, bounds=config.bounds_obj())
