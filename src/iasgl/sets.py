"""Exact arithmetic over finite sets of non-negative integers.

Sumsets A + B = {a + b : a in A, b in B}, power-set enumeration over a
ground set, and the classification of the ground set's non-empty subsets
into non-trivial sumsets and non-trivial summands. The classification
drives every structural bound downstream: sets that cannot be written as
a non-trivial sumset force edges at the zero-labeled vertex, and sets
that cannot act as a non-trivial summand force pendant vertices.

Sumsets are always computed in the full non-negative integers and never
truncated to the ground set: a sum escaping the ground set is precisely
what makes a candidate edge infeasible, and truncation would hide that.

Subsets of a ground set are mirrored as bitmasks in two ways:

* subset mask: bit i set means the i-th smallest element is present
  (the enumeration order of ``enumerate_nonempty_subsets``);
* value mask: bit v set means the integer v is present, so a sumset is
  an OR of shifted value masks and containment is a bit test.

``subset_algebra(X)`` is the one place that enumerates pairs of subsets.
It holds every subset of X (elements, ``IntegerSet``, value mask), the
value-mask -> subset-mask map and the pair table: for each target C,
the pairs of distinct subsets A, B with A + B = C inside X. The table is
built output-sensitively: for each A, the partners B that keep A + B
inside X are exactly the submasks of X ∩ ⋂_{e∈A}(X − e), so only pairs
that land in X are ever visited. Classification, the structural gate,
the search and the realisation builder all read it. It is cached per X
in a fixed-size LRU (32 ground sets), so a sweep over hundreds of ground
sets holds a bounded amount of memory; the classification and the
label -> targets index are memoised on the cached object.

Additive type. Write X = {x_0 < ... < x_{n-1}} and
T(X) = {(i, j, k) : i <= j, x_i + x_j = x_k}, the sum-triple set.
``additive_type(X)`` = (n, sorted T(X)) is an O(n^2) key. Everything
the kernel holds is a function of it in subset-mask coordinates: A + B
lands in X iff every index pair i in A, j in B has a triple
(min(i, j), max(i, j), k) in T(X), and then it is the subset whose
indices are those k. So the pair table, the value -> subset
translation of each sum (or its miss), and with them the
classification, the gate, the search's candidate lists, prunes and
node counts, the realisation builder and whether a labeling given in
masks is graceful are equal for two ground sets of one type. So are
their input checks: n is in the key, and (0, 0, 0) is in T(X) iff 0 is
in X. Every order they use is shared too:
index -> element is increasing, so subset masks and the lexicographic
order of element tuples rank subsets the same way for both. A result
computed over one X therefore maps onto another X of its type through
that X's own index -> element map (``search.TypeMemo``), where it is
verified again.

Verification (``sumset`` here, and the checks in ``labeling``) never
reads the kernel: it recomputes every sum from the elements as a plain
set, builds ``IntegerSet``s only for the labels a report names, and
decides the graceful rung by counting distinct edge labels, so each
verdict the kernel leads to is checked by an independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

#: Hard cap on |X| for power-set enumeration (2^20 subsets): every
#: enumeration and CLI path rejects a larger ground set.
SUBSET_ENUMERATION_CAP = 20

#: Subset mask of {0}: 0 is the least element of a graceful ground set.
ZERO_MASK = 1

#: Most combinations, C(max, n - 1), a ground-set family may walk.
GROUND_SET_FAMILY_CAP = 100_000


class SummandMode(Enum):
    """Whether a decomposition C = A + B may use equal operands.

    DISTINCT_LABELS requires A != B, matching what an edge can realize:
    vertex labels are injective, so the endpoint labels of an edge are
    always different sets. ALLOW_EQUAL keeps the permissive reading of
    "sum of two subsets" available for study; only classification takes
    a mode, and the gate, the search and the builder use DISTINCT_LABELS.
    """

    DISTINCT_LABELS = "distinct-labels"
    ALLOW_EQUAL = "allow-equal"


@dataclass(frozen=True, order=True)
class IntegerSet:
    """A finite set of non-negative integers, stored strictly ascending.

    Ordering is lexicographic on the element tuple, which gives every
    family of sets a deterministic sort.
    """

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        elems = tuple(sorted(set(self.elements)))
        if any(e < 0 for e in elems):
            raise ValueError(f"negative element in set-label: {self.elements}")
        if elems != self.elements:
            object.__setattr__(self, "elements", elems)

    @classmethod
    def of(cls, *elements: int) -> "IntegerSet":
        return cls(tuple(elements))

    @classmethod
    def from_iterable(cls, elements: Iterable[int]) -> "IntegerSet":
        return cls(tuple(elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, value: int) -> bool:
        return value in self.elements

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.elements) + "}"

    def is_empty(self) -> bool:
        return not self.elements

    def value_mask(self) -> int:
        """Bitmask with bit v set for every element v."""
        mask = 0
        for e in self.elements:
            mask |= 1 << e
        return mask


#: The set {0}, the additive identity of the sumset operation.
ZERO_SET = IntegerSet.of(0)


@dataclass(frozen=True, order=True)
class GroundSet:
    """The finite set X of non-negative integers supplying all labels."""

    base: IntegerSet

    def __post_init__(self) -> None:
        if self.base.is_empty():
            raise ValueError("ground set must be non-empty")

    @classmethod
    def of(cls, *elements: int) -> "GroundSet":
        return cls(IntegerSet.of(*elements))

    @property
    def n(self) -> int:
        return len(self.base)

    @property
    def max_element(self) -> int:
        return self.base.elements[-1]

    def contains_zero(self) -> bool:
        return 0 in self.base

    def __str__(self) -> str:
        return str(self.base)


@dataclass(frozen=True)
class Classification:
    """Partition of the non-empty subsets of X other than {0}.

    non_sumsets: subsets that are not a non-trivial sumset of any two
    subsets of X; these can only appear as the edge label of an edge at
    the {0}-vertex. non_summands: subsets A with no B != {0} keeping
    A + B inside X; vertices carrying them must be pendant. neither is
    the intersection and lower-bounds the pendant count. Families are
    sorted by (cardinality, elements) for determinism.
    """

    ground: GroundSet
    mode: SummandMode
    non_sumsets: tuple[IntegerSet, ...]
    non_summands: tuple[IntegerSet, ...]
    neither: tuple[IntegerSet, ...]


def sumset(a: IntegerSet, b: IntegerSet) -> IntegerSet:
    """Return {x + y : x in a, y in b}, never truncated to a ground set."""
    if a.is_empty() or b.is_empty():
        raise ValueError("empty set-label")
    return IntegerSet.from_iterable(x + y for x in a for y in b)


def _family_sorted(sets: Iterable[IntegerSet]) -> tuple[IntegerSet, ...]:
    # Cardinality first, then element order: {0,3} before {0,1,3}.
    return tuple(sorted(sets, key=lambda s: (len(s), s.elements)))


def enumerate_nonempty_subsets(x: GroundSet) -> list[IntegerSet]:
    """All 2^n - 1 non-empty subsets of X, ascending by subset mask."""
    if x.n > SUBSET_ENUMERATION_CAP:
        raise ValueError("ground set too large")
    elems = x.base.elements
    out = []
    for mask in range(1, 1 << x.n):
        out.append(IntegerSet.from_iterable(elems[i] for i in range(x.n) if mask >> i & 1))
    return out


def additive_type(x: GroundSet) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """(n, T(X)): X's size and its sum triples (i, j, k), i <= j, with
    x_i + x_j = x_k, in ascending order."""
    elems = x.base.elements
    index = {e: k for k, e in enumerate(elems)}
    triples = []
    for i, a in enumerate(elems):
        for j in range(i, len(elems)):
            k = index.get(a + elems[j])
            if k is not None:
                triples.append((i, j, k))
    return len(elems), tuple(triples)


def _sum_value_mask(a_elements: tuple[int, ...], b_value_mask: int) -> int:
    vm = 0
    for e in a_elements:
        vm |= b_value_mask << e
    return vm


@dataclass(frozen=True, eq=False)
class SubsetAlgebra:
    """Every subset of X and every pair of distinct subsets summing inside X.

    Tuples are indexed by subset mask (entry 0 is the empty set).
    ``pairs`` maps a target subset mask to the sorted mask pairs (a, b),
    a < b, with A + B equal to the target; a pair whose sum escapes X is
    absent. With 0 in X every target other than {0} has an entry, since
    {0} + C = C. Instances are shared through the cache of
    ``subset_algebra``: treat every field as read-only.
    """

    ground: GroundSet
    sets: tuple[IntegerSet, ...]
    elements: tuple[tuple[int, ...], ...]
    value: tuple[int, ...]
    value_to_mask: dict[int, int]
    pairs: dict[int, tuple[tuple[int, int], ...]]
    classifications: dict[SummandMode, Classification] = field(default_factory=dict, repr=False)

    @cached_property
    def targets_of(self) -> tuple[tuple[int, ...], ...]:
        """Label mask -> the ascending target masks with a pair using it.

        Built on first use and then shared by every reader of this
        cached X (the search's coverage rechecks).
        """
        targets: list[set[int]] = [set() for _ in self.sets]
        for t, pairs in self.pairs.items():
            for a, b in pairs:
                targets[a].add(t)
                targets[b].add(t)
        return tuple(tuple(sorted(ts)) for ts in targets)


@lru_cache(maxsize=32)
def subset_algebra(x: GroundSet) -> SubsetAlgebra:
    """Build (or fetch from a small LRU cache) the subset algebra of X.

    For each a, every b with A + B inside X is a submask of
    allowed(a) = X ∩ ⋂_{e∈A} (X − e). Walking those submasks from the
    top down and stopping at b <= a visits each pair exactly once, so
    the build costs O(n · (2^n + pairs)), not O(4^n).
    """
    sets = (IntegerSet(()), *enumerate_nonempty_subsets(x))
    elements = tuple(s.elements for s in sets)
    value = tuple(s.value_mask() for s in sets)
    value_to_mask = {v: m for m, v in enumerate(value)}
    x_vm = value[-1]
    pairs: dict[int, list[tuple[int, int]]] = {}
    for a in range(1, len(sets)):
        ea = elements[a]
        allowed = x_vm
        for e in ea:
            allowed &= x_vm >> e
        s = value_to_mask[allowed]
        b = s
        while b > a:
            t = value_to_mask[_sum_value_mask(ea, value[b])]
            pairs.setdefault(t, []).append((a, b))
            b = (b - 1) & s
    return SubsetAlgebra(
        ground=x,
        sets=sets,
        elements=elements,
        value=value,
        value_to_mask=value_to_mask,
        pairs={t: tuple(sorted(p)) for t, p in pairs.items()},
    )


def _classify(alg: SubsetAlgebra, mode: SummandMode) -> Classification:
    """Read the classification off the pair table.

    C is a non-trivial sumset iff some pair for C avoids {0}; A is a
    non-trivial summand iff it sits in a pair whose partner is not {0}.
    Under ALLOW_EQUAL the diagonal A + A inside X adds sumsets but no
    summands: for nonzero b in A, A + {b} (or {b} + {0, b} when A = {b})
    already lies inside A + A or {b, 2b}, hence inside X.
    """
    sumsets: set[int] = set()
    summands: set[int] = set()
    for t, pairs in alg.pairs.items():
        for a, b in pairs:
            if a != ZERO_MASK:
                sumsets.add(t)
                summands.update((a, b))
    others = range(ZERO_MASK + 1, len(alg.sets))
    if mode is SummandMode.ALLOW_EQUAL:
        for a in others:
            t = alg.value_to_mask.get(_sum_value_mask(alg.elements[a], alg.value[a]))
            if t is not None:
                sumsets.add(t)

    non_sumsets = [alg.sets[m] for m in others if m not in sumsets]
    non_summands = [alg.sets[m] for m in others if m not in summands]
    neither = [alg.sets[m] for m in others if m not in sumsets and m not in summands]
    return Classification(
        ground=alg.ground,
        mode=mode,
        non_sumsets=_family_sorted(non_sumsets),
        non_summands=_family_sorted(non_summands),
        neither=_family_sorted(neither),
    )


def classify_ground_set(
    x: GroundSet, mode: SummandMode = SummandMode.DISTINCT_LABELS
) -> Classification:
    """Classify every non-empty subset of X except {0}.

    The result is memoised per mode on the cached subset algebra of X,
    so repeated calls return the same instance while X stays cached.
    """
    if not x.contains_zero():
        raise ValueError("graceful ground set must contain 0")
    if x.n < 2:
        raise ValueError("classification needs a ground set with at least 2 elements")
    alg = subset_algebra(x)
    cls = alg.classifications.get(mode)
    if cls is None:
        cls = alg.classifications[mode] = _classify(alg, mode)
    return cls


def check_ground_set_family(n: int, max_element: int) -> None:
    """Reject a ground-set family (|X| = n, 0 in X, max element bounded)
    that is empty or walks more than GROUND_SET_FAMILY_CAP combinations."""
    if n > SUBSET_ENUMERATION_CAP:
        raise ValueError("ground set too large")
    if n < 2:
        raise ValueError("ground set cardinality must be at least 2")
    if max_element < n - 1:
        raise ValueError(f"empty ground-set family: |X| = {n} needs max element >= {n - 1}")
    if math.comb(max_element, n - 1) > GROUND_SET_FAMILY_CAP:
        raise ValueError(f"ground-set family too large: C({max_element}, {n - 1}) combinations")


def enumerate_canonical_ground_sets(n: int, max_element: int) -> list[GroundSet]:
    """All canonical (gcd-1) ground sets with |X| = n, 0 in X and max
    element bounded; a scaled copy of X labels the same graphs."""
    check_ground_set_family(n, max_element)
    from itertools import combinations

    out = []
    for rest in combinations(range(1, max_element + 1), n - 1):
        g = 0
        for e in rest:
            g = math.gcd(g, e)
        if g == 1:
            out.append(GroundSet(IntegerSet.from_iterable((0, *rest))))
    out.sort()
    return out
