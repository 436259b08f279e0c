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

Write X = {x_0 < ... < x_{n-1}}. A subset of X is handled as a subset
mask, bit i set when x_i is present (the order of
``enumerate_nonempty_subsets``); the kernel has no other coordinates.

``subset_algebra(additive_type(X))`` is the one place that enumerates
pairs of subsets. It holds the pair table (for each target C, the pairs
of distinct subsets A, B with A + B = C inside X) and, memoised on first
use, the pair-sum table (label -> {partner: target}, the search's P3
and P4 lookup) and the classification masks per mode. It is built from
X's additive type alone and cached by that type in a fixed-size LRU (32
types), so every X of one type shares one kernel and a sweep over
hundreds of ground sets holds a bounded amount of memory. X's own
subsets, as ``IntegerSet``s indexed by subset mask, come from
``subsets_by_mask(X)``, cached per X; only the readers that print labels
(classification, witnesses, realisations) build them. The structural
gate reads the classification masks' sizes only, and
``classify_ground_set``, which turns the masks into X's subsets for
its callers (the CLI and the theorem harness, once per X each), keeps
no cache.

Additive type. T(X) = {(i, j, k) : i <= j, x_i + x_j = x_k} is the
sum-triple set, and ``additive_type(X)`` = (n, sorted T(X)) an O(n^2)
key. The kernel is built from that key alone: A + B lands in X iff every
index pair i in A, j in B has a triple (min(i, j), max(i, j), k) in
T(X), and then it is the subset whose indices are those k. So, by
construction, the pair table and with it the classification, the gate,
the search's candidate lists, prunes and node counts, the realisation
builder and whether a labeling given in masks is graceful are equal for
two ground sets of one type, and the kernel's cost does not depend on
how large X's elements are. So are their input checks: n is in the key,
and (0, 0, 0) is in T(X) iff 0 is in X. Every order they use is shared
too: index -> element is increasing, so subset masks and the
lexicographic order of element tuples rank subsets the same way for
both. A result computed over one X therefore maps onto another X of its
type through that X's own index -> element map, where it is verified
again: ``search_iasgl`` and ``build_realisation`` keep their results per
type this way, each through the one mapping step
``labeling.mapped_labeling``.

Verification (``sumset`` here, and the ladder in ``labeling``) never
reads the kernel: it recomputes every sum from the elements as a plain
set, builds ``IntegerSet``s only for the labels a report names, and
decides the graceful rung by counting distinct edge labels, so each
witness and realisation the kernel leads to is checked by an
independent route. The structural gate in ``labeling`` does read the
kernel, through ``class_masks``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from enum import Enum
from functools import lru_cache

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


class Immutable:
    """Base of the value types: read-only once ``__init__`` has run.

    Subclasses keep their state in ``__slots__`` and set it with
    ``object.__setattr__``; any later assignment or deletion raises
    AttributeError.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Record(Immutable):
    """An immutable value made of the fields named in ``_fields``.

    Two records are equal when they are of one class and their fields
    are equal in order; the hash is that of the tuple of the fields, and
    ``repr`` lists them.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


class IntegerSet(Record):
    """A finite set of non-negative integers, stored strictly ascending.

    Ordering is lexicographic on the element tuple, which gives every
    family of sets a deterministic sort.
    """

    __slots__ = _fields = ("elements",)

    def __init__(self, elements: tuple[int, ...]) -> None:
        elems = tuple(sorted(set(elements)))
        if elems and elems[0] < 0:
            raise ValueError(f"negative element in set-label: {elements}")
        object.__setattr__(self, "elements", elems)

    # Equality and hash are Record's, written out for the most used type.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.elements == other.elements
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.elements,))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.elements < other.elements
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self.elements <= other.elements
        return NotImplemented

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


#: The set {0}, the additive identity of the sumset operation.
ZERO_SET = IntegerSet.of(0)


class GroundSet(Record):
    """The finite set X of non-negative integers supplying all labels.

    Equality, hash and repr read ``base`` alone; ``additive_type(X)``,
    computed on first use, is kept in a slot of its own.
    """

    __slots__ = ("base", "_additive_type")
    _fields = ("base",)

    def __init__(self, base: IntegerSet) -> None:
        if base.is_empty():
            raise ValueError("ground set must be non-empty")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "_additive_type", None)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.base < other.base
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self.base <= other.base
        return NotImplemented

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


class Classification(Record):
    """Partition of the non-empty subsets of X other than {0}.

    non_sumsets: subsets that are not a non-trivial sumset of any two
    subsets of X; these can only appear as the edge label of an edge at
    the {0}-vertex. non_summands: subsets A with no B != {0} keeping
    A + B inside X; vertices carrying them must be pendant. neither is
    the intersection and lower-bounds the pendant count. Families are
    sorted by (cardinality, elements) for determinism. The same families
    as subset masks are the kernel's ``SubsetAlgebra.class_masks``.
    """

    __slots__ = _fields = ("ground", "mode", "non_sumsets", "non_summands", "neither")

    def __init__(
        self,
        ground: GroundSet,
        mode: SummandMode,
        non_sumsets: tuple[IntegerSet, ...],
        non_summands: tuple[IntegerSet, ...],
        neither: tuple[IntegerSet, ...],
    ) -> None:
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "non_sumsets", non_sumsets)
        object.__setattr__(self, "non_summands", non_summands)
        object.__setattr__(self, "neither", neither)


def sumset(a: IntegerSet, b: IntegerSet) -> IntegerSet:
    """Return {x + y : x in a, y in b}, never truncated to a ground set."""
    if a.is_empty() or b.is_empty():
        raise ValueError("empty set-label")
    return IntegerSet.from_iterable(x + y for x in a for y in b)


@lru_cache(maxsize=32)
def subsets_by_mask(x: GroundSet) -> tuple[IntegerSet, ...]:
    """All 2^n subsets of X as ``IntegerSet``s, indexed by subset mask
    (entry 0 is the empty set), built once per X in a small LRU cache.

    The subsets with top bit i are those below bit i, each with x_i
    appended: already ascending and distinct, so no set is re-sorted.
    """
    if x.n > SUBSET_ENUMERATION_CAP:
        raise ValueError("ground set too large")
    new, set_elements = object.__new__, IntegerSet.elements.__set__
    out = [IntegerSet(())]
    for e in x.base.elements:
        last = (e,)
        for s in out[:]:
            t = new(IntegerSet)
            set_elements(t, s.elements + last)
            out.append(t)
    return tuple(out)


def enumerate_nonempty_subsets(x: GroundSet) -> list[IntegerSet]:
    """All 2^n - 1 non-empty subsets of X, ascending by subset mask."""
    return list(subsets_by_mask(x)[1:])


def additive_type(x: GroundSet) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """(n, T(X)): X's size and its sum triples (i, j, k), i <= j, with
    x_i + x_j = x_k, in ascending order; computed once per X."""
    key = x._additive_type
    if key is None:
        elems = x.base.elements
        index = {e: k for k, e in enumerate(elems)}
        triples = []
        for i, a in enumerate(elems):
            for j in range(i, len(elems)):
                k = index.get(a + elems[j])
                if k is not None:
                    triples.append((i, j, k))
        key = len(elems), tuple(triples)
        object.__setattr__(x, "_additive_type", key)
    return key


class SubsetAlgebra(Immutable):
    """Every pair of distinct subsets of X summing inside X, in subset masks.

    Built from the key ``additive_type(X)`` alone, so one instance serves
    every X of that type. ``pairs`` maps a target subset mask to the
    sorted mask pairs (a, b), a < b, with A + B equal to the target; a
    pair whose sum escapes X is absent. With 0 in X every target other
    than {0} has an entry, since {0} + C = C. ``equal_sums`` holds the
    target mask of every A + A inside X (ALLOW_EQUAL's diagonal).
    Instances are shared through the cache of ``subset_algebra``: treat
    every field as read-only. Two instances are equal only if they are
    the same object.
    """

    __slots__ = ("n", "pairs", "equal_sums", "_pair_sums", "_class_masks")

    def __init__(self, key: tuple[int, tuple[tuple[int, int, int], ...]]) -> None:
        """Build the algebra of the additive type key = (n, T(X));
        ``subset_algebra`` caches it.

        partner(i) is the mask of the j with x_i + x_j in X, so every b
        with A + B inside X is a submask of allowed(a), the AND of
        partner(i) over i in A. Walking those submasks from the top down
        and stopping at b < a visits each pair once, so the build costs
        O(n · (2^n + pairs)), not O(4^n). A + B is the OR over i in A of
        row_i[b], the mask of {x_i} + B, where row_i is filled over the
        submasks s of partner(i) in ascending order by
        row[s] = row[s ^ low] | bit(k), where low = bit(j) is the lowest
        bit of s and x_i + x_j = x_k.
        """
        n, triples = key
        if n > SUBSET_ENUMERATION_CAP:
            raise ValueError("ground set too large")
        sum_bit: list[dict[int, int]] = [{} for _ in range(n)]  # i -> {bit(j): bit(k)}
        for i, j, k in triples:
            sum_bit[i][1 << j] = sum_bit[j][1 << i] = 1 << k
        partner = [sum(bits) for bits in sum_bit]
        rows = []
        for p, bits in zip(partner, sum_bit):
            row = [0] * (p + 1)
            s = p & -p
            while s:
                row[s] = row[s & (s - 1)] | bits[s & -s]
                s = (s - p) & p
            rows.append(row)

        pairs: dict[int, list[tuple[int, int]]] = {}
        equal_sums = []
        for a in range(1, 1 << n):
            allowed, a_rows = -1, []
            for i in range(n):
                if a >> i & 1:
                    allowed &= partner[i]
                    a_rows.append(rows[i])
            b = allowed
            while b >= a:  # b == a only when A + A lies inside X
                t = 0
                for row in a_rows:
                    t |= row[b]
                if b == a:
                    equal_sums.append(t)
                else:
                    pairs.setdefault(t, []).append((a, b))
                b = (b - 1) & allowed
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pairs", {t: tuple(sorted(p)) for t, p in pairs.items()})
        object.__setattr__(self, "equal_sums", tuple(equal_sums))
        object.__setattr__(self, "_pair_sums", None)
        object.__setattr__(self, "_class_masks", {})

    @property
    def pair_sums(self) -> tuple[dict[int, int], ...]:
        """Label mask a -> {b: target mask of A + B} for every pair of
        ``pairs``, stored both ways round; a partner b that is absent
        makes A + B escape X, and the values are the targets with a pair
        using a.

        Built on first use and then shared by every reader of this
        cached type (the search's P3 test, one lookup per edge, and its
        P4 rechecks).
        """
        if self._pair_sums is None:
            sums: list[dict[int, int]] = [{} for _ in range(1 << self.n)]
            for t, pairs in self.pairs.items():
                for a, b in pairs:
                    sums[a][b] = t
                    sums[b][a] = t
            object.__setattr__(self, "_pair_sums", tuple(sums))
        return self._pair_sums

    def class_masks(self, mode: SummandMode) -> tuple[tuple[int, ...], ...]:
        """The classification's families (non-sumsets, non-summands,
        neither) as subset masks, read off the pair table and memoised
        per mode.

        C is a non-trivial sumset iff some pair for C avoids {0}; A is a
        non-trivial summand iff it sits in a pair whose partner is not
        {0}. Under ALLOW_EQUAL the diagonal A + A inside X adds sumsets
        but no summands: for nonzero b in A, A + {b} (or {b} + {0, b}
        when A = {b}) already lies inside A + A or {b, 2b}, hence inside
        X. Each family is sorted by cardinality, then index tuple, which
        is element order since index -> element is increasing: {0,3}
        before {0,1,3}. Among masks of one popcount, the index tuples
        first differ at the lowest bit of a XOR b, and the mask holding
        it comes first: that is descending order of the bit-reversed
        mask.
        """
        masks = self._class_masks.get(mode)
        if masks is not None:
            return masks
        n = self.n
        size = 1 << n
        sumset = bytearray(size)
        summand = bytearray(size)
        for t, pairs in self.pairs.items():
            for a, b in pairs:
                if a != ZERO_MASK:
                    sumset[t] = summand[a] = summand[b] = 1
        if mode is SummandMode.ALLOW_EQUAL:
            for t in self.equal_sums:
                sumset[t] = 1
        reverse = [0]  # n-bit reversal of each mask
        for i in range(n):
            bit = size >> (i + 1)
            reverse += [r | bit for r in reverse]
        order = sorted(
            range(ZERO_MASK + 1, size), key=lambda m: (m.bit_count() << n) - reverse[m]
        )
        masks = self._class_masks[mode] = (
            tuple(m for m in order if not sumset[m]),
            tuple(m for m in order if not summand[m]),
            tuple(m for m in order if not sumset[m] and not summand[m]),
        )
        return masks


@lru_cache(maxsize=32)
def subset_algebra(key: tuple[int, tuple[tuple[int, int, int], ...]]) -> SubsetAlgebra:
    """Build (or fetch from a small LRU cache) the subset algebra of the
    additive type key = ``additive_type(X)``."""
    return SubsetAlgebra(key)


def classify_ground_set(
    x: GroundSet, mode: SummandMode = SummandMode.DISTINCT_LABELS
) -> Classification:
    """Classify every non-empty subset of X except {0}.

    The families are the kernel's ``class_masks`` for X's additive type,
    turned into X's own subsets by ``subsets_by_mask``. Nothing is kept:
    each call builds a new, equal ``Classification``.
    """
    if not x.contains_zero():
        raise ValueError("graceful ground set must contain 0")
    if x.n < 2:
        raise ValueError("classification needs a ground set with at least 2 elements")
    masks = subset_algebra(additive_type(x)).class_masks(mode)
    sets = subsets_by_mask(x)
    return Classification(x, mode, *(tuple(map(sets.__getitem__, f)) for f in masks))


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
