"""Sumset arithmetic and ground-set classification."""

import math
from itertools import combinations

import pytest

from iasgl.sets import (
    ZERO_SET,
    GroundSet,
    IntegerSet,
    SummandMode,
    additive_type,
    classify_ground_set,
    enumerate_canonical_ground_sets,
    enumerate_nonempty_subsets,
    subset_algebra,
    subsets_by_mask,
    sumset,
)

from conftest import iset, naive_sumset, nonempty_subsets, oracle_classify


class TestIntegerSet:
    def test_normalizes_order_and_duplicates(self):
        assert IntegerSet((3, 1, 1)).elements == (1, 3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            IntegerSet.of(-1, 2)

    def test_ordering_is_lexicographic(self):
        assert iset(0, 1) < iset(0, 1, 2) < iset(0, 2)

    def test_str(self):
        assert str(iset(0, 2, 5)) == "{0,2,5}"


class TestSumset:
    def test_identity_set(self):
        assert sumset(iset(0), iset(5)) == iset(5)

    def test_pairwise_sums(self):
        assert sumset(iset(0, 1), iset(0, 2)) == iset(0, 1, 2, 3)
        assert sumset(iset(1, 2), iset(0, 3)) == iset(1, 2, 4, 5)

    def test_not_truncated(self):
        assert sumset(iset(2), iset(3)) == iset(5)

    def test_empty_operand_rejected(self):
        with pytest.raises(ValueError, match="empty set-label"):
            sumset(IntegerSet(()), iset(1))


class TestEnumeration:
    def test_singleton(self):
        assert enumerate_nonempty_subsets(GroundSet.of(0)) == [iset(0)]

    def test_mask_order(self, x01):
        assert enumerate_nonempty_subsets(x01) == [iset(0), iset(1), iset(0, 1)]

    def test_count(self, x012):
        assert len(enumerate_nonempty_subsets(x012)) == 7

    def test_cap(self):
        big = GroundSet.of(*range(21))
        with pytest.raises(ValueError, match="too large"):
            enumerate_nonempty_subsets(big)
        with pytest.raises(ValueError, match="too large"):
            subset_algebra(additive_type(big))  # before any pair is walked

    def test_subsets_by_mask_against_combinations(self):
        # Built by appending to the set one bit smaller, never re-sorted.
        for n in range(1, 9):
            elems = (0, 1, 3, 7, 12, 20, 30, 44)[:n]
            expected = [()] * (1 << n)
            for k in range(1, n + 1):
                for idx in combinations(range(n), k):
                    expected[sum(1 << i for i in idx)] = tuple(elems[i] for i in idx)
            got = subsets_by_mask(GroundSet.of(*elems))
            assert len(got) == 1 << n
            for mask, (s, want) in enumerate(zip(got, expected)):
                assert type(s) is IntegerSet and s.elements == want, (n, mask)


def set_pairs(x: GroundSet, target: IntegerSet) -> list[tuple[IntegerSet, IntegerSet]]:
    """The kernel's pairs for a target, as sets."""
    alg, sets = subset_algebra(additive_type(x)), subsets_by_mask(x)
    target_mask = sum(1 << x.base.elements.index(e) for e in target)
    return [(sets[a], sets[b]) for a, b in alg.pairs[target_mask]]


class TestDecompositions:
    def test_three_in_x0123(self, x0123):
        assert set_pairs(x0123, iset(3)) == [(iset(0), iset(3)), (iset(1), iset(2))]

    def test_two_needs_equal_operands(self, x012):
        # Only {0} + {2}; {1} + {1} is a pair of equal operands.
        assert set_pairs(x012, iset(2)) == [(iset(0), iset(2))]
        assert iset(2) in classify_ground_set(x012).non_sumsets
        assert iset(2) not in classify_ground_set(x012, SummandMode.ALLOW_EQUAL).non_sumsets

    def test_oracle_pair_table(self):
        for n in range(2, 6):
            for x in enumerate_canonical_ground_sets(n, 8):
                ground = frozenset(x.base.elements)
                subsets = nonempty_subsets(x.base.elements)
                expected: dict[frozenset[int], set[frozenset[frozenset[int]]]] = {}
                for a in subsets:
                    for b in subsets:
                        c = naive_sumset(a, b)
                        if a != b and c <= ground:
                            expected.setdefault(c, set()).add(frozenset((a, b)))

                alg, sets = subset_algebra(additive_type(x)), subsets_by_mask(x)
                got: dict[frozenset[int], set[frozenset[frozenset[int]]]] = {}
                for t, pairs in alg.pairs.items():
                    assert list(pairs) == sorted(pairs) and all(a < b for a, b in pairs)
                    got[frozenset(sets[t])] = {
                        frozenset((frozenset(sets[a]), frozenset(sets[b]))) for a, b in pairs
                    }
                    assert len(got[frozenset(sets[t])]) == len(pairs)
                assert got == expected, x

    def test_label_targets_index(self):
        # The search's P4 rechecks read a label's targets off its
        # pair-sum row.
        for n in range(2, 6):
            for x in enumerate_canonical_ground_sets(n, 8):
                alg = subset_algebra(additive_type(x))
                for m, row in enumerate(alg.pair_sums):
                    expected = {t for t in alg.pairs if any(m in p for p in alg.pairs[t])}
                    assert set(row.values()) == expected, (x, m)

    def test_pair_sum_table(self):
        # The search's P3 lookup against plain sets: an absent entry means
        # the sum escapes X.
        for n in range(2, 5):
            for x in enumerate_canonical_ground_sets(n, 8):
                alg, sets = subset_algebra(additive_type(x)), subsets_by_mask(x)
                ground = frozenset(x.base.elements)
                labels = range(1, len(sets))
                for a in labels:
                    for b in labels:
                        if a == b:
                            continue
                        got = alg.pair_sums[a].get(b)
                        c = naive_sumset(sets[a].elements, sets[b].elements)
                        if c <= ground:
                            assert sets[got].elements == tuple(sorted(c)), (x, a, b)
                        else:
                            assert got is None, (x, a, b)
                assert alg.pair_sums is subset_algebra(additive_type(x)).pair_sums


class TestAdditiveTypeInvariance:
    """The kernel is built from T(X) alone, so every ground set of one
    type shares it, however large its elements."""

    def test_one_kernel_per_type(self):
        x0123, x0246 = GroundSet.of(0, 1, 2, 3), GroundSet.of(0, 2, 4, 6)
        assert subset_algebra(additive_type(x0123)) is subset_algebra(additive_type(x0246))

    def test_scaled_ground_set_has_equal_kernel(self):
        # 10**30·X has X's type; one bit per value would need 10**31 bits.
        for n in range(2, 6):
            for x in enumerate_canonical_ground_sets(n, 10):
                big = GroundSet(IntegerSet.from_iterable(10**30 * e for e in x.base.elements))
                assert additive_type(big) == additive_type(x)
                assert subset_algebra(additive_type(big)) is subset_algebra(additive_type(x))
                for mode in SummandMode:
                    got, want = classify_ground_set(big, mode), classify_ground_set(x, mode)
                    for family in ("non_sumsets", "non_summands", "neither"):
                        assert getattr(got, family) == tuple(
                            IntegerSet.from_iterable(10**30 * e for e in s)
                            for s in getattr(want, family)
                        ), (x, mode, family)

    @pytest.mark.parametrize("mode", list(SummandMode))
    def test_huge_element_against_oracle(self, mode):
        small = GroundSet.of(0, 1, 2, 3, 4, 5, 100)
        huge = GroundSet.of(0, 1, 2, 3, 4, 5, 10**30)
        to_huge = dict(zip(small.base.elements, huge.base.elements))
        got, want = classify_ground_set(huge, mode), classify_ground_set(small, mode)
        oracle = oracle_classify(huge.base.elements, distinct=mode is SummandMode.DISTINCT_LABELS)
        for family, expected in zip(("non_sumsets", "non_summands", "neither"), oracle):
            sets = getattr(got, family)
            assert {frozenset(s.elements) for s in sets} == expected
            assert sets == tuple(
                IntegerSet.from_iterable(map(to_huge.get, s)) for s in getattr(want, family)
            )

    def test_masks_name_the_classified_sets(self):
        for x in (GroundSet.of(0, 1, 2, 3), GroundSet.of(0, 1, 3, 7, 12)):
            alg, sets = subset_algebra(additive_type(x)), subsets_by_mask(x)
            for mode in SummandMode:
                cls = classify_ground_set(x, mode)
                families = (cls.non_sumsets, cls.non_summands, cls.neither)
                assert tuple(tuple(sets[m] for m in f) for f in alg.class_masks(mode)) == families


class TestSumsetSummandPredicates:
    def test_least_nonzero_never_a_sumset(self, x0123):
        assert iset(1) in classify_ground_set(x0123).non_sumsets

    def test_one_two_is_sumset(self, x012):
        assert iset(1, 2) not in classify_ground_set(x012).non_sumsets

    def test_zero_max_is_neither(self, x0123):
        assert iset(0, 3) in classify_ground_set(x0123).neither

    def test_max_element_overflows(self, x0123):
        assert iset(3) in classify_ground_set(x0123).non_summands

    def test_one_is_summand(self, x0123):
        assert iset(1) not in classify_ground_set(x0123).non_summands


class TestClassification:
    def test_x0123(self, x0123):
        cls = classify_ground_set(x0123)
        assert len(cls.non_sumsets) == 8
        assert len(cls.non_summands) == 8
        assert cls.neither == (iset(0, 3), iset(0, 1, 3), iset(0, 2, 3))

    def test_x012(self, x012):
        cls = classify_ground_set(x012)
        assert cls.non_sumsets == (iset(1), iset(2), iset(0, 1), iset(0, 2), iset(0, 1, 2))
        assert cls.non_summands == (iset(2), iset(0, 2), iset(1, 2), iset(0, 1, 2))
        assert cls.neither == (iset(2), iset(0, 2), iset(0, 1, 2))

    def test_x01(self, x01):
        cls = classify_ground_set(x01)
        assert cls.non_sumsets == (iset(1), iset(0, 1))
        assert cls.non_summands == (iset(1), iset(0, 1))
        assert cls.neither == (iset(1), iset(0, 1))

    def test_allow_equal_shrinks_non_sumsets(self, x012):
        cls = classify_ground_set(x012, SummandMode.ALLOW_EQUAL)
        # {2} = {1} + {1} and {0,1,2} = {0,1} + {0,1} become sumsets.
        assert iset(2) not in cls.non_sumsets
        assert iset(0, 1, 2) not in cls.non_sumsets

    def test_requires_zero(self):
        with pytest.raises(ValueError, match="must contain 0"):
            classify_ground_set(GroundSet.of(1, 2))

    def test_cached_instance_reused(self, x0123):
        # The kernel is cached per additive type; a classification is
        # built afresh, equal, on every call.
        key = additive_type(x0123)
        assert subset_algebra(key) is subset_algebra(key)
        assert subset_algebra.cache_info().maxsize is not None
        assert classify_ground_set(x0123) == classify_ground_set(x0123)

    def test_family_order_up_to_n10(self):
        # {0} with powers of 3 has only the sums 0 + x: every subset but
        # {0} is a non-sumset, so that family is the kernel's whole order.
        for n in range(2, 11):
            x = GroundSet.of(0, *(3**i for i in range(n - 1)))
            family = classify_ground_set(x).non_sumsets
            assert len(family) == (1 << n) - 2
            assert list(family) == sorted(family, key=lambda s: (len(s), s.elements)), n

    @pytest.mark.parametrize("mode", list(SummandMode))
    def test_oracle_agreement_small(self, mode):
        for x in (x for n in range(3, 6) for x in enumerate_canonical_ground_sets(n, 6)):
            cls = classify_ground_set(x, mode)
            o_ns, o_nsd, o_nei = oracle_classify(
                x.base.elements, distinct=mode is SummandMode.DISTINCT_LABELS
            )
            assert {frozenset(s.elements) for s in cls.non_sumsets} == o_ns
            assert {frozenset(s.elements) for s in cls.non_summands} == o_nsd
            assert {frozenset(s.elements) for s in cls.neither} == o_nei
            # The oracle compares sets; each family's order is (size, elements).
            for family in (cls.non_sumsets, cls.non_summands, cls.neither):
                assert list(family) == sorted(family, key=lambda s: (len(s), s.elements)), x


class TestCanonicalization:
    def test_family_enumeration(self):
        family = enumerate_canonical_ground_sets(2, 8)
        assert family == [GroundSet.of(0, 1)]
        family3 = enumerate_canonical_ground_sets(3, 4)
        assert GroundSet.of(0, 2, 4) not in family3
        assert GroundSet.of(0, 1, 4) in family3
        assert all(math.gcd(*x.base.elements) == 1 for x in family3)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="empty ground-set family"):
            enumerate_canonical_ground_sets(4, 2)


def test_zero_set_constant():
    assert ZERO_SET == iset(0)
