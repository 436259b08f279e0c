"""The one JSON writer: ``_jsonout.dumps`` is
``json.dumps(obj, indent=2, sort_keys=True)`` byte for byte."""

import enum
import json
import sys
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from iasgl._jsonout import BIG_INT_BITS, _big_int, dumps


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


@pytest.fixture
def no_digit_limit():
    """Lift the interpreter's int-to-decimal digit limit, where it exists,
    so that ``str()`` of a huge int can serve as the reference."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    yield
    if limit:
        sys.set_int_max_str_digits(limit)


# Non-ASCII, control characters, quotes, backslashes and lone surrogates.
texts = st.text(st.characters(blacklist_categories=()), max_size=6)
ints = st.integers(-(10**30), 10**30)
scalars = st.one_of(
    ints, st.booleans(), st.none(), st.floats(allow_nan=True, allow_infinity=True), texts
)
int_lists = st.lists(ints, max_size=5)
str_lists = st.lists(texts, max_size=5)
# Lists of dicts with one key set take the column-wise path.
same_key_dicts = st.lists(texts, min_size=1, max_size=3, unique=True).flatmap(
    lambda keys: st.lists(st.fixed_dictionaries({k: scalars | int_lists for k in keys}),
                          max_size=6)
)
values = st.recursive(
    scalars | int_lists | str_lists | same_key_dicts,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(texts, children, max_size=5),
        st.lists(int_lists | str_lists, max_size=5),
    ),
    max_leaves=40,
)


class TestSameText:
    @given(obj=values)
    @settings(max_examples=400, deadline=None)
    def test_equals_the_stdlib_indent_path(self, obj):
        assert dumps(obj) == reference(obj)

    @pytest.mark.parametrize("obj", [
        [], {}, (), [[]], [{}], [[], [1]], [[1], []], [{}, {}], [{"a": 1}, {"a": 2}, {"b": 3}],
        [True, False, 1, 0], [[True], [1]], [1, 2.0], {"k": [None, "x", 3]},
        [{"a": [1, 2], "b": "x"}, {"a": [], "b": "y"}, {"a": [3], "b": None}],
        "\x00\x1f\"\\é \U0001f600\ud800", -0.0, float("nan"), -float("inf"),
    ])
    def test_edge_cases(self, obj):
        assert dumps(obj) == reference(obj)

    def test_keys_left_to_json(self):
        class Key(str):
            pass

        class Count(enum.IntEnum):
            ONE = 1

        for obj in ({10: "a", 9: "b"}, {2.5: 0, 1.5: 1}, {None: 1}, {True: 0},
                    {Key("b"): 1, Key("a"): 2}, [Count.ONE, 2], {"x": Count.ONE}):
            assert dumps(obj) == reference(obj)

    @pytest.mark.parametrize("obj", [{"a": 1, 2: 3}, [object()], {"x": {1, 2}}])
    def test_same_error_as_json(self, obj):
        with pytest.raises(TypeError) as ours:
            dumps(obj)
        with pytest.raises(TypeError) as theirs:
            reference(obj)
        assert str(ours.value) == str(theirs.value)

    def test_cycle_is_jsons_error(self):
        obj: list = [1]
        obj.append(obj)
        with pytest.raises(ValueError, match="Circular reference"):
            dumps(obj)


class TestHugeInts:
    def test_factorial_above_the_threshold(self, no_digit_limit):
        n = factorial(20000)
        assert n.bit_length() > BIG_INT_BITS
        assert dumps(n) == str(n)
        assert dumps(-n) == str(-n)
        assert dumps({"labelings": n, "x": [n, 1]}) == reference({"labelings": n, "x": [n, 1]})

    @pytest.mark.parametrize("bits", [129, 1000, BIG_INT_BITS, BIG_INT_BITS + 1, 3 * BIG_INT_BITS])
    def test_powers_of_two_and_their_neighbours(self, bits, no_digit_limit):
        for n in ((1 << bits) - 1, 1 << bits, (1 << bits) + 1):
            assert _big_int(n) == str(n)
            assert dumps(n) == str(n)

    def test_conversion_ignores_the_digit_limit(self):
        # Only ints of at most 128 bits are ever turned into Decimals.
        n = factorial(20000)
        with_limit = dumps(n)
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            assert with_limit == str(n)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
