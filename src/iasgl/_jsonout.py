"""The text of every JSON output: ``dumps(obj)`` returns exactly
``json.dumps(obj, indent=2, sort_keys=True)``.

With an indent the stdlib encodes through its pure-Python encoder, one
generator step per token. Here a container is one ``str.join`` of its
items, and values of one plain type are formatted in C-level ``map``
passes (``int.__repr__``, the C ``encode_basestring_ascii``): a list of
ints or of strings, the leaves of a list of such lists, and each column
of a list of dicts with one key set (see ``_items``). Types are checked
exactly, so a ``bool`` never takes the int path. ``bool`` and ``None``
are their JSON constants, and a ``float`` goes through ``json.dumps``.
Any other type, a dict key that is not a ``str`` and nesting too deep
to recurse raise here, and the whole object is then handed to
``json.dumps``, which gives the same text or raises its own error.
``json`` is imported only on those two paths: a command that reads no
JSON document does not import it, nor compile the regular expressions
its import compiles.

An int of more than ``BIG_INT_BITS`` bits (a search's ``labelings``
count can have hundreds of thousands of digits) is formatted by a
divide-and-conquer conversion on stdlib ``decimal``, after CPython
3.12's ``_pylong.int_to_decimal_string``: subquadratic where ``str()``
is quadratic on Python 3.10 and 3.11. ``decimal`` is imported only
then.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import itemgetter

try:
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii

#: Bit length above which an int is formatted through ``decimal``
#: (about 19,700 digits). Python 3.11.7, 2 vCPU, best of 20: the two
#: conversions take equal time near 2^33,000 and ``decimal`` is 1.4x
#: faster at 2^65,536 (5.6 against 7.9 ms) and 3.4x at 2^200,000; here
#: that gain pays for importing ``decimal`` (about 2.5 ms, once).
BIG_INT_BITS = 65_536

_BIG = 1 << BIG_INT_BITS
_INTS = {int}
_STRS = {str}
_LISTS = {list}
_DICTS = {dict}
_CONSTANTS = {None: "null", True: "true", False: "false"}


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte."""
    try:
        return _encode(obj, "\n")
    except (TypeError, RecursionError):
        # A type or key left to json (sorting mixed keys raises here
        # too), or a cycle: json gives its own text or error.
        import json

        return json.dumps(obj, indent=2, sort_keys=True)


def _encode(o, nl: str) -> str:
    """The text of o, whose line breaks are followed by ``nl``'s indent."""
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is int:
        return int.__repr__(o) if -_BIG < o < _BIG else _big_int(o)
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join(_items(o, inner)) + nl + "]"
    if t is dict:
        if not o:
            return "{}"
        keys = sorted(o)
        if set(map(type, keys)) != _STRS:
            raise TypeError("a key that is not a str")
        inner = nl + "  "
        items = _items(list(map(o.__getitem__, keys)), inner)
        pairs = map("{}: {}".format, map(encode_basestring_ascii, keys), items)
        return "{" + inner + ("," + inner).join(pairs) + nl + "}"
    if o is None or t is bool:
        return _CONSTANTS[o]
    if t is float:
        import json

        return json.dumps(o)
    raise TypeError(f"a value of type {t.__name__}")


def _items(values, inner: str):
    """The texts of a container's values, each at the indent ``inner``.

    Values of one plain type are formatted in C-level passes: ints by
    ``int.__repr__`` and strings by ``encode_basestring_ascii``; so are
    the leaves of non-empty lists that hold only such values, and each
    column of dicts that share one key set.
    """
    kinds = set(map(type, values))
    leaves = _leaves(values, kinds)
    if leaves is not None:
        return leaves
    if kinds == _LISTS and all(values):
        flat = list(chain.from_iterable(values))
        leaves = _leaves(flat, set(map(type, flat)))
        if leaves is not None:
            deeper = inner + "  "
            sep, it = "," + deeper, iter(leaves)
            return ["[" + deeper + sep.join(islice(it, n)) + inner + "]" for n in map(len, values)]
    if kinds == _DICTS and len(set(map(frozenset, values))) == 1:
        keys = sorted(values[0])
        # One pass per key pays when there are fewer keys than dicts.
        if 0 < len(keys) < len(values) and set(map(type, keys)) == _STRS:
            deeper = inner + "  "
            columns = [
                map((encode_basestring_ascii(k) + ": ").__add__,
                    _items(list(map(itemgetter(k), values)), deeper))
                for k in keys
            ]
            rows = map(("," + deeper).join, zip(*columns))
            return map(("{{" + deeper + "{}" + inner + "}}").format, rows)
    return [_encode(v, inner) for v in values]


def _leaves(values, kinds: set):
    """``int.__repr__`` or ``encode_basestring_ascii`` mapped over
    values, when they are all ints below ``BIG_INT_BITS`` bits or all
    strings; else None."""
    if kinds == _INTS and -_BIG < min(values) and max(values) < _BIG:
        return map(int.__repr__, values)
    if kinds == _STRS:
        return map(encode_basestring_ascii, values)
    return None


def _big_int(n: int) -> str:
    """The decimal digits of n, in subquadratic time: a w-bit m is
    split into hi * 2^half + lo, each part converted on its own, and the
    parts joined in ``decimal`` arithmetic, whose multiplication of large
    operands is subquadratic. Each power 2^w is computed once."""
    import decimal

    D = decimal.Decimal
    powers: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:
        p = powers.get(w)
        if p is None:
            if w <= 128:
                p = D(1 << w)
            elif w - 1 in powers:
                p = powers[w - 1] * 2
            else:
                half = w >> 1
                p = power(half) * power(w - half)
            powers[w] = p
        return p

    def convert(m: int, w: int) -> decimal.Decimal:
        if w <= 128:
            return D(m)
        half = w >> 1
        hi = m >> half
        return convert(m - (hi << half), half) + convert(hi, w - half) * power(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        digits = str(convert(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits
