"""Reference answers computed by the benchmark itself.

Nothing here imports iasgl: every expected answer comes from the paper's
definitions, so a wrong verdict cannot be confirmed by the same code
that produced it. Sets of integers are held as value masks (bit v set
means v is present); a sumset A + b is then a left shift.
"""

from __future__ import annotations

import json
import math
from itertools import combinations


def value_mask(elements) -> int:
    mask = 0
    for v in elements:
        mask |= 1 << v
    return mask


def sumset_mask(a, b) -> int:
    """Value mask of {x + y : x in a, y in b}."""
    b_mask = value_mask(b)
    out = 0
    for x in a:
        out |= b_mask << x
    return out


def nonempty_subsets(elements) -> list[tuple[int, ...]]:
    elems = sorted(elements)
    return [c for r in range(1, len(elems) + 1) for c in combinations(elems, r)]


def non_summands(ground) -> set[tuple[int, ...]]:
    """Subsets A != {0} of X that are not non-trivial summands.

    A is a summand iff some nonzero b in X keeps A + b inside X: if a
    set B != {0} works, then so does {b} (or {0, b} when {b} = A) for
    any nonzero b in B.
    """
    x_mask = value_mask(ground)
    shifts = [b for b in ground if b != 0]
    out = set()
    for a in nonempty_subsets(ground):
        if a == (0,):
            continue
        a_mask = value_mask(a)
        if not any((a_mask << b) & ~x_mask == 0 for b in shifts):
            out.add(a)
    return out


def canonical_ground_sets(n: int, max_element: int) -> list[tuple[int, ...]]:
    """Ground sets {0} + (n - 1) elements <= max_element with gcd 1."""
    return [
        (0, *rest)
        for rest in combinations(range(1, max_element + 1), n - 1)
        if math.gcd(*rest) == 1
    ]


def check_graceful_document(path: str, ground, hub_degree: int | None = None) -> str | None:
    """Check a labeled document against the definition of a graceful labeling.

    Vertex labels must be distinct non-empty subsets of X, and the edge
    sumsets must realise every non-empty subset of X other than {0}
    exactly once. With hub_degree, the graph must also be a star with
    that many leaves. Returns a failure reason, or None.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        x = sorted(doc["ground_set"])
        labels = {v["id"]: tuple(sorted(v["label"])) for v in doc["vertices"]}
        edges = [tuple(e) for e in doc["edges"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable document {path}: {exc!r}"
    if x != sorted(ground):
        return f"document ground set {x} is not {sorted(ground)}"
    x_mask = value_mask(x)
    if len(set(labels.values())) != len(labels):
        return "vertex labels are not distinct"
    for vid, lab in labels.items():
        if not lab or value_mask(lab) & ~x_mask:
            return f"label of {vid} is not a non-empty subset of X"

    targets = {value_mask(s) for s in nonempty_subsets(x)} - {1}
    realised: dict[int, int] = {}
    degree = dict.fromkeys(labels, 0)
    for u, v in edges:
        if u not in labels or v not in labels:
            return f"edge {u}-{v} has an unlabeled endpoint"
        degree[u] += 1
        degree[v] += 1
        s = sumset_mask(labels[u], labels[v])
        realised[s] = realised.get(s, 0) + 1
    if len(edges) != (1 << len(x)) - 2:
        return f"{len(edges)} edges, expected {(1 << len(x)) - 2}"
    if set(realised) != targets or any(c != 1 for c in realised.values()):
        missing = len(targets - set(realised))
        extra = sum(1 for s in realised if s not in targets)
        repeated = sum(1 for c in realised.values() if c > 1)
        return (f"edge labels are not the targets once each: {missing} missing, "
                f"{extra} outside the targets, {repeated} repeated")
    if hub_degree is not None:
        degrees = sorted(degree.values())
        if degrees != [1] * hub_degree + [hub_degree]:
            return f"graph is not the star with {hub_degree} leaves"
    return None
