"""Construct a verified graceful graph-realisation for a ground set.

The skeleton: a hub vertex v0 labeled {0}, one pendant-or-better vertex
per subset that is not a non-trivial sumset, each joined to v0. Those
edges are forced: a non-sumset target has no decomposition other than
{0} + itself, so only a v0 edge can realize it. Every remaining target
is a sumset, and drawing every compatible edge would duplicate labels,
so each remaining target gets exactly one label pair from the subset
algebra's pair table, in one greedy pass over the subset masks: targets
with fewer pairs first, and for each the pair that adds the fewest new
vertices (then the operands' element tuples, lexicographic, which is
not mask order), which keeps vertex growth lazy and the output
deterministic.

The builder's choices depend on X only through its additive type (see
``sets``): ``_build`` takes that type, works over the index set
{0..n-1} (index to element is increasing, so every order it uses is the
order of X's own subsets) and is memoised per type. Its result is the
shape a kept search witness has: the graph and its vertices' label
masks. Every call of ``build_realisation`` takes the same path:
``labeling.mapped_labeling``, the step the search's kept outcomes take
too, maps those masks onto X's own subsets and verifies the realisation
there. Each target is then the label f(u) + f(v) of exactly one edge, so
the edge labels are read off the verified labeling and never stored.

No choice is ever undone: a label pair determines its sumset, so it is
a candidate for exactly one target, and the forced pairs ({0}, s)
realize the non-sumsets, never a remaining target. Every remaining
target t keeps the pair ({0}, t), so the pass cannot fail for a valid
ground set. If X is sum-free (no x_i + x_j = x_k with i, j >= 1),
every target is a non-sumset and the hub star, which is bipartite, is
the only realisation. Otherwise the pass has closed an odd cycle on
every additive type that the canonical families reach at n <= 8.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, is_bipartite
from .labeling import Labeling, mapped_labeling
from .sets import ZERO_MASK, GroundSet, Record, additive_type, subset_algebra


class RealisationResult(Record):
    __slots__ = _fields = ("graph", "labeling")

    def __init__(self, graph: Graph, labeling: Labeling) -> None:
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "labeling", labeling)

    @property
    def non_bipartite(self) -> bool:
        """Whether the graph has an odd cycle, by a BFS of the graph."""
        return not is_bipartite(self.graph)


def build_realisation(x: GroundSet) -> RealisationResult:
    """Build and re-verify a graceful graph-realisation of X.

    The returned graph always carries exactly 2^n - 2 edges. The build
    runs once per additive type of X (see the module docstring).
    """
    if not x.contains_zero():
        raise ValueError("graceful ground set must contain 0")
    if x.n < 2:
        raise ValueError("realisation needs a ground set with at least 2 elements")
    graph, masks = _build(additive_type(x))
    return RealisationResult(graph, mapped_labeling(graph, x, masks))


@lru_cache(maxsize=32)
def _build(key: tuple[int, tuple[tuple[int, int, int], ...]]) -> tuple[Graph, tuple[int, ...]]:
    """The builder for the additive type key, in subset masks: the graph
    (vertices v0, v1, ... in order of creation) and its vertices' label
    masks in ``graph.vertex_ids`` order. Memoised per key."""
    alg = subset_algebra(key)
    # Each mask's index tuple, in mask order: the subsets with top bit i
    # are those below it with i appended. Tuples sort as their
    # IntegerSets do, without Python-level __lt__.
    sets = [()]
    for i in range(key[0]):
        sets += [s + (i,) for s in sets]
    forced = sorted(alg.class_masks()[0], key=lambda t: (len(sets[t]), sets[t]))
    rank = [0] * len(sets)
    for r, m in enumerate(sorted(range(1, len(sets)), key=sets.__getitem__)):
        rank[m] = r
    name = {ZERO_MASK: "v0"}  # label mask -> vertex name; the labels in use
    for s in forced:
        name[s] = f"v{len(name)}"
    edges = [("v0", name[s]) for s in forced]
    order = sorted(
        (t for t in range(ZERO_MASK + 1, len(sets)) if t not in name),
        key=lambda t: (len(alg.pairs[t]), len(sets[t]), sets[t]),
    )
    for t in order:
        a, b = min(
            alg.pairs[t],
            key=lambda p: ((p[0] not in name) + (p[1] not in name), rank[p[0]], rank[p[1]]),
        )
        for lab in (a, b):
            if lab not in name:
                name[lab] = f"v{len(name)}"
        edges.append((name[a], name[b]))
    graph = Graph.from_edges(name.values(), edges)
    mask_of = {v: m for m, v in name.items()}
    return graph, tuple(map(mask_of.__getitem__, graph.vertex_ids))
