"""Realisation builder: exact label assignment, verified outputs."""

import contextlib
import hashlib
import io
import itertools
import json

import pytest

from iasgl.graphs import Graph, is_bipartite, pendant_vertices
from iasgl.labeling import graceful_targets, verify_iasgl
from iasgl.io import load_document
from iasgl.cli import main
from iasgl.realisation import _build, build_realisation
from iasgl.search import search_iasgl
from iasgl.sets import (
    ZERO_MASK,
    GroundSet,
    IntegerSet,
    additive_type,
    classify_ground_set,
    enumerate_canonical_ground_sets,
    subset_algebra,
    subsets_by_mask,
    sumset,
)

from conftest import clear_result_caches, iset, naive_sumset, nonempty_subsets, zero_vertex


def oracle_all_realisations(elements):
    """Every exact assignment completion over the forced skeleton, by
    raw enumeration: forced edges hang the non-sumset labels on the hub,
    every remaining target picks any unordered label pair summing to it,
    no edge reused. Returns (bipartite_exists, nonbipartite_exists)."""
    ground = frozenset(elements)
    zero = frozenset({0})
    subsets = nonempty_subsets(elements)
    targets = [s for s in subsets if s != zero]
    non_sumsets = {
        c
        for c in targets
        if not any(
            naive_sumset(a, b) == c
            for a in subsets
            for b in subsets
            if a != zero and b != zero and a != b
        )
    }
    unfixed = [t for t in targets if t not in non_sumsets]
    pair_options = []
    for t in unfixed:
        pairs = [
            frozenset((a, b))
            for a, b in itertools.combinations(subsets, 2)
            if naive_sumset(a, b) == t
        ]
        pair_options.append(pairs)

    fixed_edges = {frozenset((zero, s)) for s in non_sumsets}
    bip = nonbip = False
    for choice in itertools.product(*pair_options):
        if len(set(choice)) != len(choice) or set(choice) & fixed_edges:
            continue
        edges = list(fixed_edges) + list(choice)
        vertices = sorted({v for e in edges for v in e}, key=sorted)
        index = {v: i for i, v in enumerate(vertices)}
        adj = {i: set() for i in range(len(vertices))}
        for e in edges:
            u, v = tuple(e)
            adj[index[u]].add(index[v])
            adj[index[v]].add(index[u])
        color = {}
        bipartite = True
        for start in adj:
            if start in color:
                continue
            color[start] = 0
            stack = [start]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in color:
                        color[w] = color[u] ^ 1
                        stack.append(w)
                    elif color[w] == color[u]:
                        bipartite = False
        if bipartite:
            bip = True
        else:
            nonbip = True
    return bip, nonbip


def backtracking_solutions(alg, sets, order, pool, node_budget=200_000):
    """The builder's assignment as first written: exact assignments as
    tuples of mask pairs, one per target of order, from an explicit
    stack of (candidate list, cursor) frames. Candidates are ordered by
    the number of new labels, then by the operands' rank as sets. The
    node budget only ends the scan once a solution has been yielded."""
    ranked = sorted(range(1, len(sets)), key=sets.__getitem__)
    rank = [0] * len(sets)
    for r, m in enumerate(ranked):
        rank[m] = r

    def candidates(target):
        return sorted(
            alg.pairs[target],
            key=lambda p: ((p[0] not in pool) + (p[1] not in pool), rank[p[0]], rank[p[1]]),
        )

    if not order:
        yield ()
        return
    chosen, added = [], []
    stack = [[candidates(order[0]), 0]]
    nodes = 0
    yielded = False
    while stack:
        frame = stack[-1]
        if len(chosen) == len(stack):  # undo this frame's previous choice
            pool.difference_update(added.pop())
            chosen.pop()
        cands, cursor = frame
        if cursor == len(cands):
            stack.pop()
            continue
        nodes += 1
        if nodes > node_budget and yielded:
            return
        frame[1] = cursor + 1
        a, b = cands[cursor]
        new = tuple(lab for lab in (a, b) if lab not in pool)
        pool.update(new)
        added.append(new)
        chosen.append((a, b))
        if len(chosen) == len(order):
            yielded = True
            yield tuple(chosen)
        else:
            stack.append([candidates(order[len(chosen)]), 0])


def backtracking_build(key, prefer_nonbipartite, solution_cap=2_000):
    """The builder as first written, for the additive type key: the first
    backtracking solution, or with prefer_nonbipartite the first of up to
    solution_cap solutions whose graph has an odd cycle, projected onto
    ``_build``'s (graph, label masks in vertex_ids order). The one-pass
    ``_build`` must return exactly this under either flag value."""
    alg = subset_algebra(key)
    sets = subsets_by_mask(GroundSet.of(*range(key[0])))
    forced = sorted(alg.class_masks()[0], key=lambda t: (len(sets[t]), sets[t]))
    forced_set = set(forced)
    order = sorted(
        (t for t in range(ZERO_MASK + 1, len(sets)) if t not in forced_set),
        key=lambda t: (len(alg.pairs[t]), len(sets[t]), sets[t]),
    )

    def materialize(solution):
        name = {ZERO_MASK: "v0"}
        for s in forced:
            name[s] = f"v{len(name)}"
        trace = [(s, ("v0", name[s])) for s in forced]
        for t, (a, b) in zip(order, solution):
            for lab in (a, b):
                if lab not in name:
                    name[lab] = f"v{len(name)}"
            trace.append((t, tuple(sorted((name[a], name[b])))))
        trace.sort(key=lambda step: (len(sets[step[0]]), sets[step[0]]))
        graph = Graph.from_edges(name.values(), [e for _, e in trace])
        return graph, tuple(zip(name.values(), name)), tuple(trace), not is_bipartite(graph)

    result = None
    for scanned, sol in enumerate(backtracking_solutions(alg, sets, order, {ZERO_MASK, *forced}), 1):
        built = materialize(sol)
        if result is None or built[3]:
            result = built
        if not prefer_nonbipartite or built[3] or scanned >= solution_cap:
            break
    graph, labels, _, _ = result
    mask_of = dict(labels)
    return graph, tuple(mask_of[v] for v in graph.vertex_ids)


class TestBuildRealisation:
    def test_x01_forces_star_k12(self, x01):
        r = build_realisation(x01)
        assert len(r.graph.vertex_ids) == 3
        assert r.graph.edge_count() == 2
        # No odd cycle is possible: both targets are forced onto the hub.
        assert not r.non_bipartite

    def test_x0123_realisation_closes_a_triangle(self, x0123):
        r = build_realisation(x0123)
        assert len(r.graph.vertex_ids) == 9
        assert r.graph.edge_count() == 14
        assert r.non_bipartite
        labels = {r.labeling.label_of(v): v for v in r.graph.vertex_ids}
        tri = [labels[iset(0)], labels[iset(1)], labels[iset(2)]]
        for u, v in itertools.combinations(tri, 2):
            assert tuple(sorted((u, v))) in r.graph.edges

    def test_x0123_vertex_labels(self, x0123):
        r = build_realisation(x0123)
        got = {str(r.labeling.label_of(v)) for v in r.graph.vertex_ids}
        assert got == {
            "{0}", "{1}", "{2}", "{0,1}", "{0,2}", "{0,3}",
            "{0,1,2}", "{0,1,3}", "{0,2,3}",
        }

    def test_x012_honest_bipartiteness_flag(self, x012):
        """The exhaustive oracle decides whether an odd cycle is
        reachable; the builder's flag must agree. At X = {0,1,2} both
        shapes are realizable and the builder closes an odd cycle; at
        X = {0,1,3} (sum-free) only the bipartite hub star exists."""
        bip_exists, nonbip_exists = oracle_all_realisations((0, 1, 2))
        assert bip_exists and nonbip_exists  # both shapes are realizable
        r = build_realisation(x012)
        assert r.non_bipartite == nonbip_exists
        assert verify_iasgl(r.graph, r.labeling).passed
        bip_exists, nonbip_exists = oracle_all_realisations((0, 1, 3))
        assert bip_exists and not nonbip_exists
        r = build_realisation(GroundSet.of(0, 1, 3))
        assert r.non_bipartite == nonbip_exists
        assert verify_iasgl(r.graph, r.labeling).passed

    def test_non_bipartite_iff_x_has_a_sum(self):
        """The realisation has an odd cycle exactly when X has a sum
        x_i + x_j = x_k with i, j >= 1; a sum-free X gets the hub star."""
        for n in range(2, 6):
            for x in enumerate_canonical_ground_sets(n, 10):
                has_sum = any(i >= 1 for i, _, _ in additive_type(x)[1])
                assert build_realisation(x).non_bipartite == has_sum, x

    def test_one_pass_matches_backtracking_reference(self):
        """The one greedy pass builds, for every additive type of the
        canonical families n = 2..6, exactly what the backtracking builder
        returned, with and without its scan for an odd cycle."""
        limits = {2: 1, 3: 12, 4: 20, 5: 16, 6: 14}
        keys = {additive_type(x) for n, m in limits.items() for x in enumerate_canonical_ground_sets(n, m)}
        assert len(keys) == 318
        for key in sorted(keys):
            built = _build(key)
            assert built == backtracking_build(key, False) == backtracking_build(key, True), key

    def test_trace_covers_every_target_once(self, x0123):
        # Over {0,1,2,3} the index set is X itself, so the built masks
        # name X's subsets; each edge's endpoint labels sum to one target.
        graph, masks = _build(additive_type(x0123))
        sets = subsets_by_mask(x0123)
        label = dict(zip(graph.vertex_ids, masks))
        traced = [sumset(sets[label[u]], sets[label[v]]) for u, v in graph.edges]
        assert sorted(traced, key=lambda s: (len(s), s.elements)) == sorted(
            graceful_targets(x0123), key=lambda s: (len(s), s.elements)
        )
        assert len(traced) == graph.edge_count() == (1 << x0123.n) - 2

    @pytest.mark.parametrize("n,max_element", [(2, 10), (3, 10), (4, 10), (5, 10)])
    def test_succeeds_and_reverifies_for_all_canonical(self, n, max_element):
        for x in enumerate_canonical_ground_sets(n, max_element):
            r = build_realisation(x)
            assert verify_iasgl(r.graph, r.labeling).passed
            assert r.graph.edge_count() == (1 << n) - 2
            assert r.non_bipartite == (not is_bipartite(r.graph))

    @pytest.mark.parametrize("prefer_nonbipartite", [False, True])
    def test_search_finds_a_labeling_of_every_realisation(self, prefer_nonbipartite):
        """Metamorphic: a realisation of X is a graph that admits over X,
        so the search (gate and every pruning rule on) must find one. The
        realisation is the one the backtracking reference builds under
        either value of its former prefer_nonbipartite flag."""
        for n in range(2, 6):
            for x in enumerate_canonical_ground_sets(n, 8):
                r = build_realisation(x)
                key = additive_type(x)
                assert _build(key) == backtracking_build(key, prefer_nonbipartite), x
                assert search_iasgl(r.graph, x).found, x

    def test_pendant_placement(self, x0123):
        r = build_realisation(x0123)
        cls = classify_ground_set(x0123)
        v0 = zero_vertex(r.graph, r.labeling)
        pendants = set(pendant_vertices(r.graph))
        assert len(pendants) >= len(cls.neither) >= x0123.n - 1
        for s in cls.neither:
            vid = next(v for v in r.graph.vertex_ids if r.labeling.label_of(v) == s)
            assert vid in pendants
            assert r.graph.neighbors(vid) == (v0,)

    def test_requires_zero_and_size(self):
        with pytest.raises(ValueError, match="must contain 0"):
            build_realisation(GroundSet.of(1, 2))
        with pytest.raises(ValueError, match="at least 2"):
            build_realisation(GroundSet.of(0))

    def test_deterministic(self, x0123):
        a = build_realisation(x0123)
        clear_result_caches()  # built again, not mapped from a's build
        b = build_realisation(x0123)
        assert a.graph == b.graph
        assert a.labeling == b.labeling

    def test_one_build_per_additive_type(self, x0123):
        import iasgl.realisation

        x0246 = GroundSet.of(0, 2, 4, 6)
        a, b = build_realisation(x0123), build_realisation(x0246)
        assert iasgl.realisation._build.cache_info().misses == 1
        assert a.graph is b.graph
        for x, r in ((x0123, a), (x0246, b)):
            assert r.labeling.ground == x
            assert verify_iasgl(r.graph, r.labeling).passed
        for v in a.graph.vertex_ids:
            assert b.labeling.label_of(v) == iset(*(2 * e for e in a.labeling.label_of(v)))

    def test_construct_output_pinned(self):
        """The CLI construct JSON for every canonical X with n <= 5 and
        max <= 8 hashes to a pinned digest, so any change to the vertex
        order, edge choice or trace shows. Each output is hashed twice,
        once for each value of the former --prefer-nonbipartite flag,
        which returned the same bytes, so the digest is the one pinned
        while the flag existed."""
        digest = hashlib.sha256()
        for n in range(2, 6):
            for x in enumerate_canonical_ground_sets(n, 8):
                argv = ["construct", "--ground-set", ",".join(map(str, x.base.elements))]
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    assert main(argv) == 0
                digest.update(2 * buf.getvalue().encode())
        assert digest.hexdigest() == (
            "04694305f3cd058c9bbd1ae2156caef0131c149343c8a6c41d0247212a2dc094"
        )

    def test_construct_trace_is_the_documents_edge_labels(self, tmp_path):
        """construct --out prints, as its trace, exactly the written
        document's edge labels inverted: each target maps to the one edge
        whose label it is."""
        path = tmp_path / "r.json"
        family = [x for n in range(2, 6) for x in enumerate_canonical_ground_sets(n, 8)]
        for x in family + [GroundSet.of(0, 1, 3, 10**18)]:
            argv = ["construct", "--ground-set", ",".join(map(str, x.base.elements)),
                    "--out", str(path)]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv) == 0
            trace = json.loads(buf.getvalue())["trace"]
            doc = json.loads(path.read_text())
            inverted = {str(IntegerSet(tuple(lab))): edge.split("--")
                        for edge, lab in doc["edge_labels"].items()}
            assert trace == inverted, x
            assert len(trace) == (1 << x.n) - 2
            assert load_document(path).to_graph().edges == {tuple(e) for e in trace.values()}
