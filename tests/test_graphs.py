"""Graph model, family generators, and free-tree enumeration."""

import pytest

from iasgl.graphs import (
    Graph,
    enumerate_free_trees,
    family_edge_count,
    generate,
    pendant_vertices,
)

from conftest import is_bipartite, is_isomorphic, prufer_trees

# Free trees per vertex count, the classic sequence.
FREE_TREE_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}


class TestGraphValidation:
    def test_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            Graph.from_edges(["a"], [("a", "a")])

    def test_rejects_isolated_vertex(self):
        with pytest.raises(ValueError, match="isolated"):
            Graph.from_edges(["a", "b", "c"], [("a", "b")])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError, match="endpoint"):
            Graph.from_edges(["a", "b"], [("a", "z")])

    def test_parallel_edges_collapse(self):
        g = Graph.from_edges(["a", "b"], [("a", "b"), ("b", "a")])
        assert g.edge_count() == 1


class TestGenerate:
    def test_star(self):
        g = generate("star", 6)
        assert len(g.vertex_ids) == 7
        assert g.edge_count() == 6
        assert sorted(g.degree(v) for v in g.vertex_ids) == [1] * 6 + [6]

    def test_cycle_triangle(self):
        g = generate("cycle", 3)
        assert g.edge_count() == 3
        assert all(g.degree(v) == 2 for v in g.vertex_ids)

    def test_complete(self):
        assert generate("complete", 4).edge_count() == 6

    def test_path(self):
        g = generate("path", 4)
        assert g.edge_count() == 3
        assert pendant_vertices(g) == ["v0", "v3"]

    def test_deterministic(self):
        assert generate("star", 5) == generate("star", 5)

    @pytest.mark.parametrize(
        "kind,size", [("star", 0), ("path", 1), ("cycle", 2), ("complete", 1)]
    )
    def test_size_minimums(self, kind, size):
        with pytest.raises(ValueError):
            generate(kind, size)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown graph kind"):
            generate("wheel", 5)
        with pytest.raises(ValueError, match="unknown graph kind"):
            family_edge_count("wheel", 5)

    @pytest.mark.parametrize("kind,low", [("star", 1), ("path", 2), ("cycle", 3), ("complete", 2)])
    def test_edge_count_from_spec(self, kind, low):
        for size in range(low, low + 12):
            assert family_edge_count(kind, size) == generate(kind, size).edge_count()


class TestPendantsAndBipartite:
    def test_star_leaves(self):
        assert len(pendant_vertices(generate("star", 6))) == 6

    def test_cycle_has_none(self):
        assert pendant_vertices(generate("cycle", 5)) == []

    def test_even_cycle_bipartite(self):
        assert is_bipartite(generate("cycle", 4))

    def test_odd_cycle_not(self):
        assert not is_bipartite(generate("cycle", 3))

    def test_stars_bipartite(self):
        assert is_bipartite(generate("star", 7))

    def test_disconnected_traversal(self):
        g = Graph.from_edges(["a", "b", "c", "d", "e"],
                             [("a", "b"), ("c", "d"), ("d", "e"), ("e", "c")])
        assert not is_bipartite(g)


class TestFreeTrees:
    @pytest.mark.parametrize("m,count", sorted(FREE_TREE_COUNTS.items()))
    def test_counts(self, m, count):
        assert len(enumerate_free_trees(m)) == count

    def test_all_are_trees(self):
        for m in range(2, 8):
            for t in enumerate_free_trees(m):
                assert len(t.vertex_ids) == m
                assert t.edge_count() == m - 1
                assert is_bipartite(t)  # trees are bipartite; also checks traversal

    def test_pairwise_non_isomorphic_up_to_7(self):
        for m in range(2, 8):
            trees = enumerate_free_trees(m)
            for i, t1 in enumerate(trees):
                for t2 in trees[i + 1:]:
                    assert not is_isomorphic(t1, t2)

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_complete_against_prufer(self, m):
        """Every labeled tree is isomorphic to exactly one representative."""
        reps = enumerate_free_trees(m)
        for edges in prufer_trees(m):
            g = Graph.from_edges([f"v{i}" for i in range(m)],
                                 [(f"v{u}", f"v{v}") for u, v in edges])
            matches = sum(1 for rep in reps if is_isomorphic(g, rep))
            assert matches == 1

    def test_cap(self):
        with pytest.raises(ValueError):
            enumerate_free_trees(11)
        with pytest.raises(ValueError):
            enumerate_free_trees(1)

    def test_deterministic(self):
        first = [g.sorted_edges() for g in enumerate_free_trees(7)]
        second = [g.sorted_edges() for g in enumerate_free_trees(7)]
        assert first == second


class TestIsomorphism:
    def test_path_vs_star(self):
        assert not is_isomorphic(generate("path", 4), generate("star", 3))

    def test_relabeled_cycle(self):
        g1 = generate("cycle", 5)
        g2 = Graph.from_edges(
            ["a", "b", "c", "d", "e"],
            [("a", "c"), ("c", "e"), ("e", "b"), ("b", "d"), ("d", "a")],
        )
        assert is_isomorphic(g1, g2)

    def test_same_degree_sequence_not_isomorphic(self):
        # C_6 versus two triangles: both 2-regular on six vertices.
        g1 = generate("cycle", 6)
        g2 = Graph.from_edges(
            ["a", "b", "c", "d", "e", "f"],
            [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "f"), ("f", "d")],
        )
        assert not is_isomorphic(g1, g2)
