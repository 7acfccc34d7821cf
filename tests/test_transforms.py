"""Clique moves and block completion."""

import random

import pytest
from oracle import cycle_graph, is_clique_tree, random_connected

from blockspectra import (
    GraphError,
    are_isomorphic,
    block_decomposition,
    clique_path,
    complement_distance_matrix,
    complete_blocks,
    complete_graph,
    diameter,
    end_cliques,
    from_edge_list,
    move_clique,
    path_graph,
    random_clique_tree,
)
from blockspectra import graphs
from blockspectra.transforms import __all__ as transforms_all


def block_sizes(g):
    return sorted(len(b) for b in block_decomposition(g).blocks)


def move(g, K, v, w):
    return move_clique(g, K, v, w, block_decomposition(g))


def complete(g):
    return complete_blocks(g, block_decomposition(g))


class TestEndCliques:
    def test_path(self):
        g = path_graph(5)
        out = end_cliques(g, block_decomposition(g))
        assert sorted((sorted(k), v) for k, v in out) == [([0, 1], 1), ([3, 4], 3)]

    def test_single_block(self):
        g = complete_graph(4)
        assert end_cliques(g, block_decomposition(g)) == []

    def test_star(self):
        g = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        out = end_cliques(g, block_decomposition(g))
        assert len(out) == 3
        assert all(v == 0 for _, v in out)


class TestMoveClique:
    def test_path_golden(self):
        g = path_graph(5)
        h = move(g, {3, 4}, 3, 1)
        assert set(h.edges) == {(0, 1), (1, 2), (2, 3), (1, 4)}

    def test_identity_when_w_equals_v(self):
        g = path_graph(5)
        assert move(g, {3, 4}, 3, 3) is g

    def test_bowtie_with_pendant_becomes_single_cut(self):
        g = from_edge_list(6, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (0, 5)])
        assert sorted(block_decomposition(g).cut_vertices) == [0, 2]
        h = move(g, {2, 3, 4}, 2, 0)
        d = block_decomposition(h)
        assert sorted(d.cut_vertices) == [0]
        assert block_sizes(h) == [2, 3, 3]

    def test_preserves_block_multiset_and_clique_tree(self):
        moves = 0
        for seed in range(60):
            g = random_clique_tree(4 + seed % 6, 2 + seed % 3, seed)
            d = block_decomposition(g)
            if len(d.cut_vertices) < 2:
                continue
            for K, v in end_cliques(g, d):
                for w in sorted(d.cut_vertices):
                    if w in K and w != v:
                        continue
                    h = move_clique(g, K, v, w, d)
                    assert h.n == g.n
                    assert is_clique_tree(h)
                    assert block_sizes(h) == block_sizes(g)
                    moves += 1
        assert moves > 50

    def test_rejections(self):
        g = path_graph(5)
        with pytest.raises(GraphError):
            move(g, {0, 2}, 0, 1)  # not a block
        with pytest.raises(GraphError):
            move(g, {1, 2}, 1, 3)  # interior block, two cut vertices
        with pytest.raises(GraphError):
            move(g, {0, 1}, 0, 3)  # v is not the end cut vertex
        with pytest.raises(GraphError):
            move(g, {0, 1}, 1, 4)  # w is not a cut vertex
        with pytest.raises(GraphError):
            move(cycle_graph(4), {0, 1}, 0, 2)  # the cycle is one block

    def test_decomposes_once(self, decompositions):
        g = clique_path((3, 2, 2, 3))
        move_clique(g, {0, 1, 2}, 2, 4, graphs.block_decomposition(g))
        assert len(decompositions) == 1


class TestCompleteBlocks:
    def test_cycle_fills_to_clique(self):
        assert complete(cycle_graph(5)).edges == complete_graph(5).edges

    def test_clique_trees_are_fixed_points(self):
        for seed in range(40):
            n = 4 + seed % 5
            g = random_clique_tree(n, min(1 + seed % 4, n - 1), seed)
            assert complete(g).edges == g.edges

    def test_two_c4_sharing_a_vertex(self):
        g = from_edge_list(
            7,
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)],
        )
        cb = complete(g)
        target = clique_path((4, 4))
        assert are_isomorphic(cb, target)
        from blockspectra import spectral_radius

        lhs = spectral_radius(g, "complement_adjacency").value
        rhs = spectral_radius(cb, "complement_adjacency").value
        assert lhs >= rhs - 1e-10
        # diameter collapses to 2 here and the shared vertex is isolated in
        # the complement, so D of the complement is undefined
        assert diameter(cb) == 2
        with pytest.raises(GraphError):
            complement_distance_matrix(cb)

    def test_idempotent_and_monotone(self):
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.randint(2, 8)
            g = random_connected(rng, n, 0.45)
            cb = complete(g)
            assert is_clique_tree(cb)
            assert set(g.edges) <= set(cb.edges)
            assert complete(cb).edges == cb.edges
            da, db = block_decomposition(g), block_decomposition(cb)
            assert sorted(map(sorted, da.blocks)) == sorted(map(sorted, db.blocks))
            assert da.cut_vertices == db.cut_vertices


def test_public_surface():
    assert set(transforms_all) == {
        "end_cliques",
        "move_clique",
        "complete_blocks",
    }
