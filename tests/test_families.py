"""Family constructors and enumerators.

Tree counts are pinned to the published counts of OEIS A000055; acceptance
criterion 8 checks the trees themselves against every decoded Prufer
sequence. Connected-graph and clique-tree enumeration are cross-checked
against brute subset enumeration with canonical dedup over all vertex
permutations, from oracle.py.
"""

import hashlib
import itertools

import pytest
from oracle import brute_connected_classes, graph_canon, is_clique_tree, is_connected, neighbours

from blockspectra import families
from blockspectra import (
    GraphError,
    are_isomorphic,
    block_decomposition,
    broom,
    clique_path,
    clique_star,
    complete_graph,
    diameter,
    enumerate_clique_trees,
    enumerate_connected_graphs,
    enumerate_trees,
    format_edge_list,
    from_edge_list,
    parse_family_spec,
    path_graph,
    random_clique_tree,
)


class TestConstructors:
    def test_clique_path_examples(self):
        assert are_isomorphic(clique_path((2, 2, 2, 2)), path_graph(5))
        bowtie = clique_path((3, 3))
        assert bowtie.n == 5 and len(bowtie.edges) == 6
        assert sorted(len(b) for b in block_decomposition(bowtie).blocks) == [3, 3]
        assert are_isomorphic(clique_path((4,)), complete_graph(4))

    def test_clique_path_rejects_small_sizes(self):
        with pytest.raises(GraphError):
            clique_path((1, 3))
        with pytest.raises(GraphError):
            clique_path(())

    def test_clique_path_all_twos_is_path(self):
        for k in range(1, 7):
            assert are_isomorphic(clique_path((2,) * k), path_graph(k + 1))

    def test_clique_star_examples(self):
        g = clique_star((2, 2, 2), 2, 2)
        assert g.n == 6
        assert are_isomorphic(g, broom(6))
        assert clique_star((3,), 3, 3).n == 7

    def test_clique_star_all_twos_is_broom(self):
        # s = n - 1 blocks, all edges
        for k in range(1, 5):
            g = clique_star((2,) * k, 2, 2)
            n = k + 3
            assert g.n == n
            assert len(block_decomposition(g).blocks) == n - 1
            assert are_isomorphic(g, broom(n))

    def test_clique_star_two_adjacent_cuts_diameter_3(self):
        for ends, bridge, last in [((2, 2), 2, 3), ((3,), 4, 2), ((2, 3, 4), 3, 3)]:
            g = clique_star(ends, bridge, last)
            cuts = sorted(block_decomposition(g).cut_vertices)
            assert len(cuts) == 2
            assert cuts[1] in neighbours(g)[cuts[0]]
            assert diameter(g) == 3
            assert is_clique_tree(g)

    def test_broom(self):
        assert are_isomorphic(broom(4), path_graph(4))
        chair = broom(5)
        assert diameter(chair) == 3
        assert sorted(map(len, neighbours(chair))) == [1, 1, 1, 2, 3]
        with pytest.raises(GraphError):
            broom(3)

    def test_clique_star_rejections(self):
        with pytest.raises(GraphError):
            clique_star((), 3, 3)  # no end clique at w
        for ends, bridge, last in [((1, 3), 3, 3), ((3,), 1, 3), ((3,), 3, 1)]:
            with pytest.raises(GraphError):
                clique_star(ends, bridge, last)


class TestEnumerateTrees:
    def test_counts_match_oeis_a000055(self):
        counts = [sum(1 for _ in enumerate_trees(n)) for n in range(1, 13)]
        assert counts == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]

    def test_outputs_are_trees(self):
        for n in range(1, 9):
            for g in enumerate_trees(n):
                assert g.n == n
                assert len(g.edges) == n - 1
                assert is_connected(g)

    def test_duplicate_free(self):
        for n in range(1, 9):
            ts = list(enumerate_trees(n))
            for a, b in itertools.combinations(ts, 2):
                assert not are_isomorphic(a, b)

    def test_bounds(self):
        with pytest.raises(GraphError):
            list(enumerate_trees(0))
        with pytest.raises(GraphError):
            list(enumerate_trees(13))


class TestEnumerateConnected:
    def test_against_brute_canonical_forms(self):
        for n in range(1, 6):
            ours = list(enumerate_connected_graphs(n))
            oracle = brute_connected_classes(n)
            assert len(ours) == len(oracle)
            assert {graph_canon(g) for g in ours} == oracle

    def test_count_n6(self):
        assert sum(1 for _ in enumerate_connected_graphs(6)) == 112

    def test_duplicate_free_n5(self):
        gs = list(enumerate_connected_graphs(5))
        for a, b in itertools.combinations(gs, 2):
            assert not are_isomorphic(a, b)

    def test_count_and_order_n8(self):
        """Order 8, past the public cap: 11117 classes (OEIS A001349), in the
        order and with the representatives that canonicalising each child on
        its own gave."""
        classes = families._grown_classes(8, True)
        assert len(classes) == 11117
        text = "".join(format_edge_list(g) for g in classes)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2e95d31fc745a58c00b4c7907b0f78a6f943ac0be32a3b812c0ff5e81de9f2f5"
        )


class TestEnumerateCliqueTrees:
    def test_examples(self):
        only = list(enumerate_clique_trees(4, 1))
        assert len(only) == 1 and are_isomorphic(only[0], complete_graph(4))
        assert len(list(enumerate_clique_trees(4, 3))) == 2
        two = list(enumerate_clique_trees(4, 2))
        assert len(two) == 1
        assert sorted(len(b) for b in block_decomposition(two[0]).blocks) == [2, 3]

    def test_against_brute_filter(self):
        for n in range(2, 6):
            by_s = {}
            for canon in brute_connected_classes(n):
                g = from_edge_list(canon[0], list(canon[1]))
                if is_clique_tree(g):
                    d = block_decomposition(g)
                    by_s.setdefault(len(d.blocks), set()).add(canon)
            for s in range(1, n):
                ours = list(enumerate_clique_trees(n, s))
                oracle = by_s.get(s, set())
                assert len(ours) == len(oracle), (n, s)
                assert {graph_canon(g) for g in ours} == oracle

    def test_matches_trees_at_max_s(self):
        for n in range(2, 8):
            ct = list(enumerate_clique_trees(n, n - 1))
            ts = list(enumerate_trees(n))
            assert len(ct) == len(ts)
            for g in ct:
                assert any(are_isomorphic(g, t) for t in ts)

    def test_infeasible_rejected(self):
        with pytest.raises(GraphError):
            list(enumerate_clique_trees(3, 5))
        with pytest.raises(GraphError):
            list(enumerate_clique_trees(4, 0))


class TestEnumerationOrder:
    """Every report's bytes follow the enumerators' output order and their
    first-seen representatives, so both are pinned here."""

    @staticmethod
    def digest(graphs):
        text = "".join(format_edge_list(g) for g in graphs)
        return hashlib.sha256(text.encode()).hexdigest()

    def test_connected_n7(self):
        assert self.digest(enumerate_connected_graphs(7)) == (
            "d1c8a2a9708e2b1bd73b67d57fd3229f58bb3f340cf62135c7dabed343504d86"
        )

    def test_trees_n12(self):
        assert self.digest(enumerate_trees(12)) == (
            "c58547284289b81ece7d433a69ccf48e31ddee67cf7dda4f8655f946d5455d08"
        )

    def test_clique_trees_n10_all_s(self):
        graphs = (g for s in range(1, 10) for g in enumerate_clique_trees(10, s))
        assert self.digest(graphs) == (
            "c1e4bf9c46567b7d17937abd3b4a2cecaed9e450cf564898d150f241e9730e88"
        )

    def test_clique_trees_every_order_and_s(self):
        graphs = (g for n in range(1, 12) for g in enumerate_clique_trees(n))
        assert self.digest(graphs) == (
            "d50137222fb007f024179cd2b4ea1fb186738cc213b918f1487421a03cff71da"
        )


class TestConstructorLabels:
    """Witness strings and the order of clique moves follow the constructors'
    vertex labels, so their labelled output is pinned here."""

    def test_labelled_output(self):
        sizes = (2, 3, 4)
        graphs = [
            clique_path(t) for k in range(1, 5) for t in itertools.product(sizes, repeat=k)
        ]
        graphs += [
            clique_star(ends, bridge, last)
            for k in range(1, 4)
            for ends in itertools.product(sizes, repeat=k)
            for bridge in sizes
            for last in sizes
        ]
        graphs += [
            random_clique_tree(n, s, seed)
            for n in range(2, 13)
            for s in range(1, n)
            for seed in range(20)
        ]
        # the two specs the benchmark's spectrum workload builds
        graphs += [
            parse_family_spec("cliquepath:" + ",".join(["8"] * 40)),
            parse_family_spec("cliquestar:" + ",".join(["10"] * 28) + ";10;10"),
        ]
        assert len(graphs) == 1793
        assert TestEnumerationOrder.digest(graphs) == (
            "dfd85ae5c46c6a8a5f883e9250250474a7c2437d75c9196231faca537821ed93"
        )


class TestRandomCliqueTree:
    def test_single_block_forced(self):
        for seed in range(5):
            assert are_isomorphic(random_clique_tree(5, 1, seed), complete_graph(5))

    def test_tree_at_max_blocks(self):
        for seed in range(10):
            g = random_clique_tree(7, 6, seed)
            assert g.n == 7 and len(g.edges) == 6 and is_connected(g)

    def test_deterministic(self):
        a = random_clique_tree(9, 4, 123)
        b = random_clique_tree(9, 4, 123)
        assert a.n == b.n and a.edges == b.edges

    def test_seed_varies_output(self):
        outs = {random_clique_tree(9, 4, seed).edges for seed in range(30)}
        assert len(outs) > 1

    def test_always_valid(self):
        for seed in range(200):
            n = 4 + seed % 7
            s = 1 + seed % n if 1 + seed % n <= n - 1 else n - 1
            g = random_clique_tree(n, s, seed)
            assert g.n == n
            assert is_clique_tree(g)
            assert len(block_decomposition(g).blocks) == s

    def test_infeasible(self):
        with pytest.raises(GraphError):
            random_clique_tree(3, 5, 0)
        with pytest.raises(GraphError):
            random_clique_tree(4, 0, 0)


class TestParseFamilySpec:
    def test_all_families(self):
        assert are_isomorphic(parse_family_spec("path:5"), path_graph(5))
        assert are_isomorphic(parse_family_spec("complete:4"), complete_graph(4))
        assert are_isomorphic(parse_family_spec("broom:6"), broom(6))
        assert are_isomorphic(parse_family_spec("cliquepath:3,3"), clique_path((3, 3)))
        assert are_isomorphic(
            parse_family_spec("cliquestar:2,2;3;2"), clique_star((2, 2), 3, 2)
        )

    def test_whitespace_and_case(self):
        assert are_isomorphic(parse_family_spec(" Path: 5 "), path_graph(5))

    def test_diagnostics(self):
        for bad in ["path", "path:", "path:x", "cliquestar:2,2;2", "foo:3", "cliquepath:1,3"]:
            with pytest.raises(GraphError):
                parse_family_spec(bad)
