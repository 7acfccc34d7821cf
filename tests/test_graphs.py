"""Graph core: construction, metrics, blocks, isomorphism.

Oracles used here are independent of the implementation under test:
Floyd-Warshall and a queue BFS for distances, delete-and-probe for cut
vertices, a search over every vertex subset for blocks, full permutation
search for isomorphism and automorphisms, and colour refinement by sorted
neighbour-colour tuples for the stacked cell refinement. Forms found in a
batch are checked against canonical_form run alone, a batch of one.
"""

import collections
import hashlib
import itertools
import math
import random
import warnings

import numpy as np
import pytest
from conftest import is_clique_tree, is_connected, neighbours

from blockspectra import families, graphs
from blockspectra import (
    GraphError,
    are_isomorphic,
    bfs_distances,
    block_decomposition,
    canonical_form,
    clique_star,
    complement,
    complement_distance_matrix,
    complete_graph,
    diameter,
    enumerate_clique_trees,
    enumerate_connected_graphs,
    enumerate_trees,
    format_edge_list,
    from_edge_list,
    parse_edge_list,
    parse_family_spec,
    path_graph,
)


def floyd_warshall(g):
    d = [[0 if i == j else math.inf for j in range(g.n)] for i in range(g.n)]
    for u, v in g.edges:
        d[u][v] = d[v][u] = 1
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def plain_bfs(g):
    """Distance rows by a queue BFS over adjacency lists; inf if unreachable."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    out = []
    for s in range(g.n):
        dist = [math.inf] * g.n
        dist[s] = 0
        queue = collections.deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] == math.inf:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        out.append(dist)
    return out


def brute_automorphisms(g):
    """Every vertex permutation that maps the edge set onto itself."""
    edges = set(map(frozenset, g.edges))
    return [
        p
        for p in itertools.permutations(range(g.n))
        if all(frozenset((p[u], p[v])) in edges for u, v in g.edges)
    ]


def tuple_refine(nbrs, colors):
    """Colour refinement by tuple keys: each round keys a vertex by (colour,
    sorted neighbour colours) and relabels the keys in sorted order, until a
    round splits nothing. Returns the colour ranks."""
    classes = len(set(colors))
    while True:
        keys = [(c, tuple(sorted([colors[u] for u in nb]))) for c, nb in zip(colors, nbrs)]
        relabel = {k: i for i, k in enumerate(sorted(set(keys)))}
        colors = [relabel[k] for k in keys]
        if len(relabel) == classes or len(relabel) == len(colors):
            return colors
        classes = len(relabel)


def as_cells(colors):
    """The ordered partition of colour ranks or cell indices, as vertex
    bitmasks."""
    cells = [0] * (max(colors) + 1)
    for v, c in enumerate(colors):
        cells[c] |= 1 << v
    return [c for c in cells if c]


def brute_isomorphic(g, h):
    if g.n != h.n or g.m != h.m:
        return False
    ge = set(map(frozenset, g.edges))
    he = set(map(frozenset, h.edges))
    for p in itertools.permutations(range(g.n)):
        if all(frozenset((p[u], p[v])) in he for u, v in ge):
            return True
    return False


def brute_cut_vertices(g):
    """Cut vertices by deletion: drop v, test connectivity of the rest."""
    cuts = set()
    for v in range(g.n):
        keep = [u for u in range(g.n) if u != v]
        if len(keep) <= 1:
            continue
        idx = {u: i for i, u in enumerate(keep)}
        edges = [(idx[a], idx[b]) for a, b in g.edges if a != v and b != v]
        if not is_connected(from_edge_list(len(keep), edges)):
            cuts.add(v)
    return cuts


def brute_blocks(g):
    """Blocks by definition: the maximal vertex sets of size >= 2 that induce a
    connected subgraph with no cut vertex, found by trying every subset."""

    adj = neighbours(g)

    def connected(vertices):
        if not vertices:
            return True
        reach, frontier = set(), [min(vertices)]
        while frontier:
            u = frontier.pop()
            if u not in reach:
                reach.add(u)
                frontier.extend(v for v in adj[u] if v in vertices)
        return reach == vertices

    candidates = []
    for size in range(2, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            s = set(subset)
            if connected(s) and all(connected(s - {v}) for v in s):
                candidates.append(frozenset(s))
    return {b for b in candidates if not any(b < c for c in candidates)}


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edge_list(n, edges)


def cycle_graph(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


# The four spectrum_large benchmark graphs, each with its number of twin
# classes, which it shares with its complement.
LARGE_TWIN_CLASSES = {
    "path:120": 120,
    "broom:300": 4,
    "cliquepath:" + ",".join(["8"] * 40): 79,
    "cliquestar:" + ",".join(["10"] * 28) + ";10;10": 32,
}


class TestConstruction:
    def test_from_edge_list_examples(self):
        p3 = from_edge_list(3, [(0, 1), (1, 2)])
        assert p3 == path_graph(3)
        k1 = from_edge_list(1, [])
        assert k1.n == 1 and k1.m == 0

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            from_edge_list(4, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            from_edge_list(3, [(0, 3)])
        with pytest.raises(GraphError):
            from_edge_list(3, [(-1, 2)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError):
            from_edge_list(3, [(0, 1), (1, 0)])

    def test_adjacency_is_symmetric_with_empty_diagonal(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 9))
            for v in range(g.n):
                assert not g.rows[v] >> v & 1
                for u in range(g.n):
                    assert g.rows[u] >> v & 1 == g.rows[v] >> u & 1
            assert g.m * 2 == sum(r.bit_count() for r in g.rows)


class TestEdgeListFormat:
    def test_format_golden(self):
        assert format_edge_list(path_graph(3)) == "3 2\n0 1\n1 2\n"
        assert format_edge_list(from_edge_list(2, [])) == "2 0\n"

    def test_edges_in_lexicographic_order(self):
        g = from_edge_list(4, [(2, 3), (0, 3), (0, 1)])
        assert format_edge_list(g) == "4 3\n0 1\n0 3\n2 3\n"

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 10))
            assert parse_edge_list(format_edge_list(g)) == g

    def test_parser_accepts_any_order_and_orientation(self):
        assert parse_edge_list("3 2\n2 1\n1 0\n") == path_graph(3)

    def test_parser_diagnostics(self):
        for text in (
            "",
            "3\n",
            "a b\n",
            "3 2\n0 1\n",          # fewer edges than declared
            "3 1\n0 1\n1 2\n",     # more edges than declared
            "3 1\n0 x\n",
            "3 1\n0 3\n",
            "3 2\n0 1\n1 0\n",     # duplicate after normalization
        ):
            with pytest.raises(GraphError):
                parse_edge_list(text)


class TestComplement:
    def test_complete_graph_complement_empty(self):
        c = complement(complete_graph(4))
        assert c.m == 0 and c.n == 4

    def test_p4_complement(self):
        # non-edges of 0-1-2-3 are exactly 02, 03, 13, again a path: 2-0-3-1
        c = complement(path_graph(4))
        assert set(c.edges) == {(0, 2), (0, 3), (1, 3)}
        assert are_isomorphic(c, path_graph(4))
        assert brute_isomorphic(c, path_graph(4))

    def test_c5_self_complementary(self):
        assert are_isomorphic(complement(cycle_graph(5)), cycle_graph(5))

    def test_involution_exhaustive_small(self):
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                assert complement(complement(g)) == g

    def test_involution_random(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 10))
            assert complement(complement(g)) == g


class TestDistances:
    def test_against_floyd_warshall_exhaustive(self):
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                d = bfs_distances(g)
                fw = floyd_warshall(g)
                for i in range(n):
                    for j in range(n):
                        assert d[i][j] == fw[i][j]

    def test_against_floyd_warshall_random_including_disconnected(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 8), p=0.3)
            d = bfs_distances(g)
            fw = floyd_warshall(g)
            for i in range(g.n):
                for j in range(g.n):
                    assert d[i][j] == fw[i][j]

    def test_examples(self):
        assert bfs_distances(path_graph(4))[0][3] == 3
        k5 = bfs_distances(complete_graph(5))
        assert all(k5[i][j] == 1 for i in range(5) for j in range(5) if i != j)
        star = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        assert bfs_distances(star)[1][2] == 2

    def test_against_plain_bfs(self):
        disconnected = [
            from_edge_list(4, [(0, 1), (2, 3)]),
            from_edge_list(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]),
            from_edge_list(3, []),
        ]
        cases = [
            *(g for n in range(1, 8) for g in enumerate_connected_graphs(n)),
            *enumerate_trees(12),
            *disconnected,
        ]
        raised = 0
        for g in cases:
            expected = plain_bfs(g)
            assert bfs_distances(g).tolist() == expected, format_edge_list(g)
            assert diameter(g) == max(max(row) for row in expected)
            expected = plain_bfs(complement(g))
            if any(math.inf in row for row in expected):
                raised += 1
                with pytest.raises(GraphError, match="complement .* disconnected"):
                    complement_distance_matrix(g)
            else:
                assert complement_distance_matrix(g).tolist() == expected, format_edge_list(g)
        assert 0 < raised < len(cases)

    def test_twin_heavy_graphs_against_plain_bfs(self):
        """Graphs with large twin classes: clique trees and their complements,
        the large benchmark graphs with twins scattered by relabelling, and
        twins in other components (isolated vertices, open twins at distance
        inf; 2K2 and 3K2, closed twins in several components)."""
        rng = random.Random(28)
        apart = [
            from_edge_list(6, []),
            from_edge_list(7, [(0, 1), (1, 2)]),
            from_edge_list(4, [(0, 1), (2, 3)]),
            from_edge_list(6, [(0, 1), (2, 3), (4, 5)]),
            from_edge_list(8, [(0, 1), (0, 2), (1, 2), (3, 4)]),
        ]
        trees = [g for n in range(2, 11) for g in enumerate_clique_trees(n)]
        cases = [
            *trees,
            *map(complement, trees),
            *(relabelled(parse_family_spec(spec), rng) for spec in LARGE_TWIN_CLASSES),
            *apart,
            *(relabelled(g, rng) for g in apart),
        ]
        for g in cases:
            expected = plain_bfs(g)
            assert bfs_distances(g).tolist() == expected, format_edge_list(g)
            assert diameter(g) == max(max(row) for row in expected)

    def test_one_bfs_per_twin_class(self, monkeypatch):
        calls = []
        bfs_row = graphs._bfs_row
        monkeypatch.setattr(graphs, "_bfs_row", lambda rows, s: calls.append(s) or bfs_row(rows, s))
        rng = random.Random(28)
        for spec, classes in LARGE_TWIN_CLASSES.items():
            g = parse_family_spec(spec)
            for h in (g, complement(g), relabelled(g, rng), complement(relabelled(g, rng))):
                for distances in (bfs_distances, diameter):
                    calls.clear()
                    distances(h)
                    assert len(calls) == classes, (spec, distances.__name__)

    def test_diameter(self):
        for n in range(2, 8):
            assert diameter(path_graph(n)) == n - 1
            assert diameter(complete_graph(n)) == 1
        assert diameter(from_edge_list(4, [(0, 1), (2, 3)])) == math.inf
        assert diameter(complete_graph(1)) == 0

    def test_is_connected(self):
        assert is_connected(path_graph(5))
        assert is_connected(complete_graph(1))
        assert not is_connected(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_complement_connected_when_diameter_at_least_3_exhaustive_n7(self):
        """Connected g with d(g) >= 3 always has a connected complement."""
        for n in range(1, 8):
            for g in enumerate_connected_graphs(n):
                if diameter(g) >= 3:
                    assert is_connected(complement(g)), format_edge_list(g)

    def test_complement_connected_when_diameter_at_least_3_all_n8(self):
        # every connected 8-vertex graph arises by attaching a vertex to a
        # connected 7-vertex graph (delete any non-cut vertex to see this),
        # so sweeping all classes x all masks covers every isomorphism class
        seven = list(enumerate_connected_graphs(7))
        checked = 0
        for base in seven:
            base_pairs = list(base.edges)
            for mask in range(1, 256):
                pairs = base_pairs + [(u, 8 - 1) for u in range(8 - 1) if mask >> u & 1]
                g = from_edge_list(8, pairs)
                if diameter(g) >= 3:
                    assert is_connected(complement(g))
                    checked += 1
        assert checked > 0


class TestBlocks:
    def test_path_blocks(self):
        d = block_decomposition(path_graph(4))
        assert sorted(sorted(b) for b in d.blocks) == [[0, 1], [1, 2], [2, 3]]
        assert d.cut_vertices == frozenset({1, 2})
        assert len(d.blocks) == 3

    def test_bowtie(self):
        g = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        d = block_decomposition(g)
        assert len(d.blocks) == 2
        assert d.cut_vertices == frozenset({2})

    def test_cycle_single_block(self):
        d = block_decomposition(cycle_graph(5))
        assert len(d.blocks) == 1 and not d.cut_vertices

    def test_k1(self):
        d = block_decomposition(complete_graph(1))
        assert not d.blocks

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError):
            block_decomposition(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_edge_partition_and_cut_oracle_exhaustive(self):
        """Type invariants against the brute-force cut oracle, n <= 6."""
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                d = block_decomposition(g)
                seen = {}
                for bi, blk in enumerate(d.blocks):
                    for u, v in g.edges:
                        if u in blk and v in blk:
                            assert seen.setdefault((u, v), bi) == bi
                assert len(seen) == g.m  # every edge in exactly one block
                for b1, b2 in itertools.combinations(d.blocks, 2):
                    inter = b1 & b2
                    assert len(inter) <= 1
                    if inter:
                        assert inter <= d.cut_vertices
                assert d.cut_vertices == frozenset(brute_cut_vertices(g))
                in_two = {
                    v for v in range(n) if sum(v in b for b in d.blocks) >= 2
                }
                assert in_two == set(d.cut_vertices)

    def test_brute_force_block_oracle(self):
        """Blocks and cut vertices by definition, every connected class with
        n <= 6 and seeded random labelled graphs; disconnected input raises."""
        rng = random.Random(11)
        pool = [g for n in range(1, 7) for g in enumerate_connected_graphs(n)]
        for _ in range(300):
            pool.append(random_graph(rng, rng.randint(1, 9), rng.choice((0.2, 0.4, 0.7))))
        disconnected = 0
        for g in pool:
            if not is_connected(g):
                disconnected += 1
                with pytest.raises(GraphError, match="requires a connected graph"):
                    block_decomposition(g)
                continue
            d = block_decomposition(g)
            assert set(d.blocks) == brute_blocks(g)
            assert list(d.blocks) == sorted(d.blocks, key=sorted)
            assert d.cut_vertices == frozenset(brute_cut_vertices(g))
        assert disconnected >= 100  # 130 of the 300 random graphs

    def test_is_clique_tree(self):
        for n in range(1, 7):
            for t in enumerate_trees(n):
                assert is_clique_tree(t)
        bowtie = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        assert is_clique_tree(bowtie)
        assert not is_clique_tree(cycle_graph(4))
        assert not is_clique_tree(from_edge_list(4, [(0, 1), (2, 3)]))


class TestIsomorphism:
    def test_examples(self):
        p4 = path_graph(4)
        assert are_isomorphic(p4, complement(p4))
        star = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        assert not are_isomorphic(star, p4)
        assert are_isomorphic(p4, p4)

    def test_regular_nonisomorphic_pair(self):
        # same degree sequence, different structure: C6 vs two triangles
        two_triangles = from_edge_list(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert not are_isomorphic(cycle_graph(6), two_triangles)

    def test_permuted_copies_are_isomorphic(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 7)
            g = random_graph(rng, n)
            p = list(range(n))
            rng.shuffle(p)
            h = from_edge_list(n, [(p[u], p[v]) for u, v in g.edges])
            assert are_isomorphic(g, h)

    def test_agreement_with_brute_force(self):
        """Random pairs, n <= 6, against the n! permutation oracle."""
        rng = random.Random(23)
        agree_true = agree_false = 0
        for _ in range(300):
            n = rng.randint(2, 6)
            g = random_graph(rng, n)
            h = random_graph(rng, n)
            expected = brute_isomorphic(g, h)
            assert are_isomorphic(g, h) == expected
            if expected:
                agree_true += 1
            else:
                agree_false += 1
        assert agree_false > 50  # the sample exercised both outcomes
        assert agree_true > 5


def relabelled(g, rng):
    p = list(range(g.n))
    rng.shuffle(p)
    return from_edge_list(g.n, [(p[u], p[v]) for u, v in g.edges])


class TestCanonicalForm:
    def test_connected_classes_match_networkx_atlas(self):
        nx = pytest.importorskip("networkx")
        forms = {}
        for a in nx.graph_atlas_g():
            if a.number_of_nodes() and nx.is_connected(a):
                g = from_edge_list(a.number_of_nodes(), list(a.edges()))
                forms.setdefault(g.n, set()).add(canonical_form(g))
        assert [len(forms[n]) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]
        for n in range(1, 8):
            assert {canonical_form(g) for g in enumerate_connected_graphs(n)} == forms[n]

    def test_relabelling_keeps_the_form(self):
        rng = random.Random(5)
        classes = [
            *enumerate_connected_graphs(7),
            *enumerate_trees(12),
            *(g for s in range(1, 10) for g in enumerate_clique_trees(10, s)),
        ]
        for g in classes:
            for _ in range(2):
                assert canonical_form(relabelled(g, rng)) == canonical_form(g)

    @staticmethod
    def digests(pinned):
        """SHA-256 of the forms and, apart, of the generators of pinned."""
        forms, generators = hashlib.sha256(), hashlib.sha256()
        for g in pinned:
            forms.update(repr(canonical_form(g)).encode())
            generators.update(repr(graphs._automorphisms(g)).encode())
        return forms.hexdigest(), generators.hexdigest()

    def test_forms_and_generators_are_pinned(self):
        """canonical_form's exact values and, in a digest of their own, the
        generators its search finds.

        The clique-tree enumerator buckets by the signature, so a signature
        that induces a different equivalence on its graphs reorders its
        output and the report bytes, even when it is still an isomorphism
        invariant. A one-to-one re-encoding of the form moves only the forms
        digest; the generators follow from which leaf is least.
        """
        rng = random.Random(11)
        classes = [
            *(g for n in range(1, 8) for g in enumerate_connected_graphs(n)),
            *enumerate_trees(12),
            *(g for s in range(1, 10) for g in enumerate_clique_trees(10, s)),
        ]
        pinned = [*classes, *(relabelled(g, rng) for g in classes), clique_star((3,) * 10, 3, 3)]
        assert self.digests(pinned) == (
            "8b63c032aded43e6f7f81df3f1cecc3b99b57cbfd7293073711686adee5dac3c",
            "7c7ea7924cedd97a7c9ea5a4de8c328e4b6677c8997240cc6abaaa188cc35781",
        )

    def test_deep_searches_are_pinned(self):
        """Forms and, apart, generators of searches whose paths branch 12 to
        19 times, deeper than any enumerated class (at most 4) or the star
        pinned above (9): disjoint unions of k 5-cycles, a relabelled copy
        of each, and a star of twenty triangles."""
        rng = random.Random(23)
        cycles = [from_edge_list(5 * k, [(5 * i + j, 5 * i + (j + 1) % 5)
                                         for i in range(k) for j in range(5)])
                  for k in range(1, 7)]
        pinned = [*cycles, *(relabelled(g, rng) for g in cycles), clique_star((3,) * 20, 3, 3)]
        assert self.digests(pinned) == (
            "5edb4b53fea03c8da7b372b8ce8150ace8449d82fc378dc1c44e5b41d3172166",
            "fe2d9f13da983fab808829139602e7e71c71b3fdc92e76f4ce0ec86d913c86d8",
        )

    def test_orders_apart_are_not_isomorphic(self):
        """K1 and two isolated vertices both pack their least leaf to one
        zero byte; only the signature's length, n, tells them apart."""
        assert not are_isomorphic(graphs.Graph(1, (0,)), graphs.Graph(2, (0, 0)))

    def test_refinement_matches_the_tuple_key_oracle(self):
        """The same ordered partition from the degree partition and from
        every single-vertex individualisation of its refinement, the two
        inputs the search gives _refine_stack, at orders 1 to 30; each
        graph's individualisations are refined as one stack."""
        rng = random.Random(29)
        orders = [rng.randint(1, 12) for _ in range(500)] + [rng.randint(13, 30) for _ in range(60)]
        branches = 0
        for n in orders:
            g = random_graph(rng, n, rng.uniform(0.05, 0.95))
            nbrs = neighbours(g)
            degrees = [len(a) for a in nbrs]
            adj = graphs._bit_stack([g], n)
            cells = graphs._refine_stack(adj, np.array([degrees]))
            colors = tuple_refine(nbrs, degrees)
            assert as_cells(cells[0].tolist()) == as_cells(colors), format_edge_list(g)
            split = [v for v in range(n) if colors.count(colors[v]) > 1]
            if not split:
                continue
            # {v} keeps its cell's index and the rest of the cell takes the next
            own = np.array(split)[:, None] == np.arange(n)
            children = cells + ((cells == cells[0, split][:, None]) & ~own)
            got = graphs._refine_stack(np.repeat(adj, len(split), 0), children)
            for v, row in zip(split, got.tolist()):
                want = tuple_refine(nbrs, [2 * c + (u != v) for u, c in enumerate(colors)])
                assert as_cells(row) == as_cells(want), (format_edge_list(g), v)
                branches += 1
        assert branches > 1500

    def test_canonical_search_raises_no_warnings(self):
        # an overflowing or lossy numpy operation in the search warns;
        # warnings as errors make it fail here instead of passing silently
        classes = [
            *(g for n in range(1, 8) for g in enumerate_connected_graphs(n)),
            *enumerate_trees(12),
            *(g for s in range(1, 10) for g in enumerate_clique_trees(10, s)),
            *random_clique_trees(range(13, 41), 19),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graphs._canonical_forms([fresh(g) for g in classes])
            for g in classes[::25]:
                canonical_form(fresh(g))

    def test_found_automorphisms_match_brute_force(self):
        """Vertex orbits and subset orbits, connected classes of order <= 6.

        The subset orbits are the masks the connected enumerator attaches a
        new vertex to; their number summed over all parents is the count of
        candidates it canonicalises up to order 7.
        """
        candidates = 0
        for n in range(1, 7):
            for g in enumerate_connected_graphs(n):
                auts = brute_automorphisms(g)
                found = graphs._automorphisms(g)
                for v in range(n):
                    assert graphs._orbit([1 << v], found) == {1 << p[v] for p in auts}
                masks = list(families._least_masks(g, range(1, 1 << n)))
                brute = {min(sum(1 << p[v] for v in range(n) if m >> v & 1) for p in auts)
                         for m in range(1, 1 << n)}
                assert masks == sorted(brute), format_edge_list(g)
                candidates += len(masks)
        assert candidates == 4159

    def test_orbit_pruning_bounds_the_search(self, monkeypatch):
        # without orbit pruning, k interchangeable end cliques that are not
        # twins cost about e * k! search nodes, millions at k = 10; with it,
        # 175 per form. Each node is one partition the kernel refines.
        refine = graphs._refine_stack
        partitions = [0]

        def counted(adj, cells):
            partitions[0] += len(cells)
            if partitions[0] > 500:
                raise AssertionError("canonical_form refined more than 500 partitions")
            return refine(adj, cells)

        monkeypatch.setattr(graphs, "_refine_stack", counted)
        g = clique_star((3,) * 10, 3, 3)
        assert canonical_form(relabelled(g, random.Random(1))) == canonical_form(g)
        assert partitions[0] == 2 * 175

    def test_orbit_sets_are_kept_per_node(self, monkeypatch):
        # closing the explored siblings' orbit afresh for every sibling cost
        # 849 908 mask-generator pairs on this star; one orbit set per node,
        # closed again only when new generators fix its path, costs 91 498
        orbit = graphs._orbit
        work = [0]

        def counted(masks, perms):
            masks, perms = list(masks), list(perms)
            work[0] += len(masks) * len(perms)
            return orbit(masks, perms)

        monkeypatch.setattr(graphs, "_orbit", counted)
        canonical_form(clique_star((3,) * 20, 3, 3))
        assert 0 < work[0] < 300_000

    @pytest.mark.parametrize(
        "g",
        [
            complete_graph(12),
            from_edge_list(12, [(0, v) for v in range(1, 12)]),
            clique_star((3,) * 5, 3, 3),
        ],
        ids=["K12", "K1,11", "clique_star"],
    )
    def test_symmetric_extremes_finish(self, g):
        # a search that branched on every vertex of a symmetric cell would take
        # n! leaves, here and on the complement (K12's is edgeless)
        assert canonical_form(relabelled(g, random.Random(0))) == canonical_form(g)
        assert not are_isomorphic(g, complement(g))


def fresh(g):
    """An uncached copy of g: same labels, no form or generators yet."""
    return graphs.Graph(g.n, g.rows)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edge_list(10, outer + inner + [(i, 5 + i) for i in range(5)])


def cube():
    return from_edge_list(8, [(u, u ^ 1 << b) for u in range(8) for b in range(3) if u < u ^ 1 << b])


K33 = from_edge_list(6, [(u, v) for u in range(3) for v in range(3, 6)])
TWO_TRIANGLES = from_edge_list(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


class TestBatchedForms:
    """_canonical_forms against canonical_form alone, a batch of one, run on
    fresh copies: the same forms and the same generators, in the same order,
    whatever the other graphs of the batch."""

    @staticmethod
    def assert_same_as_alone(graph_list):
        batch = [fresh(g) for g in graph_list]
        forms = graphs._canonical_forms(batch)
        for g, h, form in zip(graph_list, batch, forms):
            alone = fresh(g)
            assert form == canonical_form(alone), format_edge_list(g)
            assert graphs._automorphisms(h) == graphs._automorphisms(alone), format_edge_list(g)

    def test_pinned_classes_and_relabelled_copies(self):
        rng = random.Random(11)
        classes = [
            *(g for n in range(1, 8) for g in enumerate_connected_graphs(n)),
            *enumerate_trees(12),
            *(g for s in range(1, 10) for g in enumerate_clique_trees(10, s)),
        ]
        copies = [relabelled(g, rng) for g in classes]
        assert len(classes) == 3087
        self.assert_same_as_alone(classes + copies)

    def test_searches_deeper_than_one_branching(self):
        rng = random.Random(3)
        deep = [*(cycle_graph(n) for n in range(5, 13)), petersen(), cube()]
        shallow = [K33, TWO_TRIANGLES]
        deep_copies = [relabelled(g, rng) for g in deep]
        self.assert_same_as_alone(deep + shallow + deep_copies + [relabelled(g, rng) for g in shallow])

    def test_mixed_orders_and_cached_graphs(self):
        rng = random.Random(7)
        cached = [path_graph(4), complete_graph(3), cycle_graph(6)]
        before = [canonical_form(g) for g in cached]
        mixed = [*cached, *(random_graph(rng, rng.randint(1, 9)) for _ in range(60))]
        forms = graphs._canonical_forms(mixed)
        assert all(a is b for a, b in zip(forms, before))
        self.assert_same_as_alone(mixed)

    def test_orders_above_twelve_and_a_batch_of_one(self):
        rng = random.Random(13)
        large = [random_graph(rng, n) for n in (13, 13, 14)]
        single = [random_graph(rng, 7)]
        self.assert_same_as_alone(large + single)
        self.assert_same_as_alone(single)


def random_clique_trees(orders, seed):
    """A random clique tree of each order, with a random block count."""
    rng = random.Random(seed)
    return [families.random_clique_tree(n, rng.randint(1, n - 1), rng.randrange(10**6))
            for n in orders]


class TestOrdersAboveTwelve:
    """The search has no order limit. Relabelled copies share a form, and
    graphs with different degree sequences, which cannot be isomorphic, do
    not."""

    def test_random_clique_trees_of_order_13_to_40(self):
        rng = random.Random(17)
        trees = random_clique_trees(range(13, 41), 19)
        copies = [relabelled(g, rng) for g in trees]
        for g, h in zip(trees, copies):
            assert canonical_form(h) == canonical_form(g)
            assert are_isomorphic(g, h)
        for g, h in zip(trees, random_clique_trees(range(13, 41), 23)):
            if sorted(map(int.bit_count, g.rows)) != sorted(map(int.bit_count, h.rows)):
                assert not are_isomorphic(g, h)

    def test_clique_star_of_order_127(self):
        g = clique_star((10,) * 12, 10, 10)
        h = relabelled(g, random.Random(2))
        same = canonical_form(h) == canonical_form(g)
        assert g.n == 127 and same and are_isomorphic(g, h)
        # the clique path on the same fourteen K10 blocks has the same order
        # and size
        path = families.clique_path((10,) * 14)
        assert (path.n, path.m) == (g.n, g.m) and not are_isomorphic(g, path)
