"""Constructors and enumerators for clique trees, trees, and small connected graphs.

A clique tree here is a connected graph whose blocks are all complete
(standard "block graph"); the clique path and clique star are its extremal
shapes. Every clique tree, constructed, random or enumerated, grows one
clique at a time glued at a single vertex, and a tree or connected graph
one vertex at a time, by one step (_join). Enumerators yield exactly one
representative per isomorphism class, the first candidate seen with each
canonical form, in a fixed order, from one dedup pass (_grow). They grow
each smaller class only at the least vertex, or vertex set, of each orbit
of its automorphisms (_least_masks, via _orbit); a skipped candidate is
isomorphic to one grown before it from the same class, so never first seen,
and the output order and representatives are those of the unpruned growth.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from .graphs import (
    MAX_ORDER,
    Graph,
    GraphError,
    _automorphisms,
    _bits,
    _canonical_forms,
    _orbit,
    from_edge_list,
)

__all__ = [
    "clique_path",
    "clique_star",
    "path_graph",
    "complete_graph",
    "broom",
    "enumerate_trees",
    "enumerate_connected_graphs",
    "enumerate_clique_trees",
    "random_clique_tree",
    "parse_family_spec",
]


def _join(g, mask, k):
    """g with k new vertices, numbered g.n onward, adjacent to each other and
    to every vertex in the bitmask mask."""
    n2 = g.n + k
    if n2 > MAX_ORDER:
        raise GraphError(f"clique tree would have n={n2}, above the limit of {MAX_ORDER}")
    new = (1 << n2) - (1 << g.n)
    rows = list(g.rows)
    for v in _bits(mask):
        rows[v] |= new
    rows += [mask | new ^ 1 << u for u in range(g.n, n2)]
    return Graph(n2, rows)


def _glue_clique(g, v, size):
    """g with a new clique of the given size sharing only vertex v with g;
    its other vertices are numbered g.n onward."""
    if size < 2:
        raise GraphError(f"clique size must be >= 2, got {size}")
    return _join(g, 1 << v, size - 1)


def clique_path(sizes):
    """Chain of cliques, consecutive pairs sharing one cut vertex."""
    sizes = tuple(int(x) for x in sizes)
    if not sizes:
        raise GraphError("clique path needs at least one clique")
    g = complete_graph(1)
    for size in sizes:
        g = _glue_clique(g, g.n - 1, size)
    return g


def clique_star(end_sizes, bridge_size, last_size):
    """Central clique holding adjacent cut vertices w=0 and w'=1, end cliques
    at w, one clique at w'. Diameter is exactly 3."""
    end_sizes = tuple(int(x) for x in end_sizes)
    if not end_sizes:
        raise GraphError("clique star needs at least one end clique at w")
    g = _glue_clique(complete_graph(1), 0, int(bridge_size))
    for size in end_sizes:
        g = _glue_clique(g, 0, size)
    return _glue_clique(g, 1, int(last_size))


def _order(n, least, family):
    """n as an int, rejected outside least..MAX_ORDER before anything is built."""
    n = int(n)
    if not least <= n <= MAX_ORDER:
        raise GraphError(f"{family} needs {least} <= n <= {MAX_ORDER}, got {n}")
    return n


def path_graph(n):
    n = _order(n, 1, "path")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    n = _order(n, 1, "complete graph")
    full = (1 << n) - 1
    return Graph(n, [full ^ 1 << v for v in range(n)])


def broom(n):
    """T(n-3,1): the path 0-1-2 with n-3 pendant vertices attached at 0."""
    n = _order(n, 4, "broom")
    return from_edge_list(n, [(0, 1), (1, 2)] + [(0, v) for v in range(3, n)])


def _least_masks(g, masks):
    """The vertex-set bitmasks, ascending, that are least in their orbit
    under the automorphisms of g; masks must be ascending and closed under
    them. A vertex v is the mask 1 << v.

    Growing g at any other mask gives an automorphic image of a candidate
    grown earlier in the same loop, so it can never be a new class.
    """
    perms = _automorphisms(g)
    seen = set()
    for mask in masks:
        if mask not in seen:
            yield mask
            seen |= _orbit((mask,), perms)


# Children canonicalised per _canonical_forms call. Its searches run in
# lockstep rounds, as many as the longest search in the call, so a larger
# chunk pays for fewer rounds. Connected n = 8 growth took 2.0 s of CPU at
# 64 and 1.7-1.9 s at 256; peak memory grows with the chunk, 0.6 MB more
# at 256 than at 64 and 1.7 MB more at 512, so 256.
GROW_CHUNK = 256


def _grow(level, children, group):
    """One growth step. children(tag, g) yields the (tag, graph) children of
    each (tag, g) in level, canonicalised GROW_CHUNK at a time; they are
    grouped by group(form, tag), and the first child seen of each canonical
    form in its group is kept. Returns the kept pairs group by group, groups
    and members in first-seen order."""
    groups = {}
    pairs = (pair for tag, g in level for pair in children(tag, g))
    while chunk := list(itertools.islice(pairs, GROW_CHUNK)):
        forms = _canonical_forms([h for _, h in chunk])
        for (child_tag, h), form in zip(chunk, forms):
            groups.setdefault(group(form, child_tag), {}).setdefault(form, (child_tag, h))
    return [pair for classes in groups.values() for pair in classes.values()]


@lru_cache(maxsize=None)
def _grown_classes(n, connected):
    """The trees on n vertices, or with connected the connected graphs. Each
    is a smaller one plus a vertex joined to one vertex (a leaf), or to any
    nonempty vertex set (its last non-cut vertex)."""
    if n == 1:
        return (Graph(1, (0,)),)

    def children(_, g):
        masks = range(1, 1 << g.n) if connected else [1 << v for v in range(g.n)]
        return ((None, _join(g, mask, 1)) for mask in _least_masks(g, masks))

    level = [(None, g) for g in _grown_classes(n - 1, connected)]
    return tuple(g for _, g in _grow(level, children, lambda form, tag: None))


# Largest order each family is enumerated at; the clique-tree cap also bounds
# the clique-move claims' sampled trees.
CAPS = {"tree": 12, "connected-graph": 7, "clique-tree": 12}


def _capped(n, family):
    """n as an int, rejected outside 1..CAPS[family] before anything is grown."""
    n = int(n)
    if n < 1:
        raise GraphError(f"{family} enumeration needs n >= 1, got {n}")
    if n > CAPS[family]:
        raise GraphError(f"{family} enumeration capped at n = {CAPS[family]}, got {n}")
    return n


def enumerate_trees(n):
    """One representative per isomorphism class of trees on n vertices, n capped by CAPS."""
    yield from _grown_classes(_capped(n, "tree"), False)


def enumerate_connected_graphs(n):
    """One representative per isomorphism class of connected graphs, n capped by CAPS."""
    yield from _grown_classes(_capped(n, "connected-graph"), True)


def _size_multisets(total, s, minimum=2):
    """Nondecreasing s-tuples of ints >= minimum summing to total, lex order."""
    if s == 0:
        if total == 0:
            yield ()
        return
    for first in range(minimum, total - minimum * (s - 1) + 1):
        for rest in _size_multisets(total - first, s - 1, first):
            yield (first,) + rest


def _glue_remaining(tag, g):
    """g with each distinct size in rem glued, as a clique, at each vertex
    least in its orbit, for the tag (sizes, rem); the child's tag is
    (sizes, rem less that size)."""
    sizes, rem = tag
    masks = list(_least_masks(g, [1 << v for v in range(g.n)]))
    for a in sorted(set(rem)):
        i = rem.index(a)
        rest = rem[:i] + rem[i + 1 :]
        for mask in masks:
            yield (sizes, rest), _join(g, mask, a - 1)


# No CLI run asks for one (n, s) twice; the cache is for the test suite,
# whose tests ask for the same clique trees again and again. Without it the
# suite took 35.3-36.1 s against 28.5-31.6 s (3 runs each, 2 CPUs).
@lru_cache(maxsize=None)
def _clique_tree_classes(n, s):
    if s < 1 or n < s + 1:
        raise GraphError(f"no clique tree has n={n} vertices and s={s} blocks")
    # every size multiset, in lex order, grown from K1 in one level, grouped
    # by (multiset, signature, remaining sizes). A multiset's groups hold
    # only its own graphs, first seen before any later multiset's, so the
    # clique trees come out multiset by multiset. The groups fix the output
    # order, so the equivalence the signature induces fixes it too: a
    # signature that is still an invariant but buckets these graphs
    # differently reorders the clique trees and the report bytes
    level = [((sizes, sizes), Graph(1, (0,))) for sizes in _size_multisets(n + s - 1, s)]
    for _ in range(s):
        level = _grow(level, _glue_remaining, lambda form, tag: (tag[0], form[0], tag[1]))
    return tuple(g for _, g in level)


def enumerate_clique_trees(n, s=None):
    """One representative per isomorphism class of clique trees with n vertices,
    n capped by CAPS, and s blocks, or with each block count in turn if s is
    None. Empty parameters are rejected rather than silently empty; only n = 1
    with every block count yields nothing."""
    n = _capped(n, "clique-tree")
    for s in range(1, n) if s is None else [int(s)]:
        yield from _clique_tree_classes(n, s)


def random_clique_tree(n, s, seed):
    """Random clique tree with n vertices and s blocks, not uniform over
    isomorphism classes.

    Block sizes come from a uniform stars-and-bars composition of the size
    budget; each later clique is glued at a vertex drawn uniformly from the
    graph built so far. Deterministic for a fixed (n, s, seed).
    """
    n, s = int(n), int(s)
    if s < 1 or n < s + 1:
        raise GraphError(f"no clique tree has n={n} vertices and s={s} blocks")
    rng = random.Random(seed)
    # s - 1 bars among n - 2 slots; a block's size is 1 + its gap
    bars = [-1] + sorted(rng.sample(range(n - 2), s - 1)) + [n - 2]
    sizes = [1 + b - a for a, b in zip(bars, bars[1:])]
    g = complete_graph(sizes[0])
    for size in sizes[1:]:
        g = _glue_clique(g, rng.randrange(g.n), size)
    return g


def _parse_int(token, what):
    try:
        return int(token)
    except ValueError:
        raise GraphError(f"{what} must be an integer, got {token!r}") from None


def parse_family_spec(text):
    """Build a graph from a family spec string.

    Grammar: path:n | complete:n | broom:n | cliquepath:n1,n2,... |
    cliquestar:e1,e2,...;bridge;last
    """
    name, sep, rest = text.partition(":")
    if not sep or not rest.strip():
        raise GraphError(f"family spec must look like 'name:args', got {text!r}")
    name = name.strip().lower()
    rest = rest.strip()
    if name == "path":
        return path_graph(_parse_int(rest, "path order"))
    if name == "complete":
        return complete_graph(_parse_int(rest, "complete-graph order"))
    if name == "broom":
        return broom(_parse_int(rest, "broom order"))
    if name == "cliquepath":
        sizes = [_parse_int(t, "clique size") for t in rest.split(",")]
        return clique_path(sizes)
    if name == "cliquestar":
        parts = rest.split(";")
        if len(parts) != 3:
            raise GraphError(
                f"cliquestar spec needs 'ends;bridge;last', got {text!r}"
            )
        ends = [_parse_int(t, "end-clique size") for t in parts[0].split(",")]
        bridge = _parse_int(parts[1], "bridge-clique size")
        last = _parse_int(parts[2], "last-clique size")
        return clique_star(ends, bridge, last)
    raise GraphError(f"unknown family {name!r}")
