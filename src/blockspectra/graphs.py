"""Simple undirected graphs with exact distances, blocks, and canonical forms.

Vertices are always labeled 0..n-1. Adjacency is one Python int bitmask per
vertex, which keeps complement, the one single-source BFS (_bfs_row) and
block routines exact and cheap for n up to a few hundred; distances and
diameters run that BFS once per twin class (_twins). canonical_form
alone decides isomorphism: equal forms iff isomorphic. _canonical_forms runs
its one search for any list of graphs, a graph alone being a list of one:
each graph's search is a generator that asks for one partition per node,
and each round refines every partition asked for, one numpy stack per
order, with exact integer keys, and relabels them as leaves. The search's
choices run per graph in Python; it prunes by _orbit, the one orbit closure
on bitmasks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "BlockDecomposition",
    "from_edge_list",
    "complement",
    "bfs_distances",
    "diameter",
    "block_decomposition",
    "canonical_form",
    "are_isomorphic",
    "parse_edge_list",
    "format_edge_list",
]


# Largest order an edge-list header may declare: dense n x n matrices of this
# order take 200 MB each, and the largest benchmark graph has n = 300.
MAX_ORDER = 5000


class GraphError(ValueError):
    """Invalid graph input or violated operation precondition."""


def _bits(mask):
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    rows[v] is the neighbor bitmask of v. Instances compare and hash by
    labeled structure, so they can key dicts and sets directly.
    """

    def __init__(self, n, rows):
        n = int(n)
        if n < 1:
            raise GraphError(f"graph needs at least one vertex, got n={n}")
        rows = tuple(rows)
        if len(rows) != n:
            raise GraphError(f"expected {n} adjacency rows, got {len(rows)}")
        self.n = n
        self.rows = rows

    @property
    def m(self):
        return sum(r.bit_count() for r in self.rows) // 2

    @property
    def edges(self):
        out = []
        for u in range(self.n):
            higher = self.rows[u] >> (u + 1)
            for off in _bits(higher):
                out.append((u, u + 1 + off))
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def from_edge_list(n, edges):
    """Build a Graph from an explicit edge list, validating every pair."""
    n = int(n)
    if n < 1:
        raise GraphError(f"graph needs at least one vertex, got n={n}")
    rows = [0] * n
    seen = set()
    for e in edges:
        u, v = e
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop ({u},{v}) not allowed")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"duplicate edge ({u},{v})")
        seen.add(key)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def complement(g):
    """Graph on the same vertices whose edges are exactly the non-edges of g."""
    full = (1 << g.n) - 1
    return Graph(g.n, (full & ~r & ~(1 << v) for v, r in enumerate(g.rows)))


def _bfs_row(rows, s):
    """Distances from s over neighbour bitmasks rows, math.inf if unreachable."""
    row = [math.inf] * len(rows)
    visited = frontier = 1 << s
    depth = 0
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            row[v] = depth
            nxt |= rows[v]
        frontier = nxt & ~visited
        visited |= frontier
        depth += 1
    return row


def bfs_distances(g):
    """All-pairs shortest-path matrix; unreachable pairs get np.inf.

    BFS runs only from the least vertex t of each twin class, exact for
    every graph, disconnected ones included: swapping a twin s with t is an
    automorphism, so rows s and t agree off the class, and within it every
    two vertices lie the same distance apart (1 for closed twins, 2 or inf
    for open ones). With that distance written at t, row t serves its whole
    class, and the diagonal is zeroed once. Each BFS fills a Python row as
    it expands a level, and numpy gathers the rows in one take; numpy
    assignments per entry, or per level, were slower at every order
    measured, 7 to 300. Copying each twin's row as a Python list instead
    saved about 1 us a call on the connected graphs of order 7 or less, but
    took 3.3 ms against 0.3 ms on broom:300.
    """
    rows = g.rows
    reps, at = [], []
    for s, t in enumerate(_twins(rows)):
        if s == t:
            at.append(len(reps))
            reps.append(_bfs_row(rows, s))
        else:
            at.append(at[t])
            row = reps[at[t]]
            row[t] = row[s]  # the class's distance, so row t serves s too
    d = np.array(reps, dtype=np.float64).take(at, axis=0)
    d.flat[:: g.n + 1] = 0
    return d


def diameter(g):
    """Largest distance, math.inf if disconnected, from one BFS row per twin
    class: a twin's row is a permutation of its least twin's row."""
    rows = g.rows
    return max(max(_bfs_row(rows, s)) for s, t in enumerate(_twins(rows)) if s == t)


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (as vertex sets) and cut vertices."""

    blocks: tuple
    cut_vertices: frozenset


def block_decomposition(g):
    """Decompose a connected graph into blocks and cut vertices.

    One iterative lowpoint DFS (Hopcroft & Tarjan, CACM 16(6), 1973) that
    stacks each vertex as it is discovered. When a child v of u finishes with
    low[v] >= disc[u], u and the vertices popped down to v form a block; the
    parent edge lowers low[v] only to disc[u], so it needs no special case. A
    cut vertex is a vertex in two blocks or more. A DFS that reaches fewer
    than n vertices means g is disconnected. A K1 input yields zero blocks.
    """
    n = g.n
    disc = [-1] * n
    low = [0] * n
    disc[0] = 0
    clock = 1
    stack = [0]
    frames = [(0, _bits(g.rows[0]))]
    blocks = []
    while frames:
        v, nbrs = frames[-1]
        for w in nbrs:
            if disc[w] < 0:
                disc[w] = low[w] = clock
                clock += 1
                stack.append(w)
                frames.append((w, _bits(g.rows[w])))
                break
            if disc[w] < low[v]:
                low[v] = disc[w]
        else:
            frames.pop()
            if frames:
                u = frames[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    block = [u]
                    while block[-1] != v:
                        block.append(stack.pop())
                    blocks.append(frozenset(block))
    if clock < n:
        raise GraphError("block decomposition requires a connected graph")
    blocks.sort(key=lambda b: tuple(sorted(b)))
    seen, cuts = set(), set()
    for block in blocks:
        cuts |= seen & block
        seen |= block
    return BlockDecomposition(tuple(blocks), frozenset(cuts))


def _twins(rows):
    """twin[v], the least twin of v.

    Twins have equal open or equal closed neighbourhoods; no open
    neighbourhood equals another vertex's closed one, twinship is an
    equivalence relation, and swapping two twins is an automorphism.
    """
    first = {}
    twin = []
    for v, r in enumerate(rows):
        u = first.get(r)
        if u is None:
            u = first.setdefault(r | 1 << v, v)
            if u == v:
                first[r] = v
        twin.append(u)
    return twin


def _swaps(twin):
    """Each vertex's transposition with its least twin, as image tuples."""
    out = []
    for v, u in enumerate(twin):
        if u != v:
            perm = list(range(len(twin)))
            perm[u], perm[v] = v, u
            out.append(tuple(perm))
    return out


def canonical_form(g):
    """Isomorphism-class key: equal for two graphs iff they are isomorphic.

    The pair (signature, matrix). signature, the sorted cell indices of the
    vertices in the refined degree partition, is the colour-refinement
    invariant, n entries long. matrix is the least relabelled adjacency
    matrix, its rows packed into n*n bits, over the leaves of an
    individualisation-refinement search (McKay & Piperno, J. Symb. Comput.
    2014) on ordered partitions, refined by _refine_stack. The root is the
    degree cells in ascending degree. At each node the search takes the
    first cell with the fewest twin classes, two at least, and for each of
    its vertices v puts {v} before the rest of the cell, refines, and
    recurses. A node whose cells are each a single twin class has only
    automorphic leaves, so it is one leaf: its vertices in cell order, each
    cell ascending.

    The search collects generators of automorphisms as it goes: the twin
    transpositions and the map from the best leaf to any leaf with an equal
    matrix. It skips a branch vertex in the orbit of an explored sibling
    under the generators that fix the current path pointwise. That subtree
    is an automorphic image of one already searched, with the same leaf
    matrices, so the pruning never changes the form. The form and the leaf
    generators are cached per graph.
    """
    return _canonical_forms([g])[0]


def are_isomorphic(g, h):
    """Exact isomorphism test: equal canonical forms."""
    form, other = _canonical_forms([g, h])
    return form == other


def _orbit(masks, perms):
    """The union of the orbits of vertex-set bitmasks under the group the
    perms generate, as a set of bitmasks; a vertex v is the mask 1 << v."""
    orbit = set(masks)
    frontier = list(orbit)
    for m in frontier:
        for p in perms:
            if m & (m - 1):
                image = 0
                for v in _bits(m):
                    image |= 1 << p[v]
            else:
                image = 1 << p[m.bit_length() - 1]
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def _automorphisms(g):
    """Generators, as image tuples, of the automorphisms canonical_form(g)
    found. They may generate only a subgroup of Aut(g), which is all that
    pruning by their orbits needs. The twin transpositions are rebuilt here
    rather than cached."""
    canonical_form(g)
    return _swaps(_twins(g.rows)) + list(g.__dict__.get("_leaf_auts", ()))


def _canonical_forms(graphs):
    """canonical_form of each graph, in order.

    The root partitions of each order are refined in one stack, and a root
    that is a leaf is the whole search. Every other graph's search is a
    _search generator; they run in lockstep rounds, each refining the
    partitions asked for in one _refine_stack call per order, reading them
    with _nodes and sending each search its node. No search sees another,
    so no form or generator depends on the graphs searched with it.
    """
    graphs = list(graphs)
    levels = {}
    for g in {id(g): g for g in graphs if "_canon" not in g.__dict__}.values():
        levels.setdefault(g.n, []).append(g)
    stacks, sends = {}, []  # sends: (order, index in its stack, search, node to send it)
    for n, level in levels.items():
        # kept as bools, and as float64 only while a round refines
        adj = _bit_stack(level, n)
        twins = [_twins(g.rows) for g in level]
        stacks[n] = adj != 0, np.array(twins)
        cells = _refine_stack(adj, adj.sum(-1).astype(np.int64))
        for k, (g, twin, root) in enumerate(zip(level, twins, _nodes(*stacks[n], cells))):
            signature = tuple(sorted(root[0]))
            if root[2]:
                sends.append((n, k, _search(g, twin, root, signature), None))
            else:
                g.__dict__["_canon"] = (signature, root[3])
    while sends:
        rounds = {}
        for n, k, search, node in sends:
            request = search.send(node)
            if request:
                rounds.setdefault(n, []).append((k, search, *request))
        sends = []
        for n, requests in rounds.items():
            ks, searches, parents, v = zip(*requests)
            adj, twin = (stack[list(ks)] for stack in stacks[n])
            parents, v = np.array(parents), np.array(v)[:, None]
            # {v} keeps the index of its cell and the rest of the cell
            # takes the next one, which no cell has
            rest = (parents == parents[np.arange(len(v))[:, None], v]) & (np.arange(n) != v)
            cells = _refine_stack(adj.astype(np.float64), parents + rest)
            nodes = _nodes(adj, twin, cells)
            sends += [(n, k, search, node) for k, search, node in zip(ks, searches, nodes)]
    return [g.__dict__["_canon"] for g in graphs]


def _search(g, twin, root, signature):
    """canonical_form's depth-first search of g, twin from _twins, from its
    root node: it yields (cells, v) for the child of the node with partition
    cells whose branch vertex is v, is sent that child's node as _nodes
    reads it, and at the end caches the form and generators and yields None.

    visit(cells, branch, path, fixing) searches below a branch node, fixing
    being the twin swaps and generators that fix its path pointwise. It
    keeps the orbit of the explored branch vertices under fixing, adds to
    fixing the generators found since it last looked that fix the path,
    closing the orbit again only then, takes in each leaf child as the best
    leaf or a generator, and hands each branch child those of fixing that
    fix its vertex. The recursion takes one level per branch node on the
    path: 4 in every enumerated class, 40 for 20 disjoint 5-cycles. Python's
    default limit of 1000 frames caps nested generators, which only an order
    above 1000 could reach; no command canonicalises a graph above order 12.
    """
    gens = []
    best = best_order = None

    def visit(cells, branch, path, fixing):
        nonlocal best, best_order
        orbit, known = set(), len(gens)
        for v in branch:
            new = [p for p in gens[known:] if all(p[u] == u for u in path)]
            known = len(gens)
            if new:
                fixing += new
                orbit |= _orbit(orbit, fixing)
            if 1 << v in orbit:
                continue
            orbit |= _orbit((1 << v,), fixing)
            child, order, split, leaf = yield cells, v
            if split:
                yield from visit(child, split, path + (v,), [p for p in fixing if p[v] == v])
            elif best is None or leaf < best:
                best, best_order = leaf, order
            elif leaf == best:  # the map taking best_order[i] to order[i]
                gens.append(tuple(w for _, w in sorted(zip(best_order, order))))

    yield from visit(root[0], root[2], (), _swaps(twin))
    del visit  # it holds itself in its closure; freed now, not by the cycle collector
    g.__dict__["_canon"] = (signature, best)
    if gens:
        g.__dict__["_leaf_auts"] = tuple(gens)
    yield None


def _bit_stack(graphs, n):
    """Float64 stack of the 0/1 adjacency matrices of graphs of order n,
    unpacked from their bitset rows."""
    width = (n + 7) // 8
    packed = b"".join(r.to_bytes(width, "little") for g in graphs for r in g.rows)
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
    return bits.reshape(len(graphs), n, 8 * width)[:, :, :n].astype(np.float64, order="C")


def _refine_stack(adj, cells):
    """Refine a stack of ordered partitions until each is equitable and no
    cell splits: cells[b, v] is the cell index of v in the graph adj[b], and
    the partitions must refine the degree partition. Degrees serve as the
    root's cell indices; the result's cell indices are ranks, a cell's index
    being the number of vertices in the cells before it.

    Each round keys every vertex by its cell, then by its negated neighbour
    count in each cell in cell order, and a vertex's new cell index is the
    number of vertices of its graph with a lesser key. Vertices of one cell
    have one degree, so the key sorts as their sorted tuples of neighbour
    cell indices do: each round gives the ordered partition that keying
    every vertex by (cell, sorted neighbour cells) would, which depends only
    on the structure and the input, never on vertex labels.

    A key is the digits (cell, count in the first cell, count in the
    second, ...) in base n + 1, read as one number per chunk of `digits` of
    them, so one float64 matrix product gives every chunk. A chunk, and
    every partial sum of it, is an integer below 2 ** 52, so the product is
    exact, and chunks compare in turn, the first chunk first; a larger n
    only means more chunks.
    """
    n = cells.shape[-1]
    digits = 52 // (n + 1).bit_length()
    # weight[d, j]: minus the place value of key digit d in chunk j
    weight = np.zeros((n + 1, n // digits + 1))
    for d in range(n + 1):
        weight[d, d // digits] = -(n + 1) ** (digits - 1 - d % digits)
    digit = np.arange(1, n + 1)  # the count in the cell with index c is digit c + 1
    while True:
        if n >= digits:
            # more than one chunk: number only the cells present in the stack
            present = np.bincount(cells.ravel(), minlength=n) > 0
            digit = (present & (np.arange(n) <= np.arange(n)[:, None])).sum(-1)
        place = weight[:, :digit[-1] // digits + 1]
        keys = adj @ place[digit[cells]]
        keys[..., 0] -= place[0, 0] * cells
        # less[..., v, u]: u's key is less than v's, decided by the most
        # significant chunk in which they differ
        less = None
        for j in range(keys.shape[-1] - 1, -1, -1):
            mine, other = keys[..., :, None, j], keys[..., None, :, j]
            less = other < mine if less is None else (other < mine) | ((other == mine) & less)
        # a bool stack times ones counts along rows, as sum does, but faster
        refined = (less @ np.ones(n)).astype(np.int64)
        if (refined == cells).all():
            return cells
        cells = refined


def _nodes(adj, twin, cells):
    """The search node (cells, order, branch, leaf) of each refined partition
    cells[b] of the graph adj[b], a bool stack, twin[b, v] being the least
    twin of v. order lists the vertices in cell order, each cell ascending,
    and branch the vertices, ascending, of the first cell with the fewest
    twin classes, two at least. A node with no such cell is a leaf, with
    branch empty and leaf the relabelled matrix as bytes, whose bit
    i*n + n-1-j, counted from the first byte's highest, is set iff the
    vertices at places i and j are adjacent."""
    size, n = cells.shape
    rows = np.arange(size)[:, None]
    peers = (cells[:, :, None] == cells[:, None, :]) & (np.arange(n) < np.arange(n)[:, None])
    order = np.empty_like(cells)
    order[rows, cells + peers.sum(-1)] = np.arange(n)
    # a vertex no earlier vertex of its cell shares a least twin with is
    # the first of a twin class of that cell
    first = ~(peers & (twin[:, :, None] == twin[:, None, :])).any(-1)
    widths = np.bincount((cells + n * rows)[first], minlength=size * n).reshape(size, n)
    branch = np.where(widths > 1, widths, n + 1).argmin(-1)
    span = np.where(widths.max(-1) > 1, (cells == branch[:, None]).sum(-1), 0)
    # each leaf's rows in place order, each row's places descending, packed
    # from the first bit, so leaves of one order compare as their bits do
    at = order[span == 0]
    bits = adj[np.flatnonzero(span == 0)[:, None, None], at[:, :, None], at[:, None, ::-1]]
    leaves = iter([row.tobytes() for row in np.packbits(bits.reshape(-1, n * n), axis=-1)])
    return [(c, o, o[i:i + s], None if s else next(leaves))
            for c, o, i, s in zip(cells.tolist(), order.tolist(), branch.tolist(), span.tolist())]


def format_edge_list(g):
    """Serialize to the text format: header `n m`, then one `u v` line per edge.

    Edges are written with u < v in lexicographic order, LF endings.
    """
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_edge_list(text):
    """Parse the edge-list text format; tolerant of edge order and orientation."""
    tokens = [line.strip() for line in text.splitlines()]
    tokens = [line for line in tokens if line]
    if not tokens:
        raise GraphError("empty edge-list input")
    head = tokens[0].split()
    if len(head) != 2:
        raise GraphError(f"header must be 'n m', got {tokens[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphError(f"header must be two integers, got {tokens[0]!r}") from None
    if n > MAX_ORDER:
        raise GraphError(f"header declares n={n}, above the limit of {MAX_ORDER} vertices")
    if len(tokens) - 1 != m:
        raise GraphError(f"header declares {m} edges but {len(tokens) - 1} lines follow")
    edges = []
    for line in tokens[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"edge line must be 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"edge line must be two integers, got {line!r}") from None
        edges.append((min(u, v), max(u, v)))
    return from_edge_list(n, edges)
