"""Simple undirected graphs with exact distances, blocks, and canonical forms.

Vertices are always labeled 0..n-1. Adjacency is one Python int bitmask per
vertex, which keeps complement, the one single-source BFS (_bfs_row) and
block routines exact and cheap for n up to a few hundred. canonical_form
alone decides isomorphism: equal forms iff isomorphic. Its search refines
ordered partitions of vertex bitmasks, a neighbour count in a cell being one
AND and a popcount, and prunes by _orbit, the one orbit closure on bitmasks.
_canonical_forms gives the same forms and generators for a list of graphs:
it runs the refinement of each order's root partitions, and of every child
one branching below them, on numpy stacks, replays the search over those
leaves graph by graph, and leaves deeper searches to canonical_form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def m(self):
        return sum(r.bit_count() for r in self.rows) // 2

    @cached_property
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

    Each BFS fills a Python row as it expands a level, and the rows become
    one array at the end; numpy assignments per entry, or per level, were
    slower at every order measured, 7 to 300.
    """
    return np.array([_bfs_row(g.rows, s) for s in range(g.n)], dtype=np.float64)


def diameter(g):
    """Largest distance, from one BFS row at a time: math.inf if disconnected."""
    return max(max(_bfs_row(g.rows, s)) for s in range(g.n))


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


def _refine(rows, cells, split):
    """Refine an ordered partition of vertex bitmasks, which must refine the
    degree partition, until it is equitable and no cell splits.

    split lists the cells whose neighbour counts may still tell two vertices
    of one cell apart; a count in any other cell is the same for the whole
    cell or follows from counts in split cells before it. Each round keys
    every vertex of a non-singleton cell by its negated counts in the split
    cells and puts the cell's pieces in ascending key order. All pieces but
    the last split the next round: a count in the last is the count in the
    old cell less those in the others. Vertices of one cell have one degree,
    so the key sorts as their sorted tuples of neighbour cell indices do:
    each round gives the ordered partition that keying every vertex by
    (cell, sorted neighbour cells) would, which depends only on the
    structure and the input, never on vertex labels.
    """
    while split:
        out, pieces = [], []
        for cell in cells:
            if not cell & cell - 1:
                out.append(cell)
                continue
            by_key = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                r = rows[low.bit_length() - 1]
                key = tuple([-(r & s).bit_count() for s in split])
                by_key[key] = by_key.get(key, 0) | low
            if len(by_key) == 1:
                out.append(cell)
            else:
                new = [by_key[k] for k in sorted(by_key)]
                out += new
                pieces += new[:-1]
        cells, split = out, pieces
    return cells


def _twins(rows):
    """twin[v], the least twin of v.

    Twins have equal open or equal closed neighbourhoods; no open
    neighbourhood equals another vertex's closed one, twinship is an
    equivalence relation, and swapping two twins is an automorphism.
    """
    first = {}
    twin = []
    for v, r in enumerate(rows):
        u = first.get(r, first.get(r | 1 << v, v))
        if u == v:
            first[r] = first[r | 1 << v] = v
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

    The pair (signature, matrix). signature = (n, m, sorted cell index of
    each vertex) over the refined degree partition is the colour-refinement
    invariant. matrix is the least relabelled adjacency matrix, its rows
    read as one n*n-bit integer, over the leaves of an
    individualisation-refinement search (McKay & Piperno, J. Symb. Comput.
    2014) on ordered lists of cell bitmasks, refined by _refine. The root is
    the degree cells in ascending degree. At each node the search takes the
    first cell with the fewest twin classes, two at least, and for each of
    its vertices v puts {v} before the rest of the cell, refines, and
    recurses. A node whose cells are each a single twin class has only
    automorphic leaves, so it is one leaf: its vertices in cell order, each
    cell ascending, rows relabelled from the bitsets.

    The search collects generators of automorphisms as it goes: the twin
    transpositions, built at the first orbit test, and the map from the best
    leaf to any leaf with an equal matrix. It skips a branch vertex in the
    orbit of an explored sibling under the generators that fix the current
    path pointwise. That subtree is an automorphic image of one already
    searched, with the same leaf matrices, so the pruning never changes the
    form. The form and the leaf generators are cached per graph.
    """
    cached = g.__dict__.get("_canon")
    if cached is not None:
        return cached
    n, rows = g.n, g.rows
    by_degree = {}
    for v, r in enumerate(rows):
        d = r.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = [by_degree[d] for d in sorted(by_degree)]
    # a count in the last degree cell is the degree less the counts in the others
    cells = _refine(rows, cells, cells[:-1])
    colors = [i for i, c in enumerate(cells) for _ in range(c.bit_count())]
    signature = (n, sum(map(int.bit_count, rows)) // 2, tuple(colors))
    twin = swaps = None
    gens = []
    best = best_order = None
    # one frame per open node: (path, cells, index of the branch cell,
    # unexplored branch vertices, explored branch vertices as bitmasks)
    frames = []
    node = ((), cells)
    while node is not None:
        path, cells = node
        width = 0
        if len(cells) < n:
            if twin is None:
                twin = _twins(rows)
            widths = [len({twin[v] for v in _bits(c)}) if c & c - 1 else 1 for c in cells]
            width = min((w for w in widths if w > 1), default=0)
        if width:
            i = widths.index(width)
            frames.append((path, cells, i, _bits(cells[i]), []))
        else:
            if len(cells) == n:
                order = [c.bit_length() - 1 for c in cells]
            else:
                order = [v for c in cells for v in _bits(c)]
            bit = {1 << v: 1 << i for i, v in enumerate(order)}
            leaf = 0
            for v in order:
                r, image = rows[v], 0
                while r:
                    low = r & -r
                    r ^= low
                    image |= bit[low]
                leaf = leaf << n | image
            if best is None or leaf < best:
                best, best_order = leaf, order
            elif leaf == best:
                perm = [0] * n
                for u, v in zip(best_order, order):
                    perm[u] = v
                gens.append(tuple(perm))
        node = None
        while frames and node is None:
            path, cells, i, todo, explored = frames[-1]
            v = next(todo, None)
            if v is None:
                frames.pop()
                continue
            if explored:
                swaps = swaps if swaps is not None else _swaps(twin)
                fixing = [p for p in swaps + gens if all(p[u] == u for u in path)]
                if 1 << v in _orbit(explored, fixing):
                    continue
            explored.append(1 << v)
            # the parent is equitable; a count in the rest of the cell is
            # the count in the cell less the one in {v}
            pair = [1 << v, cells[i] ^ 1 << v]
            node = (path + (v,), _refine(rows, cells[:i] + pair + cells[i + 1:], pair[:1]))
    result = (signature, best)
    g.__dict__["_canon"] = result
    if gens:
        g.__dict__["_leaf_auts"] = tuple(gens)
    return result


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


# Largest order canonicalised in a batch: a refinement key of order n is an
# integer below (n + 1) ** (n + 1), exact in float64 up to n = 12.
BATCH_MAX_ORDER = 12


def _canonical_forms(graphs):
    """canonical_form of each graph, in order.

    The uncached graphs of each order up to BATCH_MAX_ORDER, when the call
    holds two or more, are searched together by _search_level. A graph it
    leaves uncached, because its search goes deeper than one branching, and
    every other graph go to canonical_form alone.
    """
    graphs = list(graphs)
    levels = {}
    for g in graphs:
        if g.n <= BATCH_MAX_ORDER and "_canon" not in g.__dict__:
            levels.setdefault(g.n, []).append(g)
    for level in levels.values():
        if len(level) > 1:
            _search_level(level)
    return [canonical_form(g) for g in graphs]


def _bit_stack(graphs, n):
    """Float64 stack of the 0/1 adjacency matrices of graphs of order n,
    unpacked from their bitset rows."""
    width = (n + 7) // 8
    packed = b"".join(r.to_bytes(width, "little") for g in graphs for r in g.rows)
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
    return bits.reshape(len(graphs), n, 8 * width)[:, :, :n].astype(np.float64, order="C")


def _ranks(keys):
    """How many keys of its row, the last axis, are less than each key: equal
    keys share a rank and ranks keep the keys' order. As cell indices the
    ranks give the ordered partition the keys do."""
    return (keys[..., None, :] < keys[..., :, None]).sum(-1)


def _refine_stack(adj, cells):
    """_refine for a stack of ordered partitions: cells[..., v] is the _ranks
    index of v's cell and adj[..., v, u] the float64 adjacency, broadcast
    against cells. Each round keys a vertex by (cell, negated neighbour count
    per cell), read as one integer in base n + 1, and the ranks of the keys
    of each graph are its new cells, until no cell splits. That is the
    ordered partition _refine documents."""
    n = cells.shape[-1]
    # a cell's own digit, and the place value of a count in it
    high = np.array([c * (n + 1) ** n for c in range(n)], dtype=np.float64)
    low = np.array([(n + 1) ** (n - 1 - c) for c in range(n)], dtype=np.float64)
    while True:
        keys = high[cells] - (adj @ low[cells][..., None])[..., 0]
        refined = _ranks(keys)
        if np.array_equal(refined, cells):
            return cells
        cells = refined


def _cell_order(cells):
    """place[..., v], the position of v when the vertices are listed in cell
    order, each cell ascending, and order, the vertex at each position."""
    n = cells.shape[-1]
    earlier = np.arange(n) < np.arange(n)[:, None]
    place = cells + ((cells[..., :, None] == cells[..., None, :]) & earlier).sum(-1)
    order = np.empty_like(place)
    np.put_along_axis(order, place, np.arange(n), -1)
    return place, order


def _widths(cells, twin):
    """The number of vertices and of twin classes in each cell, indexed by
    the cell's _ranks index and 0 at an index no cell has; twin[..., v] is
    the least twin of v, broadcast against cells."""
    n = cells.shape[-1]
    earlier = np.arange(n) < np.arange(n)[:, None]
    same = (cells[..., :, None] == cells[..., None, :]) & (twin[..., :, None] == twin[..., None, :])
    member = cells[..., :, None] == np.arange(n)
    first = ~(same & earlier).any(-1)
    return member.sum(-2), (member & first[..., None]).sum(-2)


def _leaf_rows(adj, place):
    """The rows of adj relabelled by a leaf's vertex places, in place order,
    row i holding bit j iff the vertices at places i and j are adjacent."""
    n = place.shape[-1]
    bit = np.array([1 << j for j in range(n)], dtype=np.float64)
    image = (adj @ bit[place][..., None])[..., 0].astype(np.int64)
    rows = np.empty_like(image)
    np.put_along_axis(rows, place, image, -1)
    return rows


def _search_level(batch):
    """Cache canonical_form's form and generators for each graph of batch,
    all of one order, whose search stops at the root or one branching below
    it; leave the others uncached.

    numpy stacks refine the root partitions of all the graphs at once, then
    those of every child of their roots, each branch vertex individualised.
    Only the search's choices, its orbit pruning and leaf comparisons, run
    per graph, over the precomputed leaves. Cells are _ranks indices, so a
    cell's index is the place of its first vertex in the leaf order.
    """
    n = batch[0].n
    adj = _bit_stack(batch, n)
    cells = _refine_stack(adj, _ranks(adj.sum(-1)))
    # twin[:, v], the least twin of v as _twins finds it, comparing the open
    # and the closed neighbourhoods read as numbers
    bit = np.array([1 << v for v in range(n)], dtype=np.float64)
    open_rows = adj @ bit
    closed_rows = open_rows + bit
    same = ((open_rows[:, :, None] == open_rows[:, None, :])
            | (closed_rows[:, :, None] == closed_rows[:, None, :]))
    twin = np.where(same, np.arange(n), n).min(-1)
    sizes, widths = _widths(cells, twin)
    # the signature's sorted cell indices: the cell holding place p is the
    # last cell whose index is <= p, so it is cell number (their count - 1)
    colors = ((sizes[:, None, :] > 0) & (np.arange(n) <= np.arange(n)[:, None])).sum(-1) - 1
    edges = [sum(map(int.bit_count, g.rows)) // 2 for g in batch]
    forms = [(n, m, tuple(c)) for m, c in zip(edges, colors.tolist())]
    place, order = _cell_order(cells)
    branching = widths.max(-1) > 1

    at_root = np.flatnonzero(~branching)
    images = _leaf_rows(adj[at_root], place[at_root])
    for k, image in zip(at_root.tolist(), images.tolist()):
        batch[k].__dict__["_canon"] = (forms[k], _leaf_int(image, n))

    below = np.flatnonzero(branching)
    if not below.size:
        return
    adj, cells, twin, order = adj[below, None], cells[below], twin[below], order[below]
    # the first cell with the fewest twin classes, two at least, and its
    # vertices ascending, the last repeated up to the largest such cell
    i = np.where(widths[below] > 1, widths[below], n + 1).argmin(-1)[:, None]
    size = sizes[below, i[:, 0]]
    slot = np.arange(size.max())
    branch = np.take_along_axis(order, i + np.minimum(slot, size[:, None] - 1), -1)
    # each child puts {v} before the rest of the cell, whose index is then i + 1
    child = cells[:, None, :]
    picked = np.arange(n) == branch[..., None]
    child = _refine_stack(adj, child + ((child == i[..., None]) & ~picked))
    leafy = _widths(child, twin[:, None, :])[1].max(-1) <= 1
    place, order = _cell_order(child)
    images = _leaf_rows(adj, place)
    per_graph = zip(below.tolist(), leafy.all(-1).tolist(), twin.tolist(), branch.tolist(),
                    size.tolist(), images.tolist(), order.tolist())
    for k, shallow, tw, vs, s, image, leaf_order in per_graph:
        if shallow:
            best, gens = _replay(tw, vs[:s], image, leaf_order)
            g = batch[k]
            g.__dict__["_canon"] = (forms[k], _leaf_int(best, n))
            if gens:
                g.__dict__["_leaf_auts"] = tuple(gens)


def _replay(twin, branch, leaves, orders):
    """canonical_form's search below a root whose children are all leaves:
    branch lists the branch vertices ascending, leaves[j] the relabelled rows
    and orders[j] the vertex order of branch[j]'s leaf. Returns the least
    leaf's rows and the generators, with the same pruning and in the same
    order as canonical_form."""
    swaps, gens, explored = None, [], []
    best = best_order = None
    for v, leaf, order in zip(branch, leaves, orders):
        if explored:
            swaps = swaps if swaps is not None else _swaps(twin)
            if 1 << v in _orbit(explored, swaps + gens):
                continue
        explored.append(1 << v)
        if best is None or leaf < best:
            best, best_order = leaf, order
        elif leaf == best:
            perm = [0] * len(order)
            for u, w in zip(best_order, order):
                perm[u] = w
            gens.append(tuple(perm))
    return best, gens


def _leaf_int(rows, n):
    """A leaf's relabelled rows as one n*n-bit integer, the first row highest."""
    leaf = 0
    for image in rows:
        leaf = leaf << n | image
    return leaf


def are_isomorphic(g, h):
    """Exact isomorphism test: equal canonical forms."""
    return canonical_form(g) == canonical_form(h)


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
