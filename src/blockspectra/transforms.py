"""Graph surgeries: moving an end clique between cut vertices and completing
blocks to cliques.

These are the operations the extremal claims compare across; which clique to
move where is chosen in the verify module, keeping the surgery itself
reusable. Each takes decomp, the caller's block_decomposition of g, so that
a caller decomposes each graph once.
"""

from __future__ import annotations

from .graphs import Graph, GraphError

__all__ = ["end_cliques", "move_clique", "complete_blocks"]


def end_cliques(g, decomp):
    """All (block, end cut vertex) pairs: blocks containing exactly one cut vertex.

    A single-block graph has no cut vertices and therefore no end cliques.
    """
    out = []
    for block in decomp.blocks:
        cuts_in_block = [v for v in sorted(block) if v in decomp.cut_vertices]
        if len(cuts_in_block) == 1:
            out.append((block, cuts_in_block[0]))
    return out


def move_clique(g, K, v, w, decomp):
    """Detach the end clique K from its cut vertex v and reattach it at w.

    Removes every edge from v into K - {v} and joins each vertex of K - {v}
    to w instead; internal edges of K - {v} stay. The result is a clique tree
    with the same block-size multiset. w = v returns g itself.

    decomp is trusted to be the block decomposition of a clique tree g; K, v
    and w are checked against it.
    """
    K = frozenset(K)
    if K not in decomp.blocks:
        raise GraphError(f"{sorted(K)} is not a block of the graph")
    cuts_in_block = [u for u in sorted(K) if u in decomp.cut_vertices]
    if len(cuts_in_block) != 1:
        raise GraphError(f"{sorted(K)} is not an end clique (cut vertices: {cuts_in_block})")
    if v != cuts_in_block[0]:
        raise GraphError(f"vertex {v} is not the end cut vertex of {sorted(K)}")
    if w not in decomp.cut_vertices:
        raise GraphError(f"vertex {w} is not a cut vertex")
    others = K - {v}
    if w in others:
        raise GraphError(f"target vertex {w} lies inside the moved clique")
    if w == v:
        return g
    rows = list(g.rows)
    for u in others:
        rows[v] &= ~(1 << u)
        rows[u] &= ~(1 << v)
        rows[w] |= 1 << u
        rows[u] |= 1 << w
    return Graph(g.n, rows)


def complete_blocks(g, decomp):
    """Add every missing edge inside each block, turning g into a clique tree.

    The result keeps the same blocks-as-vertex-sets and the same cut
    vertices; clique trees are fixed points.
    """
    rows = list(g.rows)
    for block in decomp.blocks:
        bmask = 0
        for u in block:
            bmask |= 1 << u
        for u in block:
            rows[u] |= bmask & ~(1 << u)
    return Graph(g.n, rows)

