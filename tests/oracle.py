"""From-definition references for the tests.

Every function here works from a graph's edge list and the definition of
what it computes: distances by a queue BFS and by Floyd-Warshall, cut
vertices by deletion, blocks by a search over every vertex subset,
isomorphism and automorphisms by trying every permutation, clique trees by
Howorka's four-point condition, and trees by Prufer decoding and AHU
canonical strings. The only name imported from blockspectra is
from_edge_list, which the references use to build their graphs, so none of
them can call the algorithm it checks; tests/test_oracle.py guards this.
Seeded random draws and relabellings live here too, so every test draws
from the same code.
"""

import collections
import heapq
import itertools
import math

from blockspectra import from_edge_list


def neighbours(g):
    """Ascending neighbour list of every vertex."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def is_connected(g):
    """True iff a traversal from vertex 0 over the edge list reaches every vertex."""
    adj = neighbours(g)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def plain_bfs(g):
    """Distance rows by a queue BFS over adjacency lists; inf if unreachable."""
    adj = neighbours(g)
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


def is_clique_tree(g):
    """True iff g is connected and every block induces a complete subgraph.

    Read off the distances alone: a connected graph is a block graph exactly
    when, for every four vertices, the two largest of d(u,v)+d(w,x),
    d(u,w)+d(v,x) and d(u,x)+d(v,w) are equal (Howorka, J. Combin. Theory B
    27, 1979)."""
    d = plain_bfs(g)
    if math.inf in d[0]:
        return False
    for u, v, w, x in itertools.combinations(range(g.n), 4):
        _, middle, top = sorted((d[u][v] + d[w][x], d[u][w] + d[v][x], d[u][x] + d[v][w]))
        if middle != top:
            return False
    return True


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


def brute_isomorphic(g, h):
    if g.n != h.n or g.m != h.m:
        return False
    ge = set(map(frozenset, g.edges))
    he = set(map(frozenset, h.edges))
    for p in itertools.permutations(range(g.n)):
        if all(frozenset((p[u], p[v])) in he for u, v in ge):
            return True
    return False


def brute_automorphisms(g):
    """Every vertex permutation that maps the edge set onto itself."""
    edges = set(map(frozenset, g.edges))
    return [
        p
        for p in itertools.permutations(range(g.n))
        if all(frozenset((p[u], p[v])) in edges for u, v in g.edges)
    ]


def graph_canon(g):
    """Minimum edge set over all vertex relabelings. Exponential; n <= 6."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        relabeled = tuple(
            sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges)
        )
        if best is None or relabeled < best:
            best = relabeled
    return (g.n, best)


def brute_connected_classes(n):
    """graph_canon of every connected graph on n labelled vertices."""
    seen = set()
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = from_edge_list(n, edges)
        if is_connected(g):
            seen.add(graph_canon(g))
    return seen


def prufer_decode(seq, n):
    """Edge list of the labelled tree on n vertices with Prufer sequence seq."""
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [u for u in range(n) if deg[u] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def ahu_canon(n, edges):
    """Canonical string of a tree: AHU encoding rooted at the center."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    if n == 1:
        return "()"
    deg = [len(a) for a in adj]
    alive = [True] * n
    remaining = n
    layer = [u for u in range(n) if deg[u] == 1]
    while remaining > 2:
        nxt = []
        for u in layer:
            alive[u] = False
            remaining -= 1
            for v in adj[u]:
                if alive[v]:
                    deg[v] -= 1
                    if deg[v] == 1:
                        nxt.append(v)
        layer = nxt

    def rooted(r):
        parent = [-1] * n
        order = [r]
        seen = [False] * n
        seen[r] = True
        for u in order:
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    order.append(v)
        label = [""] * n
        for u in reversed(order):
            kids = sorted(label[v] for v in adj[u] if parent[v] == u)
            label[u] = "(" + "".join(kids) + ")"
        return label[r]

    return min(rooted(r) for r in range(n) if alive[r])


def relabelled(g, rng):
    """A copy of g under a permutation drawn by rng.shuffle."""
    p = list(range(g.n))
    rng.shuffle(p)
    return from_edge_list(g.n, [(p[u], p[v]) for u, v in g.edges])


def random_graph(rng, n, p=0.5):
    """Each pair u < v an edge with probability p, drawn in lexicographic order."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edge_list(n, edges)


def random_connected(rng, n, p=0.5):
    """The first connected graph that random_graph draws."""
    while True:
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g


def cycle_graph(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])
