"""Correctness checks of the benchmark's commands, independent of the package.

`verify` commands are checked against stored references: the exit code and
the SHA-256 of the report bytes with the `elapsed` line removed, which are the
behavioural contract of the reports. A command with no stored reference (a
clique-move seed outside the stored range) must exit 0 with no violations.

`spectrum` commands are checked against `numpy.linalg.eigh` of a matrix the
benchmark builds itself from the edge-list file it passed in. The family
graphs that `gen` writes are checked against the benchmark's own
constructions by comparing full adjacency spectra.
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np

_ELAPSED = re.compile(rb'\n *"elapsed": [^\n]*')

RADIUS_RTOL = 1e-9
VECTOR_ATOL = 1e-7


def report_digest(stdout):
    """SHA-256 of a JSON report with its `elapsed` line removed."""
    return hashlib.sha256(_ELAPSED.sub(b"", stdout)).hexdigest()


def report_instances(stdout):
    """checked + excluded of a JSON report, or None if it does not parse."""
    try:
        report = json.loads(stdout)
        return int(report["checked"]) + int(report["excluded"])
    except (ValueError, KeyError, TypeError):
        return None


def check_verify(returncode, stdout, reference):
    """True iff a verify command's output matches its reference.

    `reference` is {"exit": code, "sha256": digest}, or None when no reference
    is stored: then the command must exit 0 and report no violations.
    """
    if reference is not None:
        return returncode == reference["exit"] and report_digest(stdout) == reference["sha256"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return False
    return returncode == 0 and report.get("violations") == [] and report_instances(stdout) is not None


# -- graphs built by the benchmark itself ---------------------------------------


def family_edges(spec):
    """(n, edges) of a family spec, built without the package.

    Supports path:n, broom:n, cliquepath:s1,s2,... and cliquestar:e1,...;b;l
    (end cliques at cut vertex 0, a bridge clique holding 0 and 1, a last
    clique at 1). Labels may differ from the package's; only the isomorphism
    class matters to the checks.
    """
    name, _, rest = spec.partition(":")
    if name == "path":
        n = int(rest)
        return n, [(i, i + 1) for i in range(n - 1)]
    if name == "broom":
        n = int(rest)
        return n, [(0, 1), (1, 2)] + [(0, v) for v in range(3, n)]
    edges = []
    n = 0

    def clique(members):
        edges.extend((a, b) for i, a in enumerate(members) for b in members[i + 1 :])

    def fresh(k):
        nonlocal n
        n += k
        return list(range(n - k, n))

    if name == "cliquepath":
        sizes = [int(t) for t in rest.split(",")]
        joint = fresh(1)[0]
        for size in sizes:
            members = [joint] + fresh(size - 1)
            clique(members)
            joint = members[-1]
        return n, edges
    if name == "cliquestar":
        ends, bridge, last = rest.split(";")
        u, w = fresh(2)
        clique([u, w] + fresh(int(bridge) - 2))
        clique([w] + fresh(int(last) - 1))
        for size in ends.split(","):
            clique([u] + fresh(int(size) - 1))
        return n, edges
    raise ValueError(f"unsupported family spec {spec!r}")


def parse_edges(text):
    """(n, edges) of the edge-list text format."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    n, m = int(lines[0][0]), int(lines[0][1])
    edges = [(int(a), int(b)) for a, b in lines[1:]]
    if len(edges) != m:
        raise ValueError(f"header declares {m} edges, {len(edges)} follow")
    return n, edges


def format_edges(n, edges):
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def adjacency(n, edges):
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def distances(a):
    """Shortest-path distance matrix by breadth-first frontiers of matrix products."""
    n = len(a)
    d = np.full((n, n), -1.0)
    reach = np.eye(n, dtype=bool)
    frontier = reach
    d[reach] = 0.0
    level = 0
    while frontier.any():
        level += 1
        frontier = ((frontier.astype(float) @ a) > 0) & ~reach
        d[frontier] = level
        reach = reach | frontier
    if (d < 0).any():
        raise ValueError("graph is disconnected")
    return d


def matrix(n, edges, kind):
    a = adjacency(n, edges)
    return a if kind == "adjacency" else distances(a)


def same_graph_spectrum(n_a, edges_a, n_b, edges_b):
    """True iff two graphs have the same order, size and adjacency spectrum."""
    if n_a != n_b or len(edges_a) != len(edges_b):
        return False
    ev_a = np.linalg.eigvalsh(adjacency(n_a, edges_a))
    ev_b = np.linalg.eigvalsh(adjacency(n_b, edges_b))
    return bool(np.allclose(ev_a, ev_b, rtol=0.0, atol=1e-8))


def spectrum_reference(mat):
    """(radius, unit Perron vector with positive sum) by numpy.linalg.eigh."""
    values, vectors = np.linalg.eigh(mat)
    x = vectors[:, -1]
    return float(values[-1]), (x if x.sum() >= 0 else -x)


def check_spectrum(returncode, stdout, reference):
    """True iff `spectrum` printed the reference radius and Perron vector."""
    radius, vector = reference
    try:
        lines = stdout.decode().splitlines()
        value = float(lines[0])
        x = np.array([float(t) for t in lines[1].split()])
    except (ValueError, IndexError, UnicodeDecodeError):
        return False
    return (
        returncode == 0
        and len(lines) == 2
        and abs(value - radius) <= RADIUS_RTOL * max(1.0, abs(radius))
        and x.shape == vector.shape
        and float(np.abs(x - vector).max()) <= VECTOR_ATOL
    )
