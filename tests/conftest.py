"""Shared test helpers.

The launch recipe for the tests that run `blockspectra` in a real process:
the child is started as `python -m blockspectra` with the directory holding
the imported package first on PYTHONPATH, so it runs the same source tree as
the test process: from a source checkout with `PYTHONPATH=src`, from any
working directory, and with or without the package installed.

Graph predicates that only tests need, read from the edge list, and a
counter of block decompositions.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from blockspectra import GraphError, block_decomposition


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


def is_clique_tree(g):
    """True iff g is connected and every block induces a complete subgraph."""
    try:
        blocks = block_decomposition(g).blocks
    except GraphError:
        return False
    edges = set(g.edges)
    return all(e in edges for b in blocks for e in itertools.combinations(sorted(b), 2))


@pytest.fixture
def decompositions(monkeypatch):
    """The graphs passed to block_decomposition from anywhere in the package,
    in call order."""
    calls = []

    def counted(g):
        calls.append(g)
        return block_decomposition(g)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "blockspectra" and (
            getattr(module, "block_decomposition", None) is block_decomposition
        ):
            monkeypatch.setattr(module, "block_decomposition", counted)
    return calls


class ModuleLaunch(NamedTuple):
    """The argv prefix and environment that start the command in a new process."""

    argv: list
    env: dict

    def run(self, *args, input=None):
        return subprocess.run(
            [*self.argv, *args], input=input, capture_output=True, text=True, env=self.env
        )


@pytest.fixture(scope="session")
def module_launch():
    import blockspectra

    package_root = str(Path(blockspectra.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return ModuleLaunch([sys.executable, "-m", "blockspectra"], env)
