"""Shared test helpers.

The launch recipe for the tests that run `blockspectra` in a real process:
the child is started as `python -m blockspectra` with the directory holding
the imported package first on PYTHONPATH, so it runs the same source tree as
the test process: from a source checkout with `PYTHONPATH=src`, from any
working directory, and with or without the package installed.

A fixture that records the package's block decompositions. The
from-definition references the tests compare against live in oracle.py.
"""

import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from blockspectra import block_decomposition


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
