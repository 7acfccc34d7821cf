"""The test references stand apart from the code they check, and each is
written once.

oracle.py builds its graphs with blockspectra's from_edge_list and reads
nothing else from the package, so no reference can quietly start calling
the algorithm it is a reference for. No helper is defined in two test
modules, so a fix to one copy cannot miss the other.
"""

import ast
import collections
from pathlib import Path

TESTS = Path(__file__).parent


def test_oracle_imports_only_from_edge_list():
    imported = []
    for node in ast.walk(ast.parse((TESTS / "oracle.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names if a.name.split(".")[0] == "blockspectra"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "blockspectra":
            imported += [f"{node.module}.{a.name}" for a in node.names]
    assert imported == ["blockspectra.from_edge_list"]


def test_no_helper_is_defined_in_two_modules():
    defined = collections.defaultdict(list)
    for path in sorted(TESTS.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("test_"):
                defined[top.name].append(path.name)
    assert {name: where for name, where in defined.items() if len(where) > 1} == {}
