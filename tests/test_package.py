"""The package namespace re-exports exactly the layer modules' public names,
and each of them, and each module-level private function, is used by the
package itself. The package computes spectra with its own eigensolvers."""

import ast
import importlib
from pathlib import Path

import blockspectra

LAYERS = ("graphs", "spectral", "families", "transforms", "verify")


def test_all_is_the_union_of_the_layer_lists():
    names = blockspectra.__all__
    assert len(names) == len(set(names))
    layers = [importlib.import_module(f"blockspectra.{m}").__all__ for m in LAYERS]
    assert set(names) == {name for layer in layers for name in layer} | {"__version__"}
    for name in names:
        assert getattr(blockspectra, name) is not None, name


def test_no_public_name_is_test_only():
    """Every public name is read somewhere in the package, not only defined
    and listed in __all__: what only tests use belongs to the tests."""
    read = set()
    for path in Path(blockspectra.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(set(blockspectra.__all__) - read - {"__version__"}) == []


def test_no_private_function_is_unread():
    """Every module-level private function is read somewhere in the package
    outside its own body, so a helper that its last caller stopped using,
    such as a superseded BFS loop, cannot linger."""
    defined, read = set(), set()
    for path in Path(blockspectra.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            if own and own.startswith("_") and not own.startswith("__"):
                defined.add(own)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    read.add(name)
    assert defined and sorted(defined - read) == []


def test_no_linear_algebra_from_numpy():
    """The package reads no numpy.linalg attribute and imports nothing from
    it, so every eigenvalue, orthonormal basis and norm it uses comes from
    its own code, not from LAPACK."""
    read = []
    for path in Path(blockspectra.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                if any("linalg" in name for name in names):
                    read.append(f"{path.name}:{node.lineno}: import")
            elif isinstance(node, ast.Attribute) and node.attr == "linalg":
                read.append(f"{path.name}:{node.lineno}: .linalg")
    assert read == []
