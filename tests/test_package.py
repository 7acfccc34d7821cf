"""The package namespace re-exports exactly the layer modules' public names."""

import importlib

import blockspectra

LAYERS = ("graphs", "spectral", "families", "transforms", "verify")


def test_all_is_the_union_of_the_layer_lists():
    names = blockspectra.__all__
    assert len(names) == len(set(names))
    layers = [importlib.import_module(f"blockspectra.{m}").__all__ for m in LAYERS]
    assert set(names) == {name for layer in layers for name in layer} | {"__version__"}
    for name in names:
        assert getattr(blockspectra, name) is not None, name
