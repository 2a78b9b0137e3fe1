"""Every name a module lists in ``__all__`` exists on it.

The benchmark tracer wraps each listed name with ``getattr``, so a stale
entry would only show up as a crash of a traced benchmark run."""

import importlib

import pytest


@pytest.mark.parametrize(
    "layer",
    ["cli", "counterexample", "functions", "group", "hardy", "kernels", "maximal", "transform", "verify"],
)
def test_every_public_name_resolves(layer):
    mod = importlib.import_module(f"vilenkin.{layer}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"vilenkin.{layer}.__all__ lists missing names {missing}"
