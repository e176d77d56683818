"""Every name in __all__ resolves, in the package and in each public submodule.

The benchmark tracer wraps the functions it finds through __all__, so a
name left behind after its definition goes would break it as well.
"""

import importlib
import pkgutil

import pytest

import unitprune

PUBLIC = ["unitprune"] + [
    f"unitprune.{m.name}" for m in pkgutil.iter_modules(unitprune.__path__)
    if not m.name.startswith("_")
]


@pytest.mark.parametrize("name", PUBLIC)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
