"""The exported names: every __all__ entry of the package resolves."""

import importlib
import pkgutil

import pytest

import cesaro

MODULES = ["cesaro", *(f"cesaro.{info.name}"
                       for info in pkgutil.iter_modules(cesaro.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a pruned name left in __all__ makes "from <module> import *" raise
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
