"""Every name a shiftlab module lists in __all__ is defined there."""

import importlib
import pkgutil

import pytest

import shiftlab

MODULES = ["shiftlab"] + [
    f"shiftlab.{info.name}" for info in pkgutil.iter_modules(shiftlab.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert module.__all__, f"{module_name} has an empty __all__"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
