"""Names that other code looks up in shiftlab modules are defined there.

These are the names in each module's ``__all__`` and the call sites that
the benchmark's tracer (``bench/spans.py``) patches by name.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def _bench_spans():
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_resolves():
    missing = []
    for module_name, attr, _ in _bench_spans().PATCH_SITES:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr}")
    assert missing == []
