"""Names that other code looks up in shiftlab modules are defined there.

These are the names in each module's ``__all__`` and the call sites that
the benchmark's tracer (``bench/spans.py``) patches by name.  The package
also keeps an inventory of its process-wide caches here, and of the one
place each kernel is entered from.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import shiftlab
from shiftlab import field, shiftcore

MODULES = ["shiftlab"] + [
    f"shiftlab.{info.name}" for info in pkgutil.iter_modules(shiftlab.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert module.__all__, f"{module_name} has an empty __all__"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


# library readers that no command calls: README's "File formats" section
# documents them, and bench/workloads.py calls hypergraph_from_json
UNREAD_EXPORTS = {
    "hypergraph_from_json", "complex_from_json", "hypergraph_from_text", "complex_from_text"
}


def test_every_exported_name_is_read_in_src():
    # a read is a loaded AST Name or Attribute in src/ outside __init__.py,
    # so docstrings and __all__ strings do not count: what only tests call
    # lives in tests/lemmas.py.  The public methods and properties of the
    # classes in src/ are held to the same rule
    reads = set(UNREAD_EXPORTS)
    methods = set()
    for path in Path(shiftlab.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(getattr(node, "ctx", None), ast.Load):
                    reads.add(getattr(node, "id", getattr(node, "attr", None)))
                if isinstance(node, ast.ClassDef):
                    methods.update(
                        (f"{path.stem}.{node.name}", item.name)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                    )
    unread = {
        f"{module_name}.{name}"
        for module_name in MODULES
        for name in importlib.import_module(module_name).__all__
        if name not in reads
    }
    unread |= {f"{owner}.{name}" for owner, name in methods if name not in reads}
    assert unread == set()


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


def test_process_wide_caches_are_keyed_or_bounded():
    # results are computed per call, apart from a bounded window of recent
    # partial shifts; the permutations and the generic unipotent per n and
    # the cell column orders per (n, k) are bounded tables, the Mersenne
    # prime fields of characteristic 0 one per table entry, and only the
    # k-subset lists, the extension fields per (p, e, seed) and the
    # golden-data loaders live on without a bound
    sizes = {}
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
        for owner in owners:
            for value in vars(owner).values():
                if hasattr(value, "cache_info"):
                    sizes[value.__qualname__] = value.cache_info().maxsize
    unbounded = {name for name, size in sizes.items() if size is None}
    assert unbounded == {"k_subsets", "_gf_extension_cached", "golden_data", "golden_graph_json"}
    bounded = {name: size for name, size in sizes.items() if size is not None}
    assert bounded == {
        "_partial_shift_cached": shiftcore.PARTIAL_SHIFT_CACHE_SIZE,
        "all_permutations": 16,
        "_unipotent": 16,
        "_cell_column_orders": 16,
        "_mersenne_field": len(field.MERSENNE_EXPONENTS),
    }


def _call_sites(callee: str) -> set[str]:
    """``module.function`` of every call in ``src/`` to a name or method ``callee``."""
    sites = set()
    for path in Path(shiftlab.__file__).parent.glob("*.py"):

        def visit(node, scope):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "attr", getattr(func, "id", None)) == callee:
                    sites.add(".".join([path.stem] + scope))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = scope + [node.name]
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text()), [])
    return sites


def test_each_kernel_has_one_entry():
    # every greedy column choice runs in one loop, every randomized point is
    # drawn by the one invertibility-retry loop with the key that the shift
    # kernel, its one caller, derives from the matrix and the layers, every
    # concrete field of a characteristic is picked by the one chooser, and
    # both shift graph builders expand their nodes in the one closure loop
    assert _call_sites("offer") == {"field.lex_first_bases"}
    assert _call_sites("sample_eval_point") == {"shiftcore._invertible_evaluation"}
    assert _call_sites("_invertible_evaluation") == {"shiftcore._shift_families"}
    assert _call_sites("_mersenne_field") == {"field.choose_field"}
    assert _call_sites("gf_extension") == {"field.choose_field"}
    assert _call_sites("_map_shift_edges") == {"shiftgraph._close"}
