"""The package names the benchmark and the experiment scripts import, and
how they call them.

perfbench/ and scripts/ are read with ast, never run or changed: every
`from gradedproj.<module> import <name>` in them must resolve, and every call
of such a name must bind to its signature, so a removal or a renamed
parameter that would break them fails here first."""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# names whose signatures the benchmark and the scripts rely on (ROADMAP item 7)
KEPT = {
    "BarycentricPoly", "ElementwisePoly", "reference_element", "lambda_nodal_product_table", "multi_indices",
    "conformity_violations", "hanging_vertex_violations", "accelerated_iterate", "measure_decay",
    "element_distance", "max_operator", "regularized_h_grading", "Weight", "LagrangeSpace", "CRSpace", "Operators",
}


def _sources():
    return [(path.name, ast.parse(path.read_text())) for path in sorted(ROOT.glob("perfbench/*.py")) + sorted(ROOT.glob("scripts/*.py"))]


def _imports(tree):
    """{local name: (module, name)} of every `from gradedproj... import name` in the tree."""
    return {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gradedproj"
        for alias in node.names
    }


def imported_names():
    """(file, module, name) of every `from gradedproj... import name`."""
    return [(name, module, imported) for name, tree in _sources() for module, imported in _imports(tree).values()]


def test_benchmark_and_script_imports_resolve():
    found = imported_names()
    assert KEPT <= {name for _, _, name in found}
    missing = [(f, m, n) for f, m, n in found if not hasattr(importlib.import_module(m), n)]
    assert not missing, missing


def test_benchmark_and_script_calls_bind():
    # each call of an imported name, its positional count and keyword names
    # bound to the signature with placeholder values
    calls, unbound = 0, []
    for file, tree in _sources():
        names = _imports(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names:
                module, name = names[node.func.id]
                signature = inspect.signature(getattr(importlib.import_module(module), name))
                try:
                    signature.bind(*[None] * len(node.args), **{kw.arg: None for kw in node.keywords})
                except TypeError as exc:
                    unbound.append((file, node.lineno, name, str(exc)))
                calls += 1
    assert calls and not unbound, unbound
