"""The package names the benchmark and the experiment scripts import.

perfbench/ and scripts/ are read with ast, never run or changed: every
`from gradedproj.<module> import <name>` in them must resolve, so a removal
from the package that would break them fails here first."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# names whose signatures the benchmark and the scripts rely on (ROADMAP item 7)
KEPT = {
    "BarycentricPoly", "ElementwisePoly", "reference_element", "lambda_nodal_product_table", "multi_indices",
    "conformity_violations", "hanging_vertex_violations", "accelerated_iterate", "measure_decay",
    "element_distance", "max_operator", "regularized_h_grading", "Weight", "LagrangeSpace", "CRSpace", "Operators",
}


def imported_names():
    """(file, module, name) of every `from gradedproj... import name`."""
    out = []
    for path in sorted(ROOT.glob("perfbench/*.py")) + sorted(ROOT.glob("scripts/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gradedproj":
                out += [(path.name, node.module, alias.name) for alias in node.names]
    return out


def test_benchmark_and_script_imports_resolve():
    found = imported_names()
    assert KEPT <= {name for _, _, name in found}
    missing = [(f, m, n) for f, m, n in found if not hasattr(importlib.import_module(m), n)]
    assert not missing, missing
