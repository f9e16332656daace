"""The names the benchmark harness wraps and imports must exist in ecagg.

perfbench/run.py wraps each (module, name) in its TRACE_POINTS tuple to
time one layer's calls into the next; a name that no longer resolves does
not fail the benchmark, it only reads 0 on its per-layer metric.  The tuple
is read from the source with ast, so perfbench's own imports never run.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _trace_points():
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACE_POINTS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no TRACE_POINTS")


def _ecagg_imports():
    """(module, name) for every ``from ecagg[.x] import name`` in perfbench/."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ecagg":
                found += [(node.module, alias.name) for alias in node.names]
    return found


def test_trace_points_resolve():
    points = _trace_points()
    assert points
    missing = [f"{module}.{name}" for module, name, _ in points
               if not callable(getattr(importlib.import_module(f"ecagg.{module}"), name, None))]
    assert not missing


def test_perfbench_imports_resolve():
    imports = _ecagg_imports()
    assert imports
    missing = []
    for module, name in imports:
        mod = importlib.import_module(module)
        if not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{module}.{name}")
    assert not missing
