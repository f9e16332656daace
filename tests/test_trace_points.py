"""The names the benchmark harness wraps and imports must exist in ecagg,
and every wrapped name must be called.

perfbench/run.py wraps each (module, name) in its TRACE_POINTS tuple to
time one layer's calls into the next; a name that no longer resolves, or
that the program no longer calls, does not fail the benchmark, it only
reads 0 on its per-layer metric.  The tuple is read from the source with
ast, so perfbench's own imports never run.
"""

import ast
import importlib
import importlib.resources
import random
from collections import Counter
from pathlib import Path

from ecagg import aggsim, elgamal

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


def test_trace_points_fire(curve, monkeypatch):
    # each name wrapped with a counter, then the calls the workloads make:
    # keygen, a run_round over the shipped demo tree (sensor-round), and a
    # fold and decrypt through elgamal's own names (relay-fold and
    # reader-decrypt)
    calls = Counter()

    def counted(point, fn):
        def wrapper(*args, **kwargs):
            calls[point] += 1
            return fn(*args, **kwargs)
        return wrapper

    points = [f"{module}.{name}" for module, name, _ in _trace_points()]
    for point in points:
        module, name = point.split(".")
        mod = importlib.import_module(f"ecagg.{module}")
        monkeypatch.setattr(mod, name, counted(point, getattr(mod, name)))
    keys = elgamal.keygen(random.Random(0x7ACE), curve)
    demo = aggsim.load_scenario(importlib.resources.files("ecagg").joinpath("data/demo.scenario"))
    assert aggsim.run_round(demo, keys, random.Random(1)).recovered_sum == 63
    rng = random.Random(2)
    folded = elgamal.ct_identity(curve)
    for m in (3, 4):
        data = elgamal.ct_to_bytes(elgamal.encrypt(keys.public_Y, m, rng))
        folded = elgamal.ct_add(folded, elgamal.ct_from_bytes(data, curve))
    assert elgamal.decrypt(keys.secret_x, folded, 100) == 7
    assert [point for point in points if not calls[point]] == []


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
