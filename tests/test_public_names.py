"""Every public top-level function and class of the package has a caller.

A public name that nothing references is API that nothing needs.  A name
counts as referenced when it is loaded, as a name or as an attribute,
anywhere in the package, in perfbench's modules or in the acceptance tests,
outside its own definition: a function calling only itself, or a class
naming only itself, has no caller.  Sources are parsed with ast, never
imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ecagg"
USERS = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

# name: why it stays without a caller in those sources
ALLOWED = {
    "parse_report": "the parser of the report emit_report writes; its round trip is tested",
}


def public_definitions(source: str) -> list[str]:
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def referenced(source: str) -> set[str]:
    """Names loaded in source, each top-level definition's own name left
    out of what that definition loads."""
    names = set()
    for stmt in ast.parse(source).body:
        loads = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        loads |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            loads.discard(stmt.name)
        names |= loads
    return names


def unreferenced(package: list[str], users: list[str]) -> list[str]:
    used = set().union(*map(referenced, package + users))
    return [name for source in package for name in public_definitions(source)
            if name not in used]


def test_every_public_name_is_referenced():
    package = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    users = [path.read_text(encoding="utf-8") for path in USERS]
    # an allowed name that gains a caller leaves the list
    assert sorted(unreferenced(package, users)) == sorted(ALLOWED)


def test_check_sees_self_references_and_attribute_calls():
    package = ["def f():\n    return g()\n"
               "def g():\n    return g()\n"
               "def _private():\n    pass\n"
               "class C:\n    def same(self):\n        return C\n"
               "class D:\n    pass\n",
               "from .m import D\nx = D()\n"]
    users = ["import m\nm.f()\n"]
    assert unreferenced(package, users) == ["C"]
    assert unreferenced(package, []) == ["f", "C"]
