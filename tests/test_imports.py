"""Every name a module of the package imports is referenced in that module.

An import left behind when its last use goes keeps a dependency that the
code no longer has.  Each module is parsed with ast, never imported, and a
name counts as used when the module loads it anywhere (an attribute chain
such as importlib.resources.files loads importlib).  __future__ imports are
directives, not names, and are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ecagg"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in loaded]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import importlib.resources\n"
              "import os\n"
              "from .errors import BadConfig, TableMismatch\n"
              "def f() -> BadConfig:\n"
              "    return importlib.resources.files('x')\n")
    assert unused_imports(source) == ["os", "TableMismatch"]
