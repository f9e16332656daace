"""Every name a module of the package imports is referenced in that module,
and no module takes another module's private name.

An import left behind when its last use goes keeps a dependency that the
code no longer has.  Each module is parsed with ast, never imported, and a
name counts as used when the module loads it anywhere (an attribute chain
such as importlib.resources.files loads importlib).  __future__ imports are
directives, not names, and are exempt.

A name with one leading underscore is its module's own business.  Another
package module reaches it either by importing it (from .scalarmul import
_scan) or as an attribute of a package module it imports (scalarmul._scan);
the checker matches the latter by name, so a local variable that shadows
an imported module counts as that module.
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


# (importing module, module.name): why it stays; a pair no longer needed
# leaves the list
ALLOWED_PRIVATE = {
    ("elgamal", "scalarmul._track_rows"):
        "encrypt clears the one-entry recoding memo of k, until one pass over "
        "both of encrypt's chains replaces it",
}


def private_imports(source: str) -> list[str]:
    """'module.name' for each private name of another package module that
    source imports or reads as an attribute of an imported package module."""
    tree = ast.parse(source)
    found, modules = [], {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = node.module
        elif (node.module or "").partition(".")[0] == "ecagg":
            module = node.module.partition(".")[2] or None
        else:
            continue
        for alias in node.names:
            if module is None:
                # from . import scalarmul: a package module under a local name
                modules[alias.asname or alias.name] = alias.name
            elif _is_private(alias.name):
                found.append(f"{module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_takes_another_modules_private_name():
    found = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in private_imports(path.read_text(encoding="utf-8"))}
    assert found == set(ALLOWED_PRIVATE)


def test_private_check_sees_imports_and_module_attributes():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from . import scalarmul as sm, curve\n"
              "from .field import _reduce, mod_inv\n"
              "from ecagg.counters import _totals, __doc__\n"
              "from ecagg import aggsim\n"
              "from .curve import lift\n"
              "x = sm._track_rows(1), curve.lift, os._exit, lift._hidden, self._tables\n"
              "y = aggsim._parse_node\n")
    assert sorted(private_imports(source)) == [
        "aggsim._parse_node", "counters._totals", "field._reduce", "scalarmul._track_rows"]
