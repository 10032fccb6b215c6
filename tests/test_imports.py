"""Every name a library module imports is used in that module.

A standard-library scan of the source: a name bound by an import
statement in a module under src/coxcells/ must be read somewhere in that
module, as a name or as the root of an attribute chain.  Names listed in
the module's __all__ are exported, so they count as used, and the
package's __init__.py, which only re-exports, is not scanned.
"""

import ast
import pathlib

import pytest

import coxcells

SRC = pathlib.Path(coxcells.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _bound_names(node):
    """The names an import statement binds."""
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname:
            yield alias.asname
        elif isinstance(node, ast.Import):
            yield alias.name.split(".")[0]
        else:
            yield alias.name


def _exported(tree):
    """The strings of a module-level __all__ list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in _bound_names(node):
                imported.setdefault(name, node.lineno)
    used = _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = (
        "import os, sys as system\n"
        "from math import gcd, lcm\n"
        "from .errors import UsageError\n"
        "__all__ = ['lcm']\n"
        "print(os.sep, gcd)\n"
    )
    assert unused_imports(source) == [(1, "system"), (3, "UsageError")]
