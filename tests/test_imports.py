"""Every name a library module imports is used in that module, and every
function, stored attribute and parameter the library defines is read by
the library.

Standard-library scans of the source.  A name bound by an import
statement in a module under src/coxcells/ must be read somewhere in that
module, as a name or as the root of an attribute chain.  Names listed in
the module's __all__ are exported, so they count as used, and the
package's __init__.py, which only re-exports, is not scanned.

A function or method defined under src/coxcells/ must have its name read
somewhere in src/coxcells/, as a name or as an attribute; code that only
the tests reach belongs in tests/oracles.py.  Dunder methods are reached
through Python's protocols, and the few names kept for a caller outside
src/ are listed in REACHED_FROM_OUTSIDE with the reason.

A name a class stores (a __slots__ entry, a dataclass field, a
namedtuple field or the target of a self.<name> assignment) must be
loaded as an attribute somewhere in src/coxcells/, and a parameter must
be loaded as a name in its own function's body; storing, passing by
keyword or naming in a dict key is not reading.  Parameters named self
or cls or starting with an underscore are skipped, and READ_FROM_OUTSIDE
lists what only a caller outside src/ reads.  Attribute reads are
matched by name alone, so a read of a same-named attribute of any class
satisfies a stored name; READ_FROM_OUTSIDE also lists a name whose only
real readers are outside src/ although a namesake is read inside it.
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


# functions and methods that no src/ code reads, each with its caller
REACHED_FROM_OUTSIDE = {
    "CharacterTable.inner_product": "tests/test_acceptance.py calls it",
    "LaurentPoly.is_zero": "tests/test_acceptance.py calls it",
    "LaurentPoly.at_one": "tests/test_acceptance.py calls it",
    "LaurentPoly.monomial": "the LaurentPoly docstring example calls it",
}


def _definitions(node, owner=""):
    """(qualified name, name) of every function and method under node,
    nested functions included; methods are qualified by their class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield owner + child.name, child.name
            yield from _definitions(child, owner)
        elif isinstance(child, ast.ClassDef):
            yield from _definitions(child, child.name + ".")
        else:
            yield from _definitions(child, owner)


def unreferenced(sources: dict) -> list:
    """(module, qualified name) of every function or method defined in the
    {module: source} dict whose name no Name or Attribute node of any of
    the sources reads; dunder methods are skipped."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        (mod, qual)
        for mod, tree in trees.items()
        for qual, name in _definitions(tree)
        if name not in read and not (name.startswith("__")
                                     and name.endswith("__"))
    )


def _library_sources():
    return {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}


def test_every_function_is_reached_from_the_library():
    found = [(mod, qual) for mod, qual in unreferenced(_library_sources())
             if qual not in REACHED_FROM_OUTSIDE]
    assert found == []


def test_the_allowlist_names_library_functions():
    defined = {qual for src in _library_sources().values()
               for qual, _ in _definitions(ast.parse(src))}
    assert set(REACHED_FROM_OUTSIDE) <= defined
    assert all(REACHED_FROM_OUTSIDE.values())


def test_the_scan_finds_an_unreferenced_function():
    sources = {
        "a": (
            "def used():\n"
            "    def inner():\n"
            "        return 1\n"
            "    return inner()\n"
            "def orphan():\n"
            "    return used()\n"
            "class K:\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "    def method(self):\n"
            "        return 0\n"
            "    def stray(self):\n"
            "        return self.method()\n"
        ),
        "b": "from a import K\nK().stray()\n",
    }
    assert unreferenced(sources) == [("a", "orphan")]


# stored names and parameters that no src/ code reads, each with its reader
READ_FROM_OUTSIDE = {
    "InvolutionRecord.left_cell":
        "tests/test_acceptance.py criterion 3 groups the involutions by it",
    "InvolutionRecord.cell":
        "tests/test_acceptance.py criterion 3 and test_classify.py's "
        "test_h3_exceptional_involutions read it; src/ reads only the "
        "namesake IrrepRecord.cell",
    "analysis(jobs)": "tests/test_acceptance.py criterion 12 passes it",
    "classify_group_streamed(jobs)":
        "tests/test_acceptance.py criterion 12 passes it",
    "compute_gamma(jobs)": "perfbench's jobs probe passes it",
}


def _is_dataclass(cls):
    """Whether a dataclass decorator, called or not, decorates the class."""
    return any(ast.unparse(dec).split("(")[0].endswith("dataclass")
               for dec in cls.decorator_list)


def _namedtuple_fields(tree):
    """(qualified name, name) of every field of a namedtuple("Name",
    fields) call, fields being a tuple or list of strings or one string
    of names split by spaces or commas; qualified by the type name."""
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and len(call.args) >= 2
                and ast.unparse(call.func).endswith("namedtuple")):
            continue
        typename, fields = call.args[:2]
        if isinstance(fields, ast.Constant):
            names = fields.value.replace(",", " ").split()
        else:
            names = [elt.value for elt in fields.elts]
        for name in names:
            yield typename.value + "." + name, name


def _stored_names(tree):
    """(qualified name, name) of every name a class stores: a __slots__
    entry, a dataclass field, a namedtuple field or the target of a
    self.<name> assignment."""
    yield from _namedtuple_fields(tree)
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in node.targets
            ):
                for elt in node.value.elts:
                    yield cls.name + "." + elt.value, elt.value
            elif (isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name) and _is_dataclass(cls)):
                yield cls.name + "." + node.target.id, node.target.id
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                yield cls.name + "." + node.attr, node.attr


def _parameters(tree):
    """(qualified name, name, read) of every parameter of every function,
    read being whether the function's body loads it as a Name; self, cls
    and names starting with an underscore are skipped."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None]
        loaded = {node.id for stmt in fn.body for node in ast.walk(stmt)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        for name in params:
            if name not in ("self", "cls") and not name.startswith("_"):
                yield f"{fn.name}({name})", name, name in loaded


def unread_state(sources: dict) -> list:
    """(module, qualified name) of every stored name that no Attribute
    node of the {module: source} dict loads, and of every parameter its
    own function body never loads as a Name.  Store targets, call
    keywords and dict-key strings are not reads."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    found = set()
    for mod, tree in trees.items():
        found.update((mod, qual) for qual, name in _stored_names(tree)
                     if name not in loaded)
        found.update((mod, qual) for qual, _, read in _parameters(tree)
                     if not read)
    return sorted(found)


def test_all_stored_state_and_parameters_are_read_by_the_library():
    found = [(mod, qual) for mod, qual in unread_state(_library_sources())
             if qual not in READ_FROM_OUTSIDE]
    assert found == []


def test_the_state_allowlist_names_library_state():
    known = set()
    for src in _library_sources().values():
        tree = ast.parse(src)
        known.update(qual for qual, _ in _stored_names(tree))
        known.update(qual for qual, _, _ in _parameters(tree))
    assert set(READ_FROM_OUTSIDE) <= known
    assert all(READ_FROM_OUTSIDE.values())


def test_the_scan_finds_an_unread_attribute_and_parameter():
    sources = {
        "a": (
            "from collections import namedtuple\n"
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class R:\n"
            "    kept: int\n"
            "    dropped: int\n"
            "T = namedtuple('T', ('used', 'stray'))\n"
            "class U(namedtuple('U', 'first, idle')):\n"
            "    __slots__ = ()\n"
            "class S:\n"
            "    __slots__ = ('size', 'orphan')\n"
            "    def __init__(self, size, spare, _unused):\n"
            "        self.size = size\n"
            "        self.orphan = {'spare': 0}\n"
            "        self.tally = 0\n"
            "    def grow(self, by):\n"
            "        def inner():\n"
            "            return by\n"
            "        self.tally = inner()\n"
            "        return self.size\n"
        ),
        "b": (
            "from a import R, S, T, U\n"
            "r = R(kept=1, dropped=2)\n"
            "print(r.kept, S(1, 2, 3).grow(1), dict(orphan=0))\n"
            "print(T(1, stray=2).used, U(1, 2).first)\n"
        ),
    }
    assert unread_state(sources) == [
        ("a", "R.dropped"), ("a", "S.orphan"), ("a", "S.tally"),
        ("a", "T.stray"), ("a", "U.idle"), ("a", "__init__(spare)"),
    ]
