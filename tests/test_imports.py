"""Every name a floqep module imports is used in that module, every
function and class it defines is used somewhere, and every UPPER_CASE
constant it assigns is read somewhere.

No linter ships with the project, so these are the checks for imports
and definitions left behind by a refactor.  ``__init__.py`` re-exports by
design, and an import statement whose first line carries ``# noqa: F401``
re-exports or keeps a name that something outside the module patches.  A
definition counts as used when the package exports it or its class, when
the benchmark's tracer patches it (``perfbench/tracing.py``), or when its
name is read elsewhere in the package; a constant, when its name is read
anywhere in the package.
"""

import ast
import re
import runpy
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "floqep"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the import statements of ``source`` that no
    expression reads, skipping ``__future__`` and ``# noqa: F401`` lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_a_leftover():
    source = "from dataclasses import dataclass, replace\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == ["line 1: replace"]
    assert unused_imports("import numpy as np  # noqa: F401\n") == []


# The dead-definition check: every function and class has a use.
PATCHES = runpy.run_path(str(PACKAGE.parents[1] / "perfbench" / "tracing.py"))["PATCHES"]


def _definitions(node, owner=""):
    """``(qualified name, node)`` of every function and class under
    ``node``; a class member is qualified by its class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{owner}{child.name}", child
            yield from _definitions(child, f"{child.name}." if isinstance(child, ast.ClassDef) else "")
        else:
            yield from _definitions(child, owner)


def _read_names(node) -> Counter:
    """How often each name is read under ``node``, as a variable or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def unused_definitions(trees: dict, kept: set) -> list[str]:
    """The functions and classes of ``trees`` (module name -> parsed
    source) that nothing uses.  A definition is used when its qualified
    name, or its class's, is in ``kept``, when it is a special method, or
    when its name is read anywhere outside its own body."""
    reads = sum((_read_names(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            owner, _, name = qualname.rpartition(".")
            if qualname in kept or owner in kept or (name.startswith("__") and name.endswith("__")):
                continue
            if reads[name] <= _read_names(node)[name]:
                unused.append(f"{module}: {qualname}")
    return unused


def test_every_definition_is_used():
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    exported = {alias.asname or alias.name for node in ast.walk(trees["__init__"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    patched = {attribute for _, _, attribute in PATCHES}
    assert unused_definitions(trees, exported | patched) == []


def test_the_check_sees_a_dead_definition():
    source = (
        "def used():\n    pass\n\n"
        "def leftover():\n    return leftover()\n\n"
        "class Exported:\n    def member(self):\n        pass\n\n"
        "class Hidden:\n    def __init__(self):\n        used()\n\n"
        "    def stale(self):\n        pass\n\n"
        "Hidden()\n"
    )
    unused = unused_definitions({"m": ast.parse(source)}, {"Exported"})
    assert unused == ["m: leftover", "m: Hidden.stale"]


# The dead-constant check: every module-level UPPER_CASE name has a reader.
def _constants(tree):
    """The UPPER_CASE names, a leading underscore allowed, that the
    module-level assignments of ``tree`` bind."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", n.id):
                        yield n.id


def unused_constants(trees: dict) -> list[str]:
    """The module-level constants of ``trees`` (module name -> parsed
    source) whose name nothing in ``trees`` reads."""
    reads = sum((_read_names(tree) for tree in trees.values()), Counter())
    return [f"{module}: {name}" for module, tree in trees.items() for name in _constants(tree) if not reads[name]]


def test_every_constant_is_read():
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert unused_constants(trees) == []


def test_the_check_sees_a_dead_constant():
    source = (
        "LIMIT = 3\n_SCALE, OTHER = 2.0, 1\nTABLE: dict = {}\nlower = LIMIT\n\n"
        "def f():\n    INNER = TABLE\n    return OTHER\n"
    )
    assert unused_constants({"m": ast.parse(source)}) == ["m: _SCALE"]
