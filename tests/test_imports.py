"""Dead-name checks of the package source, with the standard library's
``ast`` alone: every imported name is used, and every private name a
module defines at its top level or as a class's method is read in that
module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hartsim"


def unused_imports(source: str) -> list:
    """Names a module binds by import and never references."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_check_finds_an_unused_import():
    source = "import os\nimport os.path as p\nfrom a import b, c as d\nb(d)\n"
    assert unused_imports(source) == ["os", "p"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_private_names(source: str) -> list:
    """``_name``s a module binds at its top level or defines as a class's
    methods and never reads; dunder names are left out."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        if isinstance(node, ast.ClassDef):
            defined.update(item.name for item in node.body
                           if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(name.id for target in targets for name in ast.walk(target)
                           if isinstance(name, ast.Name))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return sorted(name for name in defined - read
                  if name.startswith("_") and not name.endswith("__"))


def test_check_finds_an_unused_private_name():
    source = (
        "_USED, _STEPS = 1, 2\n_TABLE: dict = {}\n"
        "def _helper():\n    return _USED\n"
        "class _Gone:\n    pass\n"
        "class Tree:\n"
        "    def __len__(self):\n        return self._walk() + _helper()\n"
        "    def _walk(self):\n        return 0\n"
        "    def _stale(self):\n        self._stale = None\n"
    )
    assert unused_private_names(source) == ["_Gone", "_STEPS", "_TABLE", "_stale"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_every_private_name_it_defines(path):
    assert unused_private_names(path.read_text()) == []
