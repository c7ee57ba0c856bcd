"""An unused-import check of the package source, with the standard
library's ``ast`` alone.  ``__init__.py`` imports only to re-export, so
it is left out."""

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


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
