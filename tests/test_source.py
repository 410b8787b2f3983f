"""Checks on the package source itself rather than on its behaviour."""

import ast
from pathlib import Path

import pytest

import hanoiseq

MODULES = sorted(p for p in Path(hanoiseq.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports only to re-export


def unused_imports(source: str) -> list[str]:
    """Names an import binds that the rest of the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import sys\nfrom .words import Word, DomainError\nprint(Word)\n"
    assert unused_imports(source) == ["sys (line 1)", "DomainError (line 2)"]
