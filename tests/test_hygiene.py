"""Source hygiene: every name a growth module imports is used in that
module (or re-exported through its __all__)."""

import ast
from pathlib import Path

import pytest

import growth

MODULES = sorted(Path(growth.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that nothing else in the module
    reads, minus the names listed in __all__."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


def test_detects_unused_import():
    source = "import os\nfrom math import comb, factorial\nprint(comb)\n"
    assert unused_imports(source) == ["factorial (line 2)", "os (line 1)"]


def test_all_counts_as_use():
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
