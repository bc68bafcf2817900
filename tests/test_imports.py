"""Unused-import lint over the package, its tests and its tools, from the
standard library's `ast`: a module that imports a name must read it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src/sixvertex", "tests", "tools")
                 for path in (ROOT / folder).glob("*.py"))


def unused_imports(source: str) -> list:
    """The names that `source` binds by an import but never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_lint_sees_an_unused_name():
    source = ("from numpy import cos, sin\nimport os.path\nimport re as regex\n"
              "from x import y as z\n\nprint(sin(1), os.path)\n")
    assert unused_imports(source) == [(1, "cos"), (3, "regex"), (4, "z")]
