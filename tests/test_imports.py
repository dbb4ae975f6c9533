"""Every import in the package sits at module level.

An import made inside a function body usually hides an import cycle
between two modules; at module level the cycle fails when the package is
imported, where it is seen at once.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fedrank"


def function_imports(source: str) -> list[tuple[str, int]]:
    """(function name, line) of every import statement inside a function."""
    return [(fn.name, node.lineno)
            for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_finds_an_import_in_a_method():
    source = "class A:\n    def f(self):\n        from .b import c\n        return c\n"
    assert function_imports(source) == [("f", 3)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    assert function_imports(path.read_text()) == []
