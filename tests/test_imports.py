"""Every import in the package sits at module level, and none of them
brings in threads or processes.

An import made inside a function body usually hides an import cycle
between two modules; at module level the cycle fails when the package is
imported, where it is seen at once.

A round trains its cohorts in order.  In-run parallelism comes back only
with a benchmark workload that runs it, so that its speed is measured, not
assumed; until then no module imports ``threading``,
``concurrent.futures`` or ``multiprocessing``.
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


PARALLEL_MODULES = ("threading", "concurrent.futures", "multiprocessing")


def parallel_imports(source: str) -> list[tuple[str, int]]:
    """(module, line) of every import statement that brings in one of
    PARALLEL_MODULES or a submodule, ``from concurrent import futures``
    included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        hits = [name for name in names
                if any(name == m or name.startswith(m + ".") for m in PARALLEL_MODULES)]
        if hits:
            found.append((hits[0], node.lineno))
    return found


@pytest.mark.parametrize("source, want", [
    ("import threading\n", [("threading", 1)]),
    ("import os, multiprocessing.pool\n", [("multiprocessing.pool", 1)]),
    ("from concurrent.futures import ThreadPoolExecutor\n", [("concurrent.futures", 1)]),
    ("from concurrent import futures\n", [("concurrent.futures", 1)]),
    ("def f():\n    import threading\n", [("threading", 2)]),
    ("import concurrent\nfrom . import threading\nimport threadingx\n", []),
])
def test_finds_a_parallel_import(source, want):
    assert parallel_imports(source) == want


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    assert function_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_thread_or_process_import(path):
    assert parallel_imports(path.read_text()) == []
