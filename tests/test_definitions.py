"""Every definition in the package has a reader outside its own body, and
every function parameter a reader inside it.

A module-level function, class or assignment (a constant or a type
alias), or a method, that nothing but its own body and the tests name is
dead code.  A reader is an identifier or attribute of that name in
``src/fedrank`` or ``bench/*.py``, or a name inside a ``bench/`` string
(the tracer's ``module:Class.method`` targets are strings).  Strings in
``src/``, docstrings included, are no readers, and neither is a re-export
from ``fedrank/__init__.py``: a name that only the package exports is read
by nothing but the tests.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fedrank"
BENCH = ROOT / "bench"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree: ast.Module):
    """(qualified name, name, first line, last line) of each module-level
    function, class and name assigned, and each method, that is not a dunder."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not re.fullmatch(r"__\w+__", name.id):
                        yield name.id, name.id, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not re.fullmatch(r"__\w+__", item.name):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def code_names(tree: ast.Module):
    """(name, line) of every identifier and attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unread(sources: dict[str, str], bench_sources: list[str]) -> list[str]:
    """``module.name`` of each definition in ``sources`` (module name to
    text) that has no reader."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read_at = defaultdict(list)  # name -> (module, line) of each identifier
    for module, tree in trees.items():
        for name, line in code_names(tree):
            read_at[name].append((module, line))
    outside = set()
    for text in bench_sources:
        tree = ast.parse(text)
        outside.update(name for name, _ in code_names(tree))
        outside.update(word for node in ast.walk(tree)
                       if isinstance(node, ast.Constant) and isinstance(node.value, str)
                       for word in re.findall(r"\w+", node.value))
    return [f"{module}.{qualified}"
            for module, tree in trees.items()
            for qualified, name, first, last in definitions(tree)
            if name not in outside
            and all(m == module and first <= line <= last for m, line in read_at[name])]


def test_finds_definitions_only_their_own_bodies_read():
    source = ("def used():\n    return 1\n\n"
              "def dead(n):\n    return dead(n - 1) + used()\n\n"
              "class A:\n    def __init__(self):\n        self.m()\n\n"
              "    def m(self):\n        return self.m()\n")
    assert unread({"mod": source}, []) == ["mod.dead", "mod.A"]
    assert unread({"mod": source}, ['TARGET = "fedrank.mod:A.m"', "dead(3)"]) == []
    assert unread({"mod": source.replace("self.m()\n\n", "pass\n\n")},
                  ["A(); dead(1)"]) == ["mod.A.m"]
    # A module-level constant or alias is read like a function; one that
    # names only itself is dead.
    names = ("LIMIT = 3\nUNUSED: int = LIMIT\nAlias = list[int]\nLOOP = [LOOP]\n"
             "__version__ = '1'\n\ndef f(x: Alias):\n    return x\n")
    assert unread({"mod": names}, ["f(1)"]) == ["mod.UNUSED", "mod.LOOP"]
    # A re-export is no reader.
    exports = "from .mod import dead, used\n"
    assert unread({"mod": source, "__init__": exports}, []) == ["mod.dead", "mod.A"]


def test_every_definition_has_a_reader():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    bench = [path.read_text() for path in sorted(BENCH.glob("*.py"))]
    assert unread(sources, bench) == []


def unread_parameters(sources: dict[str, str]) -> list[str]:
    """``module.function: parameter`` of each parameter (``self`` and ``cls``
    aside) that its function's body, nested functions included, never reads."""
    out = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, FUNCTIONS + (ast.Lambda,)):
                continue
            a = node.args
            params = [p for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            out += [f"{module}.{name}: {p.arg}" for p in params
                    if p.arg not in read and p.arg not in ("self", "cls")]
    return out


def test_finds_parameters_the_body_never_reads():
    source = ("def f(a, b, *args, c, **kw):\n    return a + kw['x']\n\n"
              "def g(x):\n    def inner():\n        return x\n    return inner\n\n"
              "class A:\n    def m(self, y):\n        return self\n\n"
              "h = lambda u, v: u\n")
    assert unread_parameters({"mod": source}) == [
        "mod.f: b", "mod.f: args", "mod.f: c", "mod.m: y", "mod.<lambda>: v"]


def test_every_parameter_is_read():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_parameters(sources) == []
