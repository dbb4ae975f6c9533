"""Every definition in the package has a reader outside its own body,
every function parameter a reader inside it, and every parameter with a
default a caller that passes it.

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
import math
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


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def bench_sources() -> list[str]:
    return [path.read_text() for path in sorted(BENCH.glob("*.py"))]


def test_every_definition_has_a_reader():
    assert unread(package_sources(), bench_sources()) == []


# Definitions that only ``bench/`` reads: no run of the package uses them,
# and they go once the benchmark stops naming them.
BENCH_ONLY = (
    "ranking.decode_layer_ranking",
    "ranking.decode_sparse_ranking",
    "ranking.encode_layer_ranking",
    "ranking.encode_sparse_ranking",
    "ranking.sparse_vote",
    "ranking.truncate_ranking",
    "ranking.vote_network",
)


def test_bench_only_definitions_are_pinned():
    # The list may shrink with the benchmark; it must not grow unseen.
    sources = package_sources()
    bench_only = set(unread(sources, [])) - set(unread(sources, bench_sources()))
    assert tuple(sorted(bench_only)) == BENCH_ONLY


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
    assert unread_parameters(package_sources()) == []


# Parameters with a default that only the tests pass: the seams they need.
TEST_SEAMS = ("cli.main: argv",)


def unpassed_defaults(sources: dict[str, str], callers: list[str]) -> list[str]:
    """``module.function: parameter`` (``module.Class.method`` for a method)
    of each default-valued parameter, ``self`` and ``cls`` aside, of a
    function in ``sources`` that no call in ``sources`` or ``callers``
    passes.  Calls match by function name, and by class name for
    ``__init__``; a call passes a parameter by keyword, by covering its
    position, or with ``*`` or ``**``."""
    calls = defaultdict(list)
    for text in [*sources.values(), *callers]:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls[name].append(node)
    out = []
    for module, text in sources.items():
        tree = ast.parse(text)
        owner = {item: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for item in cls.body if isinstance(item, FUNCTIONS)}
        for node in ast.walk(tree):
            if not isinstance(node, FUNCTIONS):
                continue
            a = node.args
            positional = [p.arg for p in (*a.posonlyargs, *a.args) if p.arg not in ("self", "cls")]
            first = len(positional) - len(a.defaults)  # the last ones have defaults
            defaults = [(arg, i) for i, arg in enumerate(positional) if i >= first]
            defaults += [(p.arg, math.inf) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                         if d is not None]
            cls = owner.get(node)
            name = cls if node.name == "__init__" else node.name
            for arg, where in defaults:
                if not any(len(c.args) > where or any(isinstance(x, ast.Starred) for x in c.args)
                           or any(k.arg in (arg, None) for k in c.keywords)
                           for c in calls[name]):
                    out.append(f"{module}.{cls + '.' if cls else ''}{node.name}: {arg}")
    return out


def test_finds_defaults_no_call_passes():
    source = ("def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n\n"
              "class A:\n    def __init__(self, x=0, y=0):\n        pass\n\n"
              "    @classmethod\n    def make(cls, z=0):\n        return cls()\n\n"
              "def g(u=0, v=0):\n    return u\n\n"
              "f(0, 1, e=5)\nA(1)\nA.make()\ng(*[1])\n")
    assert unpassed_defaults({"mod": source}, []) == [
        "mod.f: c", "mod.f: d", "mod.A.__init__: y", "mod.A.make: z"]
    assert unpassed_defaults({"mod": source}, ["f(0, 1, 2, d=3)", "A(y=2)", "a.make(**kw)"]) == []


def test_every_default_is_passed():
    assert unpassed_defaults(package_sources(), bench_sources()) == list(TEST_SEAMS)
