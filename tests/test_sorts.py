"""No stable argsort in the package: every stable order comes from
``ranking.stable_order``, which gives its bytes from numpy's SIMD sorts.
A ``kind="stable"`` (or its alias ``"mergesort"``) argsort elsewhere would
bypass it and bring back numpy's stable sort, 3-4x slower at float64
rankings of 18,432 to 1,605,632 entries.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fedrank"

STABLE_KINDS = ("stable", "mergesort")


def stable_argsorts(source: str) -> list[int]:
    """Line of every ``argsort`` call, as a function or a method, given a
    stable kind by keyword or by position."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        args = node.args + [k.value for k in node.keywords if k.arg == "kind"]
        if name == "argsort" and any(isinstance(a, ast.Constant) and a.value in STABLE_KINDS
                                     for a in args):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source, want", [
    ('np.argsort(x, kind="stable")\n', [1]),
    ('x = 1\nnumpy.argsort(-abs(x), axis=-1, kind="mergesort")\n', [2]),
    ('x.argsort(kind="stable")\n', [1]),
    ('argsort(x, -1, "stable")\n', [1]),
    ('np.argsort(x)\nnp.sort(x, kind="stable")\nnp.argsort(x, kind="quicksort")\n', []),
])
def test_finds_a_stable_argsort(source, want):
    assert stable_argsorts(source) == want


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_stable_argsort(path):
    assert stable_argsorts(path.read_text()) == []
