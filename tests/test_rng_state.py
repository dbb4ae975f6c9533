"""Only ``rng.py`` touches a stream's key and counter.

Which words a draw reads is part of the protocol: clients rebuild the
network and the data split from the shared seed.  A module that moves a
stream's counter itself, or computes draws from its words, would have to
change in step with every change to ``rng.py``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fedrank"
PRIVATE = {"_counter", "_key"}


def stream_state_uses(source: str) -> list[tuple[str, int]]:
    """(attribute, line) of every read or write of a stream's private state."""
    return [(node.attr, node.lineno) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in PRIVATE]


def test_finds_reads_and_writes():
    source = "def f(rng):\n    at = rng._counter\n    rng._counter = at + 1\n    return rng._key\n"
    assert stream_state_uses(source) == [("_counter", 2), ("_counter", 3), ("_key", 4)]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "rng.py"],
                         ids=lambda p: p.name)
def test_only_rng_touches_stream_state(path):
    assert stream_state_uses(path.read_text()) == []
