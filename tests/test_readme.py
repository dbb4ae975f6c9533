"""README's "Library use" block runs as written, and its import list is the
package root's public surface: the root exports what a run uses and no
more, so removing an internal name never breaks a caller of the root."""

import ast
import re
import types
from pathlib import Path

import fedrank

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_block_runs(capsys):
    exec(compile(library_block(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert 0.0 <= float(lines[0]) <= 1.0
    assert lines[1] == "[0 2 4 5 3 1] [ 2 12  3 11  8  9]"


def test_root_exports_the_block_imports():
    imports = [node for node in ast.walk(ast.parse(library_block()))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(isinstance(node, ast.ImportFrom) and node.module == "fedrank"
               for node in imports)
    imported = {alias.name for node in imports for alias in node.names}
    public = {name for name, value in vars(fedrank).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == imported
