"""The package imports nothing outside itself and the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "endospec"


def _top_level_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_no_runtime_dependencies():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = {
        f"{path.name}: {name}"
        for path in sources
        for name in _top_level_imports(path)
        if name != "endospec" and name not in sys.stdlib_module_names
    }
    assert not foreign, sorted(foreign)
