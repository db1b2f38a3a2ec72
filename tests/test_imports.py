"""No module under src/lgw/ imports a name it does not use.  No linter is
installed, so this reads each module's syntax tree with ``ast``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lgw"
# Imported to be looked up from outside, not used: lgw/__init__.py
# re-exports the package's public names, and perfbench/trace.py wraps
# cli.parse_graph where cli looks it up.
_MODULES = sorted(p for p in SRC.rglob("*.py") if p != SRC / "__init__.py")
_RE_EXPORTS = {"cli.py": {"parse_graph"}}


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        for name in names:
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _RE_EXPORTS.get(str(path.relative_to(SRC)), set())
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert _unused_imports(path) == []
