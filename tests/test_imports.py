"""Every name a package module imports is used in that module, and every
module-level private name is used by some package module.

An unused import is dead code, and here it also makes a dead binding site
for anything that wraps a function by the names it is bound to.
``__init__`` re-exports its imports, so it is left out of the import scan.
A private name (``_x``, not a dunder) that no module reads is a leftover.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "icregions"
SOURCES = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, lcm\nlcm(1, 2)\n") == [
        (1, "os"), (2, "gcd")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_private_names(sources: dict) -> list:
    """(module, line, name) of each module-level ``_x`` no module reads."""
    used = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [(module, node.lineno, name) for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in used]
    return unused


def test_scan_finds_an_unused_private_name():
    sources = {"a.py": "_read = 1\n_dead = 2\n__version__ = '1'\n"
                       "def _helper():\n    return _read\n",
               "b.py": "from .a import _helper\n"}
    assert unused_private_names(sources) == [("a.py", 2, "_dead")]


def test_no_unused_private_names():
    assert unused_private_names(SOURCES) == []
