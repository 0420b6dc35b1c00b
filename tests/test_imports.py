"""Source hygiene: every import in a wexpand module is used there, and every
top-level private name is used somewhere in the package."""
import ast
from pathlib import Path

import pytest

import wexpand

_PACKAGE = sorted(Path(wexpand.__file__).parent.glob("*.py"))
# `__init__.py` imports only to re-export.
_MODULES = [p for p in _PACKAGE if p.name != "__init__.py"]


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_gate_sees_an_unused_import():
    source = "import functools\nfrom math import pi, tau as t\nfrom __future__ import annotations\n"
    assert _unused_imports(source + "x = pi\n") == ["line 1: functools", "line 2: t"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Top-level private functions, classes and constants that no module reads.

    A name counts as read where it is loaded, taken as an attribute or
    imported; binding it does not count.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, ast.Assign):
                bound = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                bound = [node.target.id]
            else:
                continue
            dead += [f"{module}:{node.lineno}: {b}" for b in bound if _is_private(b) and b not in used]
    return dead


def test_every_private_top_level_name_is_used_in_the_package():
    sources = {p.name: p.read_text() for p in _PACKAGE}
    assert _unreferenced_private_names(sources) == []


def test_the_gate_sees_an_unused_private_name():
    sources = {
        "a.py": "def _dead():\n    pass\n\nclass _Gone:\n    pass\n\n_LIMIT = 3\n"
                "def _live():\n    return _KEPT\n\n_KEPT = 1\n__all__ = []\n",
        "b.py": "from .a import _live\n",
    }
    assert _unreferenced_private_names(sources) == ["a.py:1: _dead", "a.py:4: _Gone", "a.py:7: _LIMIT"]
