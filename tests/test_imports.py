"""Source hygiene: every import in a wexpand module is used there."""
import ast
from pathlib import Path

import pytest

import wexpand

# `__init__.py` imports only to re-export.
_MODULES = sorted(p for p in Path(wexpand.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
