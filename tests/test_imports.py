"""Every name a library module imports is used in that module.

The package ``__init__.py`` imports to re-export, and ``from __future__``
imports switch on language features, so both are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bfredholm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _annotations(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.arg | ast.AnnAssign):
        return [node.annotation] if node.annotation else []
    if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
        return [node.returns] if node.returns else []
    return []


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = _names(tree)
    # a quoted annotation such as -> "Polynomial" reads the names inside it
    for node in ast.walk(tree):
        for ann in _annotations(node):
            for c in ast.walk(ann):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    used |= _names(ast.parse(c.value, mode="eval"))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_unused_names():
    src = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import gcd, lcm as least\n"
        "from .scalars import ZERO\n"
        "from .poly import Polynomial, P_ZERO\n"
        "def f(x: 'Polynomial') -> int:\n"
        "    return gcd(x, 2) or 'P_ZERO'\n"
    )
    assert unused_imports(src) == ["line 2: os", "line 3: least", "line 4: ZERO", "line 5: P_ZERO"]
