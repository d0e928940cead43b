"""Modules of the package use each other's public names only.

A private name (leading underscore) is free to change with its module, so no
other module may import it. API decisions rely on this rule; this test keeps
it from eroding silently.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fishergeo"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_imports(source: str) -> list[str]:
    """``from .x import _name`` (relative or through the package) in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("fishergeo"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
    return found


def test_modules_found():
    assert {path.name for path in MODULES} >= {"models.py", "batteries.py", "verify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_import_across_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_detects_private_imports():
    source = (
        "from .models import _information, lifts\n"
        "from fishergeo.verify import _pair_matrix\n"
        "from . import _x\n"
        "from numpy import _private\n"
    )
    assert private_imports(source) == [
        "from .models import _information",
        "from fishergeo.verify import _pair_matrix",
        "from . import _x",
    ]
