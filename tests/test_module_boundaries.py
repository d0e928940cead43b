"""Modules of the package use each other's public names only, and the
batching contract of the kernels stays in ``errors``.

A private name (leading underscore) is free to change with its module, so no
other module may import it. API decisions rely on this rule; this test keeps
it from eroding silently. Likewise, trials are grouped by shape through
``errors.by_shape`` only, so no other module builds its own groups, and a
grammar family is told from a plugin in ``verify._pair_matrices`` only, so
no other code evaluates a family its own way. The exact oracle of the tests,
``tests/exact.py``, imports the standard library only, so no arithmetic it
certifies can hide in a helper it shares.
"""
from __future__ import annotations

import ast
import sys
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


def list_groupings(source: str) -> list[int]:
    """The lines of ``source`` that group into a dict of lists, as
    ``groups.setdefault(key, []).append(item)``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        inner = node.func.value
        if (
            node.func.attr == "append"
            and isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Attribute)
            and inner.func.attr == "setdefault"
            and len(inner.args) == 2
            and isinstance(inner.args[1], ast.List)
            and not inner.args[1].elts
        ):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_trials_are_grouped_in_errors_only(path):
    found = list_groupings(path.read_text(encoding="utf-8"))
    if path.name == "errors.py":
        assert len(found) == 1
    else:
        assert found == []


def test_detects_list_groupings():
    source = (
        "groups.setdefault((n, m), []).append(t)\n"
        "config.setdefault('seed', 0)\n"
        "found.setdefault(key, set()).add(other)\n"
        "kinds.setdefault(kind, []).extend(items)\n"
        "\n"
        "by_size.setdefault(stack.shape[1], []).append(i)\n"
    )
    assert list_groupings(source) == [1, 6]


def family_type_tests(source: str) -> list[str]:
    """The function around each ``type(<x>) is CandidateFamily`` in ``source``
    (also ``is not``, ``==``, ``!=``, either side, or ``<module>.CandidateFamily``),
    one entry per test, ``<module>`` outside any function."""
    def is_type_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "type" and len(node.args) == 1)

    def is_family_class(node):
        return (isinstance(node, ast.Name) and node.id == "CandidateFamily") or (
            isinstance(node, ast.Attribute) and node.attr == "CandidateFamily"
        )

    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) and (
                    (is_type_call(left) and is_family_class(right))
                    or (is_family_class(left) and is_type_call(right))
                ):
                    found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_a_grammar_family_is_told_from_a_plugin_in_pair_matrices_only():
    found = {path.name: family_type_tests(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name: scopes for name, scopes in found.items() if scopes} == {"verify.py": ["_pair_matrices"]}


def test_detects_family_type_tests():
    source = (
        "if type(family) is CandidateFamily:\n"
        "    pass\n"
        "def outer(f):\n"
        "    def inner(g):\n"
        "        return type(g) is not families.CandidateFamily\n"
        "    return CandidateFamily == type(f)\n"
        "def ignored(f):\n"
        "    return isinstance(f, CandidateFamily) or type(f) is int or type(f, g) is CandidateFamily\n"
    )
    assert family_type_tests(source) == ["<module>", "inner", "outer"]


def top_level_imports(source: str) -> list[str]:
    """The top-level package of every import in ``source``, a relative one as ``.``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append("." if node.level else node.module.split(".")[0])
    return found


def test_the_exact_oracle_imports_the_standard_library_only():
    """No numpy and no fishergeo: a reference generation retires on the
    oracle's word (ROADMAP item 17), so the oracle shares nothing with them."""
    found = top_level_imports((Path(__file__).parent / "exact.py").read_text(encoding="utf-8"))
    assert "fractions" in found
    assert [name for name in found if name not in sys.stdlib_module_names] == []


def test_detects_imports_outside_the_standard_library():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from fishergeo.verify import x\n"
        "from . import y\n"
        "import os.path\n"
    )
    found = top_level_imports(source)
    assert found == ["__future__", "numpy", "fishergeo", ".", "os"]
    assert [name for name in found if name not in sys.stdlib_module_names] == ["numpy", "fishergeo", "."]

