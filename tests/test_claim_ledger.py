"""The README's claim ledger, and the public surface cut to it.

The ledger table names, for each claim of the paper, the functions that
compute it, the checks and batteries that test it, its acceptance criterion
and its goldens and pins. This module reads the table and holds the package
to it:

- every name on the table resolves, and every golden, pin and criterion on
  it exists;
- every battery on the table runs in the acceptance suite;
- every public module-level name and public method of ``src/fishergeo`` is
  on the table, is referenced elsewhere in ``src/`` (not from ``__init__``
  and not only from another unplaced name), is a ``battery_<name>`` view
  that the benchmark calls by name, or is the console script ``cli.main``.

It also runs the README's quick tour and checks the results its comments
state.
"""
from __future__ import annotations

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

import test_acceptance
from conftest import GOLDEN_DIR

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fishergeo"
README = ROOT / "README.md"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def benchmark_views() -> set[str]:
    """The ``battery_<name>`` views the benchmark calls: the battery named by
    each ``battery_call(kind, "<name>", ...)`` and each ``battery_<name>``
    attribute it reads."""
    views = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "battery_call":
            views.add(f"batteries.battery_{node.args[1].value}")
        elif isinstance(node, ast.Attribute) and node.attr.startswith("battery_"):
            views.add(f"batteries.{node.attr}")
    return views


#: Placed whatever references them: the benchmark calls these views by name,
#: and ``cli.main`` is the ``fishergeo`` console script.
VIEWS = benchmark_views()
CONSOLE_SCRIPT = "cli.main"


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


def section(text: str, heading: str) -> str:
    """The body of the ``## heading`` section of a markdown text."""
    body = text.split(f"\n## {heading}\n", 1)[1]
    return body.split("\n## ", 1)[0]


def ledger_rows(text: str) -> list[dict[str, str]]:
    """The rows of the claim-ledger table, keyed by column header."""
    lines = [line for line in section(text, "Claim ledger").splitlines() if line.startswith("|")]
    cells = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    header, rows = cells[0], cells[2:]
    return [dict(zip(header, row)) for row in rows]


def ticked(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


def split_kinds(cell: str) -> dict[str, list[str]]:
    """``battery `a`; pins `b`, `c``` as {"battery": ["a"], "pin": ["b", "c"]};
    a part that names no kind is filed under ""."""
    kinds: dict[str, list[str]] = {}
    for part in cell.split(";"):
        word = part.split()[0].rstrip("s") if part.split() else ""
        kind = {"batterie": "battery"}.get(word, word)
        kind = kind if kind in ("battery", "golden", "pin") else ""
        kinds.setdefault(kind, []).extend(ticked(part))
    return kinds


class Ledger:
    def __init__(self, text: str) -> None:
        self.rows = ledger_rows(text)
        self.names: set[str] = set()
        self.batteries: set[str] = set()
        self.goldens: set[str] = set()
        self.pins: set[str] = set()
        self.criteria: set[int] = set()
        for row in self.rows:
            self.names.update(ticked(row["computed by"]))
            tested = split_kinds(row["tested by"])
            self.names.update(tested.get("", []))
            self.batteries.update(tested.get("battery", []))
            outputs = split_kinds(row["golden or pin"])
            self.goldens.update(outputs.get("golden", []))
            self.pins.update(outputs.get("pin", []))
            self.criteria.update(int(n) for n in re.findall(r"\d+", row["criterion"]))


@pytest.fixture(scope="module")
def ledger() -> Ledger:
    return Ledger(README.read_text(encoding="utf-8"))


def resolve(name: str):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"fishergeo.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_one_row_per_claim_and_criterion(ledger):
    claims = [row["claim"] for row in ledger.rows]
    assert [c.split(".")[0] for c in claims[:7]] == [str(k) for k in range(1, 8)]
    assert len(claims) == 9
    assert ledger.criteria == set(range(1, 11))


def test_every_name_resolves(ledger):
    assert ledger.names
    for name in sorted(ledger.names):
        resolve(name)


def test_every_criterion_golden_and_pin_exists(ledger):
    acceptance = set(dir(test_acceptance))
    for number in ledger.criteria:
        assert any(name.startswith(f"test_criterion_{number:02d}_") for name in acceptance), number
    # every golden and every pin belongs to some claim
    assert ledger.goldens == {p.stem for p in (GOLDEN_DIR / "expected").glob("*.json")}
    assert ledger.pins == {p.stem for p in (GOLDEN_DIR / "batteries").glob("*.json")}


def acceptance_batteries(monkeypatch, tmp_path) -> set[str]:
    """The batteries the acceptance suite runs: those whose ``battery_<name>``
    view it calls, and those its CLI golden commands reach."""
    tree = ast.parse(Path(test_acceptance.__file__).read_text(encoding="utf-8"))
    names = {
        node.func.id.removeprefix("battery_")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id.startswith("battery_")
    }
    from fishergeo import batteries, cli

    def recording(config):
        names.add(config["battery"])
        return run_battery(config)

    # cli imports run_battery from batteries when a command runs.
    run_battery = batteries.run_battery
    monkeypatch.setattr(batteries, "run_battery", recording)
    for args in test_acceptance.GOLDEN_COMMANDS.values():
        resolved = [str(GOLDEN_DIR / a) if a.startswith("inputs/") else a for a in args]
        cli.main(["--seed", "0", "--out", str(tmp_path / "out.json"), *resolved])
    return names


def test_every_battery_runs_in_the_acceptance_suite(ledger, monkeypatch, tmp_path):
    from fishergeo.batteries import _BATTERIES

    assert ledger.batteries <= set(_BATTERIES)
    assert ledger.batteries <= acceptance_batteries(monkeypatch, tmp_path)


# ---------------------------------------------------------------------------
# The public surface
# ---------------------------------------------------------------------------


class Unit:
    """A public module-level name or public method, with the AST it defines."""

    def __init__(self, module: str, qualname: str, node: ast.AST) -> None:
        self.module, self.qualname, self.node = module, qualname, node
        self.name = qualname.rsplit(".", 1)[1]
        self.method = qualname.count(".") == 2


def public_units(trees: dict[str, ast.Module]) -> list[Unit]:
    units = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_"):
                    units.append(Unit(module, f"{module}.{name}", node))
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        units.append(Unit(module, f"{module}.{node.name}.{member.name}", member))
    return units


def imports(trees: dict[str, ast.Module]) -> dict[tuple[str, str], set[str]]:
    """(module, name) -> the modules that import ``name`` from ``module``."""
    found: dict[tuple[str, str], set[str]] = {}
    for other, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    found.setdefault((node.module, alias.name), set()).add(other)
    return found


def reference(node: ast.AST) -> tuple[str, str] | None:
    """(kind, name) if ``node`` may name a unit: an attribute, a bare name
    read, or a string (the battery specs name their checks)."""
    if isinstance(node, ast.Attribute):
        return "attribute", node.attr
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return "name", node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
        return "name", node.value
    return None


def unplaced_names(sources: dict[str, str], table: set[str]) -> list[str]:
    """The public names of ``sources`` (module name -> source, without
    ``__init__``) that the placement rules above cannot place.

    A unit is referenced by an attribute of its name anywhere, and a
    module-level unit also by a bare name or a string in its own module or a
    module that imports it. A reference counts when it lies outside the
    unit's own definition and its innermost enclosing unit, if any, is placed.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    units = public_units(trees)
    enclosing: dict[int, list[Unit]] = {}  # outermost first
    for unit in units:
        for node in ast.walk(unit.node):
            enclosing.setdefault(id(node), []).append(unit)
    refs: dict[str, list[tuple[str, str, list[Unit]]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            found = reference(node)
            if found is not None:
                kind, name = found
                refs.setdefault(name, []).append((module, kind, enclosing.get(id(node), [])))
    imported = imports(trees)
    scopes = {unit: {unit.module, *imported.get((unit.module, unit.name), ())} for unit in units}
    placed = {
        unit for unit in units
        if unit.qualname in table or unit.qualname in VIEWS or unit.qualname == CONSOLE_SCRIPT
    }
    changed = True
    while changed:
        changed = False
        for unit in units:
            if unit in placed:
                continue
            for module, kind, around in refs.get(unit.name, []):
                visible = kind == "attribute" or (not unit.method and module in scopes[unit])
                if visible and unit not in around and (not around or around[-1] in placed):
                    placed.add(unit)
                    changed = True
                    break
    return sorted(unit.qualname for unit in units if unit not in placed)


def package_sources() -> dict[str, str]:
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def test_every_public_name_is_placed(ledger):
    assert unplaced_names(package_sources(), ledger.names) == []


@pytest.mark.parametrize("module", sorted(package_sources()))
def test_an_unreferenced_function_is_not_placed(ledger, module):
    """The scan is not vacuous: one more public function in any module fails it."""
    sources = package_sources()
    sources[module] += "\n\ndef unreferenced_helper(x):\n    return x\n"
    assert unplaced_names(sources, ledger.names) == [f"{module}.unreferenced_helper"]


def test_placement_needs_a_live_reference():
    """A name that only an unplaced name uses is itself unplaced."""
    sources = {
        "a": "def used():\n    return 1\n\n\ndef user():\n    return used()\n",
        "b": "from .a import used\n\nVALUE = used\n",
    }
    assert unplaced_names(sources, set()) == ["a.used", "a.user", "b.VALUE"]
    assert unplaced_names(sources, {"a.user"}) == ["b.VALUE"]
    assert unplaced_names(sources, {"b.VALUE"}) == ["a.user"]
    sources["b"] = "class Holder:\n    def method(self):\n        return 2\n"
    assert unplaced_names(sources, {"b.Holder"}) == ["a.used", "a.user", "b.Holder.method"]


def test_every_benchmark_view_resolves():
    """The benchmark's views are read from its source: each one it names exists."""
    assert VIEWS
    for name in sorted(VIEWS):
        resolve(name)


def export_table() -> dict[str, tuple[str, ...]]:
    """The package's export table, module -> names, read from its source."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"]
    ]
    return ast.literal_eval(table)


def test_every_export_resolves():
    import fishergeo

    table = export_table()
    exported = [(module, name) for module, names in table.items() for name in names]
    assert len(exported) == len({name for _, name in exported}) == 66
    for module, name in exported:
        assert getattr(fishergeo, name) is getattr(importlib.import_module(f"fishergeo.{module}"), name)


# ---------------------------------------------------------------------------
# The README quick tour
# ---------------------------------------------------------------------------


def quick_tour(text: str) -> str:
    body = section(text, "Library quick tour")
    return body.split("```python\n", 1)[1].split("```", 1)[0]


def trailing_comments(source: str) -> dict[int, str]:
    return {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }


def test_quick_tour_runs_and_its_comments_hold():
    """Each commented expression evaluates to the value after its last '= '."""
    source = quick_tour(README.read_text(encoding="utf-8"))
    comments = trailing_comments(source)
    namespace: dict = {}
    checked = []
    for statement in ast.parse(source).body:
        comment = comments.get(statement.end_lineno)
        if isinstance(statement, ast.Expr) and comment:
            value = eval(compile(ast.Expression(statement.value), "<tour>", "eval"), namespace)
            expected = eval(comment.rpartition("= ")[2], {})
            assert value == expected, (ast.unparse(statement), comment)
            checked.append(expected)
        else:
            exec(compile(ast.Module([statement], []), "<tour>", "exec"), namespace)
    assert checked == [3 / 16, True, "c*Cov with c=1"]
