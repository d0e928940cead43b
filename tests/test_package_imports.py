"""The import graph follows the commands: ``import fishergeo`` loads no
module of the package, an export loads its module on first access, and each
CLI command loads only the modules it runs.

The module sets are read in fresh processes, since this one has loaded the
whole package.
"""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

import fishergeo
from conftest import GOLDEN_DIR
from test_acceptance import GOLDEN_COMMANDS
from test_claim_ledger import export_table

#: The modules every command loads: the CLI and the wire formats it reads.
WIRE = {"cli", "errors", "simplex", "geometry", "markov", "models", "jsonio"}
#: The modules each command loads, by command.
LOADED = {
    "fisher": WIRE,
    "crb": WIRE,
    "push": WIRE,
    "pull": WIRE,
    "transport": WIRE | {"connections"},
    "duality": WIRE | {"connections"},
    "verify": WIRE | {"connections", "families", "verify", "batteries"},
    "characterize": WIRE | {"connections", "families", "verify", "batteries"},
}

#: Runs its Python statements in a fresh process, then prints the package's
#: loaded modules as a JSON list, without the ``fishergeo.`` prefix.
LOADED_AFTER = """
import json, sys
{statements}
print(json.dumps(sorted(
    name.removeprefix("fishergeo.") for name in sys.modules if name.startswith("fishergeo.")
)))
"""

RUN_CLI = """
import contextlib, io
from fishergeo import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
assert code == 0, code
"""


def loaded_after(statements: str, *args: str) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER.format(statements=statements), *args],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_every_command_is_covered():
    assert {args[0] for args in GOLDEN_COMMANDS.values()} == set(LOADED)


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_a_command_loads_only_its_modules(name):
    args = [str(GOLDEN_DIR / a) if a.startswith("inputs/") else a for a in GOLDEN_COMMANDS[name]]
    assert loaded_after(RUN_CLI, "--seed", "0", *args) == LOADED[args[0]]


def test_the_package_loads_no_module():
    assert loaded_after("import fishergeo") == set()


def test_an_export_loads_its_module_and_what_it_imports():
    assert loaded_after("from fishergeo import parse_family") == {"errors", "simplex", "families"}


def test_an_unknown_name_is_not_exported():
    with pytest.raises(ImportError):
        from fishergeo import nope  # noqa: F401
    with pytest.raises(AttributeError):
        fishergeo.cli_main  # noqa: B018


def test_star_import_yields_the_exports():
    namespace: dict = {}
    exec("from fishergeo import *", namespace)
    exports = {name for names in export_table().values() for name in names}
    assert set(namespace) - {"__builtins__"} == exports
    assert len(exports) == 66
    assert set(dir(fishergeo)) == exports == set(fishergeo.__all__)
