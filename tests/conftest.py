from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"

_ACCEPTANCE_OUTCOMES: dict[int, tuple[str, str]] = {}
_CRITERION_RE = re.compile(r"test_criterion_(\d+)_([a-z0-9_]+)")


def run_cli(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """Run the CLI in a subprocess and capture bytes exactly."""
    return subprocess.run(
        [sys.executable, "-m", "fishergeo.cli", *args],
        capture_output=True,
        cwd=cwd,
    )


def run_cli_in_process(*args: str) -> subprocess.CompletedProcess:
    """Run ``cli.main(args)`` in this process, as ``run_cli`` runs it in a
    fresh one: stdout and stderr captured as UTF-8 bytes, and a
    ``SystemExit`` (argparse's usage errors) turned into its exit code. An
    exception that would end the process with a traceback propagates."""
    from fishergeo import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
            if code is None:
                code = 0
            elif not isinstance(code, int):
                print(code, file=sys.stderr)
                code = 1
    return subprocess.CompletedProcess(
        ["fishergeo", *args], code, out.getvalue().encode(), err.getvalue().encode()
    )


def write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.fixture()
def cli(tmp_path: Path):
    """CLI runner bound to a scratch directory for input files; it runs the
    CLI in this process (``run_cli_in_process``)."""

    class Runner:
        def __init__(self) -> None:
            self.dir = tmp_path

        def file(self, name: str, payload) -> str:
            return str(write_json(self.dir / name, payload))

        def run(self, *args: str) -> subprocess.CompletedProcess:
            return run_cli_in_process(*args)

        def run_json(self, *args: str):
            proc = run_cli_in_process(*args)
            return proc.returncode, json.loads(proc.stdout or b"{}")

    return Runner()


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _CRITERION_RE.search(report.nodeid)
    if match:
        number = int(match.group(1))
        name = match.group(2).replace("_", " ")
        _ACCEPTANCE_OUTCOMES[number] = (name, report.outcome.upper())


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_OUTCOMES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE_OUTCOMES):
        name, outcome = _ACCEPTANCE_OUTCOMES[number]
        label = "PASS" if outcome == "PASSED" else outcome
        terminalreporter.write_line(f"criterion {number:2d} ({name}): {label}")
