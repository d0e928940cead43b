"""Workloads of the fishergeo benchmark: seeded call plans and their gates.

Every workload is a closed loop driven by one client. The loop runs rounds;
a round is a fixed list of call kinds, and every call in round ``r`` draws
fresh inputs from ``(seed, r)``. Only generated inputs reach the library:
battery seeds and sizes, family expressions, model parameters and config
files. Round 0 is the warm-up round.

Each call is split into ``run`` (the timed library work) and ``check`` (the
untimed gate, which also returns the payload hashed into the digest). The
expectations follow from the mathematics, never from a recorded run:

* the batteries test theorems (monotonicity, invariance, strong invariance,
  Cramér-Rao, weak invariance of connections, the pairing identity for the
  covariance family), so each must pass with no witness;
* e/m duality holds exactly, so the central-difference residual at step
  1e-4 stays within the acceptance tolerance 1e-6;
* ``a*L2 + b*MM`` decomposes with ``(c1, c2) = (a, b)`` and COV = L2 - MM,
  and the family kills constants exactly when ``c1 + c2 = 0``;
* ``PK(k)`` with k != 1 is ``n**-k * I`` at the uniform n-point, so the first
  block lift (2 -> 4 points) changes the indicator value from ``2**-k`` to
  ``2 * 4**-k``: a ``cross_dimension`` witness with exactly that gap;
* ``PK(2)`` is not invariant, so its pairing battery finds violations, and
  every witness replays bitwise;
* the golden CLI commands print ``tests/golden/expected/<name>.json`` byte
  for byte and exit 0, since each reports a passing result.
"""
from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
OUT = Path(__file__).resolve().parent / "out"

#: Threads for BLAS and OpenMP in the benchmark and every process it starts.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Acceptance tolerance for the e/m duality residual at step 1e-4.
DUALITY_TOL = 1e-6
#: Acceptance tolerance on the constants found by ``characterize``.
CONSTANTS_TOL = 1e-10

#: Families that decompose, with their analytic (c1, c2).
DECOMPOSING = {
    "COV": (1.0, -1.0),
    "L2": (1.0, 0.0),
    "MM": (0.0, 1.0),
    "2*COV": (2.0, -2.0),
    "1*L2 + 0.5*MM": (1.0, 0.5),
}
#: Families that yield a witness, with their exponent k.
WITNESSING = {"PK(2)": 2, "PK(-1)": -1, "PK(3)": 3}

#: The golden commands of acceptance criterion 10, run with ``--seed 0``.
GOLDEN_COMMANDS = {
    "fisher_bernoulli": ["fisher", "--model", "inputs/bernoulli.json", "--xi", "0.5"],
    "crb_line_strict": [
        "crb", "--model", "inputs/line_model.json", "--xi", "0.25",
        "--estimators", "inputs/estimators_strict.json",
    ],
    "push_coembed": [
        "push", "--channel", "inputs/coembed_112.json",
        "--p", "inputs/dist_q3.json", "--vector", "inputs/tangent_q3.json",
    ],
    "pull_embed": [
        "pull", "--channel", "inputs/embed_112.json",
        "--p", "inputs/dist_qf.json", "--vector", "inputs/cotangent_q3.json",
    ],
    "transport_e": [
        "transport", "--mode", "e", "--vector", "inputs/tangent_half.json",
        "--to", "inputs/dist_quarter.json",
    ],
    "duality_bernoulli": ["duality", "--model", "inputs/bernoulli.json", "--xi", "0.3"],
    "verify_strong_invariance": ["verify", "--config", "inputs/verify_strong.json"],
    "characterize_cov": [
        "characterize", "--family", "COV", "--n-max", "4",
        "--denominator-bound", "16", "--trials", "2",
    ],
}


class SetupError(Exception):
    """The checkout does not hold a usable fishergeo source tree."""


def load_library():
    """Import fishergeo from the checkout's ``src`` and nowhere else."""
    if not (SRC / "fishergeo" / "__init__.py").is_file():
        raise SetupError(f"no fishergeo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fishergeo
    import fishergeo.cli

    if not Path(fishergeo.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"fishergeo imported from {fishergeo.__file__}, not {SRC}")
    return fishergeo


def child_env() -> dict:
    """Environment for child processes: the checkout's sources, one thread."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _lib(module: str):
    # Looked up at call time, so the tracer's rebound names are the ones called.
    return importlib.import_module(f"fishergeo.{module}")


def _payload(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _bitwise(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


@dataclass
class Checked:
    """A call's gate outcome: the payload for the digest and what failed."""

    payload: bytes
    problems: list[str]
    trials: int = 0
    replays: int = 0
    replays_bitwise: int = 0


@dataclass
class Call:
    """One verification call: a battery, probe, check or CLI process."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], Checked]


# ---------------------------------------------------------------------------
# Library calls
# ---------------------------------------------------------------------------


def battery_call(kind: str, battery: str, **kwargs) -> Call:
    """A battery that tests a theorem: it must pass with no witness."""

    def run():
        return getattr(_lib("batteries"), f"battery_{battery}")(**kwargs)

    def check(report):
        problems = []
        if report.status != "pass" or report.witnesses:
            problems.append(
                f"{kind} {kwargs}: status {report.status} with "
                f"{len(report.witnesses)} witnesses, expected pass"
            )
        return Checked(_payload(report.to_json()), problems, trials=report.trials)

    return Call(kind, run, check)


def duality_call(kind: str, model_name: str, xi: list[float]) -> Call:
    """e/m duality over every triple of coordinate fields at one point."""

    def run():
        models, connections = _lib("models"), _lib("connections")
        model = models.bernoulli_model() if model_name == "bernoulli" else models.categorical_model(3)
        fields = [connections.coordinate_field(model, i) for i in range(model.dim)]
        return [
            connections.duality_check(model, xi, x, y, z, step=1e-4)
            for x, y, z in itertools.product(fields, repeat=3)
        ]

    def check(residuals):
        worst = max(residuals)
        problems = [] if worst <= DUALITY_TOL else [
            f"{kind} xi={xi}: duality residual {worst!r} > {DUALITY_TOL}"
        ]
        return Checked(_payload([model_name, xi, residuals]), problems)

    return Call(kind, run, check)


def characterize_call(family: str, **kwargs) -> Call:
    """``characterize`` against the analytic decomposition or witness."""

    def run():
        verify = _lib("verify")
        result = verify.characterize(family, **kwargs)
        replayed = None if result.witness is None else verify.replay_witness(result.witness)
        return result, replayed

    def check(outcome):
        result, replayed = outcome
        problems = []
        if family in DECOMPOSING:
            c1, c2 = DECOMPOSING[family]
            kills_constants = c1 + c2 == 0.0
            if result.witness is not None:
                problems.append(f"{family}: witness {result.witness.kind}, expected a decomposition")
            elif abs(result.c1 - c1) > CONSTANTS_TOL or abs(result.c2 - c2) > CONSTANTS_TOL:
                problems.append(f"{family}: (c1, c2) = ({result.c1!r}, {result.c2!r}), expected ({c1}, {c2})")
            elif result.ii1_holds != kills_constants or result.verdict.startswith("c*Cov") != kills_constants:
                problems.append(f"{family}: ii1_holds={result.ii1_holds} verdict {result.verdict!r}")
        else:
            k = WITNESSING[family]
            gap = abs(2.0**-k - 2.0 * 4.0**-k)
            w = result.witness
            if w is None:
                problems.append(f"{family}: no witness, expected cross_dimension")
            elif (w.kind, w.m, w.n) != ("cross_dimension", 2, 4) or abs(w.gap - gap) > 1e-12 * gap:
                problems.append(f"{family}: witness {w.kind} m={w.m} n={w.n} gap={w.gap!r}, expected cross_dimension 2->4 gap {gap!r}")
            elif not _bitwise(replayed, w.gap):
                problems.append(f"{family}: replay gave {replayed!r}, stored gap {w.gap!r}")
        replays = int(replayed is not None)
        bitwise = int(replays and _bitwise(replayed, result.witness.gap))
        return Checked(_payload([result.to_json(), replayed]), problems, replays=replays, replays_bitwise=bitwise)

    return Call(f"characterize:{family}", run, check)


def prop6_call(family: str, **kwargs) -> Call:
    """The pairing battery; PK(2) witnesses are each replayed bitwise."""

    def run():
        report = _lib("batteries").battery_prop6(family=family, **kwargs)
        replay = _lib("verify").replay_witness
        return report, [replay(w) for w in report.witnesses]

    def check(outcome):
        report, replayed = outcome
        problems = []
        if family == "COV":
            if report.status != "pass" or report.witnesses:
                problems.append(f"prop6 COV {kwargs}: status {report.status}, expected pass")
        else:
            if report.status != "violation" or not report.witnesses:
                problems.append(f"prop6 {family} {kwargs}: status {report.status}, expected witnesses")
            for w, value in zip(report.witnesses, replayed):
                if w.kind != "prop6_identity" or not _bitwise(value, w.gap):
                    problems.append(f"prop6 {family}: {w.kind} witness replayed {value!r}, stored {w.gap!r}")
        bitwise = sum(_bitwise(value, w.gap) for w, value in zip(report.witnesses, replayed))
        return Checked(
            _payload([report.to_json(), replayed]), problems,
            trials=report.trials, replays=len(replayed), replays_bitwise=bitwise,
        )

    return Call(f"prop6:{family}", run, check)


# ---------------------------------------------------------------------------
# CLI calls
# ---------------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes


@dataclass
class CliCommand:
    """One CLI invocation and its gate; run as a process or in-process."""

    name: str
    argv: list[str]
    check: Callable[[CliResult], list[str]]

    def as_process(self, workdir: Path) -> Call:
        return Call(f"cli:{self.name}", lambda: run_cli_process(self.argv, workdir), self._gate)

    def in_process(self) -> Call:
        def run():
            import contextlib
            import io

            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = _lib("cli").main(list(self.argv))
            return CliResult(code, buffer.getvalue().encode(), b"")

        return Call(f"cli:{self.name}", run, self._gate)

    def _gate(self, result: CliResult) -> Checked:
        problems = [f"cli {self.name}: {p}" for p in self.check(result)]
        if result.stderr:
            problems.append(f"cli {self.name}: stderr {result.stderr[-400:]!r}")
        return Checked(bytes([result.code]) + result.stdout, problems)


def run_cli_process(argv: list[str], workdir: Path) -> CliResult:
    """Run ``python -m fishergeo.cli`` in a fresh process."""
    with open(workdir / "stderr.txt", "w+b") as err:
        proc = subprocess.run(
            [sys.executable, "-m", "fishergeo.cli", *argv],
            stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=child_env(), timeout=120,
        )
        err.seek(0)
        return CliResult(proc.returncode, proc.stdout, err.read())


def _expect_json(code: int, test: Callable[[dict], bool], what: str):
    def check(result: CliResult) -> list[str]:
        if result.code != code:
            return [f"exit {result.code}, expected {code}"]
        try:
            payload = json.loads(result.stdout)
        except ValueError:
            return [f"stdout is not JSON: {result.stdout[:200]!r}"]
        return [] if test(payload) else [f"expected {what}, got {result.stdout[:400]!r}"]

    return check


def golden_commands() -> list[CliCommand]:
    commands = []
    for name, args in GOLDEN_COMMANDS.items():
        expected = (GOLDEN / "expected" / f"{name}.json").read_bytes()
        argv = ["--seed", "0"] + [
            str(GOLDEN / a) if a.startswith("inputs/") else a for a in args
        ]

        def check(result, expected=expected):
            problems = [] if result.code == 0 else [f"exit {result.code}, expected 0"]
            if result.stdout != expected:
                problems.append("stdout differs from the golden file")
            return problems

        commands.append(CliCommand(name, argv, check))
    return commands


def seeded_cli_commands(seeds: list[int], workdir: Path, r: int) -> list[CliCommand]:
    """Small verify/characterize runs whose inputs change every round."""
    configs = {
        "strong_invariance": {"battery": "strong_invariance", "trials": 10, "n_max": 6, "seed": seeds[0]},
        "monotonicity_cometric": {"battery": "monotonicity_cometric", "trials": 100, "n_max": 6, "seed": seeds[1]},
    }
    commands = []
    for name, config in configs.items():
        path = workdir / f"round{r}-{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        commands.append(CliCommand(
            f"verify_{name}",
            ["verify", "--config", str(path)],
            _expect_json(0, lambda p: p["pass"] and p["status"] == "pass" and not p["witnesses"], "a pass"),
        ))
    small = ["--n-max", "4", "--denominator-bound", "16", "--trials", "2"]
    commands.append(CliCommand(
        "characterize_COV",
        ["--seed", str(seeds[2]), "characterize", "--family", "COV", *small],
        _expect_json(
            0,
            lambda p: p["witness"] is None
            and abs(p["c1"] - 1.0) <= CONSTANTS_TOL and abs(p["c2"] + 1.0) <= CONSTANTS_TOL,
            "(c1, c2) = (1, -1)",
        ),
    ))
    commands.append(CliCommand(
        "characterize_PK2",
        ["--seed", str(seeds[3]), "characterize", "--family", "PK(2)", *small],
        _expect_json(
            1,
            lambda p: p["witness"] is not None
            and p["witness"]["kind"] == "cross_dimension" and p["witness"]["gap"] == 0.125,
            "a cross_dimension witness with gap 1/8",
        ),
    ))
    return commands


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


# numpy is imported inside the functions that use it, so that the set-up
# probe, which imports this module first, times numpy's import as part of
# the set-up.


def _seeds(seed: int, r: int, count: int) -> list[int]:
    import numpy as np

    return [int(s) for s in np.random.default_rng([seed, r]).integers(2**32, size=count)]


def channels_round(seed: int, r: int) -> list[Call]:
    s = _seeds(seed, r, 6)
    return [
        battery_call("strong_invariance:n8", "strong_invariance", trials=20, n_max=8, seed=s[0]),
        battery_call("strong_invariance:n8", "strong_invariance", trials=20, n_max=8, seed=s[1]),
        battery_call("strong_invariance:n16", "strong_invariance", trials=5, n_max=16, seed=s[2]),
        battery_call("invariance:n8", "invariance", trials=20, n_max=8, seed=s[3]),
        battery_call("monotonicity_metric:n6", "monotonicity_metric", trials=40, n_max=6, seed=s[4]),
        battery_call("monotonicity_cometric:n6", "monotonicity_cometric", trials=40, n_max=6, seed=s[5]),
    ]


def models_round(seed: int, r: int) -> list[Call]:
    import numpy as np

    s = _seeds(seed, r, 5)
    rng = np.random.default_rng([seed, r, 1])
    # Interior points: the O(step**2) truncation error of the duality check
    # grows like 1/min(p)**3 towards the boundary of the simplex.
    theta = float(rng.uniform(0.1, 0.9))
    weights = 0.1 + 0.7 * rng.dirichlet(np.ones(3))
    return [
        battery_call("crb:n4", "crb", trials=20, n_max=4, seed=s[0]),
        battery_call("crb:n6", "crb", trials=15, n_max=6, seed=s[1]),
        battery_call("weak_invariance:n4", "weak_invariance", n_max=4, grid_count=2, seed=s[2]),
        duality_call("duality:bernoulli", "bernoulli", [theta]),
        duality_call("duality:categorical3", "categorical3", [float(w) for w in weights[:2]]),
    ]


def probe_round(seed: int, r: int) -> list[Call]:
    families = list(DECOMPOSING) + list(WITNESSING)
    s = _seeds(seed, r, len(families) + 2)
    calls = [
        characterize_call(f, n_max=5, denominator_bound=32, trials=4, seed=si)
        for f, si in zip(families, s)
    ]
    calls.append(prop6_call("COV", trials=20, n_max=6, seed=s[-2]))
    calls.append(prop6_call("PK(2)", trials=20, n_max=6, seed=s[-1]))
    return calls


#: Rounds of each workload's traced run at a 20-second run length. The
#: traced run does a fixed amount of work, so its counts repeat exactly.
TRACE_ROUNDS = {"channels": 36, "models": 30, "probe": 36, "cli": 24}
WORKLOADS = tuple(TRACE_ROUNDS)


class Plan:
    """The seeded call list of one workload, generated round by round."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.workdir = OUT / f"work-{workload}-{os.getpid()}"
        self._rounds: dict[int, list] = {}
        if workload == "cli":
            self.workdir.mkdir(parents=True, exist_ok=True)
            self._golden = golden_commands()

    def round(self, r: int, in_process: bool = False) -> list[Call]:
        """The calls of round ``r``; CLI commands run as processes unless ``in_process``."""
        if r not in self._rounds:
            self._rounds[r] = self._build(r)
        if self.workload != "cli":
            return self._rounds[r]
        if in_process:
            return [c.in_process() for c in self._rounds[r]]
        return [c.as_process(self.workdir) for c in self._rounds[r]]

    def _build(self, r: int) -> list:
        if self.workload == "cli":
            return self._golden + seeded_cli_commands(_seeds(self.seed, r, 4), self.workdir, r)
        builder = {"channels": channels_round, "models": models_round, "probe": probe_round}
        return builder[self.workload](self.seed, r)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class Digest:
    """SHA-256 over every call's kind and payload, in call order."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, kind: str, payload: bytes) -> None:
        self._hash.update(kind.encode() + b"\0" + hashlib.sha256(payload).digest())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
