"""The exact trace counts of three benchmark workloads, checked against a table.

Runs ``perfbench/run.py --workload W --seed 5 --trace 1`` once for each
workload of ``COUNTS``, prints every counted value, and exits non-zero
naming each (workload, metric, expected, got) that differs. A count is an
exact fraction: the items of one fixed traced run over its calls. A fall
back to per-point or per-trial objects raises a count, and a function that
left the trace lowers one, so no count is a range. Run from anywhere:

    python3 tests/trace_counts.py

Pytest does not collect this file: its name does not start with ``test_``.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 5
#: How far a reported value may lie from its fraction: the rounding of one division.
ROUNDING = 1e-9

#: workload -> metric -> (items, calls, why the run counts exactly that many items).
COUNTS = {
    "models": {
        "models.jacobian_calls": (
            0, 5,
            "crb, the weak-invariance stencils and duality read stacked jacobian_rows, and the image "
            "model's Jacobians are Phi times the small model's, so nothing calls jacobian_at",
        ),
        "markov.channels_built": (
            0, 5,
            "the weak-invariance kernel reads Phi and Psi from markov.pair_stacks and builds no Channel",
        ),
        "simplex.distributions_built": (
            0, 5,
            "the categorical rows form evaluates the points of the crb estimators and checks and of the "
            "weak-invariance and duality stencils as weight rows; the draws are arrays and the image "
            "points are weight rows",
        ),
    },
    "channels": {
        "markov.channels_built": (
            80, 6,
            "one per monotonicity trial; the pair batteries check stacked kernels",
        ),
        "simplex.distributions_built": (
            160, 6,
            "two per monotonicity trial, its drawn point and the point its check builds; pair trials are arrays",
        ),
    },
    "probe": {
        "simplex.distributions_built": (
            0, 360,
            "prop6 and characterize read every point as a weight row, from the draw to the witness replay",
        ),
        "verify.witnesses_built": (
            1644, 360,
            "each prop6 PK(2) violation and each PK(k) characterize witness, built once and once by its replay",
        ),
    },
}


def traced_metrics(workload: str) -> tuple[int, dict]:
    """The exit status and the metrics of one traced run of ``workload``."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = run.stdout.strip().splitlines()
    return run.returncode, json.loads(lines[-1])["metrics"] if lines else {}


def main() -> int:
    wrong = []
    for workload, counts in COUNTS.items():
        status, metrics = traced_metrics(workload)
        if status != 0:
            wrong.append((workload, "exit status", 0, status))
        for metric, (items, calls, why) in counts.items():
            got = metrics.get(metric, {}).get("value")
            print(f"{workload} {metric} = {got} (expected {items}/{calls}: {why})")
            if got is None or abs(got - items / calls) > ROUNDING:
                wrong.append((workload, metric, f"{items}/{calls}", got))
    for workload, metric, expected, got in wrong:
        print(f"MISMATCH workload={workload} metric={metric} expected={expected} got={got}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
