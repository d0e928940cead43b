"""Self-test of the benchmark harness, at a tiny size.

    python3 perfbench/selftest.py

Runs every workload end to end for one second, untraced and traced, checks
that each prints exactly the metrics BENCHMARK.json names, that a checkout
without sources is refused, and that the gates trip when a deliberately
wrong expectation is injected.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = workloads.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


class EndToEnd(unittest.TestCase):
    def test_every_workload_runs_untraced_and_traced(self):
        spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        expected = {
            "0": {m["name"] for m in spec["end_to_end"]},
            "1": {m["name"] for m in spec["per_layer"]},
        }
        for name in workloads.WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=name, trace=trace):
                    proc = bench("--workload", name, "--seed", "7", "--seconds", "1", "--trace", trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), expected[trace])

    def test_checkout_without_sources_is_refused(self):
        bare = workloads.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(workloads.ROOT / "BENCHMARK.json", bare)
            proc = bench("--workload", "channels", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class Gates(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        workloads.load_library()

    def outcome(self, call) -> tuple[int, int]:
        tally = run.Tally()
        tally.run(call)
        return tally.attempted, tally.failed

    def test_expected_pass_for_pk2_trips(self):
        # battery_call expects the theorem to hold; PK(2) breaks the identity.
        call = workloads.battery_call("prop6", "prop6", trials=5, n_max=6, seed=1, family="PK(2)")
        self.assertEqual(self.outcome(call), (1, 1))

    def test_expected_decomposition_for_pk2_trips(self):
        with mock.patch.dict(workloads.DECOMPOSING, {"PK(2)": (1.0, 0.0)}):
            call = workloads.characterize_call("PK(2)", n_max=4, denominator_bound=16, trials=2, seed=1)
            self.assertEqual(self.outcome(call), (1, 1))

    def test_wrong_constants_trip(self):
        with mock.patch.dict(workloads.DECOMPOSING, {"COV": (1.0, 0.0)}):
            call = workloads.characterize_call("COV", n_max=4, denominator_bound=16, trials=2, seed=1)
            self.assertEqual(self.outcome(call), (1, 1))

    def test_wrong_exit_code_trips(self):
        golden = workloads.golden_commands()[0]
        wrong = workloads.CliCommand(golden.name, golden.argv, workloads._expect_json(1, lambda p: True, "exit 1"))
        self.assertEqual(self.outcome(wrong.in_process()), (1, 1))

    def test_raising_call_counts_as_failed(self):
        def boom():
            raise ValueError("injected")

        self.assertEqual(self.outcome(workloads.Call("boom", boom, None)), (1, 1))

    def test_right_expectations_pass(self):
        calls = [
            workloads.characterize_call("PK(2)", n_max=4, denominator_bound=16, trials=2, seed=1),
            workloads.characterize_call("1*L2 + 0.5*MM", n_max=4, denominator_bound=16, trials=2, seed=1),
            workloads.prop6_call("PK(2)", trials=5, n_max=6, seed=1),
            *(c.in_process() for c in workloads.golden_commands()),
        ]
        for call in calls:
            with self.subTest(call=call.kind):
                self.assertEqual(self.outcome(call), (1, 0))

    def test_p90_keeps_a_tenth_beyond(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(run.p90(values), 90.0)


if __name__ == "__main__":
    unittest.main()
