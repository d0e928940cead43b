"""fishergeo benchmark: end-to-end metrics per workload, per-layer metrics traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload channels --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads: channels, models, probe, cli (see workloads.py). Each is a closed
loop of one client in one process, single-threaded, with BLAS pinned to one
thread and the process (with the CLI processes it starts) pinned to one CPU.

``--trace 0`` runs one warm-up round, then whole rounds for ``--seconds``
(and at least ``MIN_CALLS_PER_SECOND * seconds`` calls), and reports
calls_per_s, call_ms_p50, call_ms_p90, setup_s and peak_rss_mb. Times are
CPU time of the benchmark process and its CLI processes, scaled to a
reference CPU speed measured during the run (see reference.py); the raw
values are printed next to them.

``--trace 1`` runs a fixed number of rounds untraced, then the same rounds
with spans around every public function of the library, checks that both
give the same digest, writes the spans to ``perfbench/out/`` and reports the
per-layer metrics.

Every call passes a correctness gate. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. The exit status
is 0 when every gate holds, 1 when one fails and 2 when the checkout holds
no usable fishergeo sources.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Before numpy is first imported (by reference.py below).
os.environ.update(workloads.THREAD_ENV)

import reference  # noqa: E402

#: Fewest timed calls per second of run length: a 20-second run then makes
#: at least 100 calls, so p90 keeps at least ten samples beyond it.
MIN_CALLS_PER_SECOND = 5
#: Calibration after each call: kernel time as a share of the call's time,
#: and the fewest kernel runs.
KERNEL_SHARE = 0.03
KERNEL_MIN_RUNS = 5
#: Set-up repetitions per run; setup_s is their median.
SETUP_REPEATS = 7
#: ``python -X importtime`` repetitions in the traced cli run.
IMPORTTIME_REPEATS = 5
#: Run length at which ``workloads.TRACE_ROUNDS`` applies.
TRACE_REFERENCE_SECONDS = 20


def cpu_seconds() -> float:
    """CPU time of this process plus that of its finished child processes."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Tally:
    """Outcomes of a sequence of calls: counts, latencies and digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.digest = workloads.Digest()
        self.trials = 0
        self.replays = 0
        self.replays_bitwise = 0

    def run(self, call, tracer=None) -> float | None:
        """Run and check one call; return its CPU seconds if it passed."""
        self.attempted += 1
        try:
            start = cpu_seconds()
            result = call.run() if tracer is None else tracer.call(call.kind, call.run)
            elapsed = cpu_seconds() - start
            checked = call.check(result)
        except Exception:
            self.failed += 1
            print(f"call {call.kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        self.digest.add(call.kind, checked.payload)
        self.trials += checked.trials
        self.replays += checked.replays
        self.replays_bitwise += checked.replays_bitwise
        if checked.problems:
            self.failed += 1
            for problem in checked.problems[:5]:
                print(f"gate failed: {problem}", file=sys.stderr)
            return None
        self.latencies.append(elapsed)
        return elapsed


def run_rounds(plan, first: int, last: int, tally: Tally, tracer=None, in_process=False) -> float:
    """Run rounds ``first..last`` and return their CPU seconds."""
    start = cpu_seconds()
    for r in range(first, last + 1):
        for call in plan.round(r, in_process):
            tally.run(call, tracer)
    return cpu_seconds() - start


def trace_rounds(workload: str, seconds: int) -> int:
    return max(1, workloads.TRACE_ROUNDS[workload] * seconds // TRACE_REFERENCE_SECONDS)


def p90(sorted_values: list[float]) -> float:
    """Nearest-rank 90th percentile: a tenth of the samples lie beyond it."""
    return sorted_values[-(-9 * len(sorted_values) // 10) - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------


def setup_seconds(workload: str, seed: int, rounds: int) -> list[tuple[float, float]]:
    """Cold ``import fishergeo`` plus input generation, each in a fresh process.

    Returns (raw, scaled) seconds per repetition.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(rounds)],
            capture_output=True, text=True, cwd=workloads.ROOT, env=workloads.child_env(), timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        raw, scaled = proc.stdout.split()[-2:]
        samples.append((float(raw), float(scaled)))
    return samples


def end_to_end(plan, workload: str, seed: int, seconds: int) -> tuple[int, int, dict]:
    k = trace_rounds(workload, seconds)
    warm = Tally()
    run_rounds(plan, 0, 0, warm)
    tally = Tally()
    raw, scaled = [], []
    work_raw = work_scaled = 0.0
    before: list[float] = []
    start = time.perf_counter()
    r = 0
    prefix = None
    while r == 0 or time.perf_counter() - start < seconds or tally.attempted < MIN_CALLS_PER_SECOND * seconds:
        r += 1
        for call in plan.round(r):
            call_start = cpu_seconds()
            elapsed = tally.run(call)
            call_cpu = cpu_seconds() - call_start
            after = reference.sample(KERNEL_SHARE * call_cpu, KERNEL_MIN_RUNS)
            factor = reference.speed(before + after)
            before = after
            work_raw += call_cpu
            work_scaled += call_cpu * factor
            if elapsed is not None:
                raw.append(elapsed)
                scaled.append(elapsed * factor)
        if r == k:
            prefix = tally.digest.hexdigest()
    elapsed = time.perf_counter() - start
    setup = setup_seconds(workload, seed, k)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics, raw_values = {}, {}
    for out, lat, work, setup_s in (
        (metrics, sorted(scaled) or [float("nan")], work_scaled, [s for _, s in setup]),
        (raw_values, sorted(raw) or [float("nan")], work_raw, [s for s, _ in setup]),
    ):
        out["calls_per_s"] = metric(len(lat) / work, "1/s")
        out["call_ms_p50"] = metric(1000.0 * statistics.median(lat), "ms")
        out["call_ms_p90"] = metric(1000.0 * p90(lat), "ms")
        out["setup_s"] = metric(statistics.median(setup_s), "s")
        out["peak_rss_mb"] = metric(peak_kb / 1024.0, "MB")
    attempted = warm.attempted + tally.attempted
    failed = warm.failed + tally.failed
    print(
        f"[{workload} seed={seed}] {len(scaled)} timed calls in {elapsed:.2f} s "
        f"over {r} rounds after 1 warm-up round; failed {failed}/{attempted} "
        f"(failed_frac {failed / attempted:.4g}); mean CPU speed "
        f"{work_scaled / work_raw:.3f} x reference"
    )
    print(f"  digest of rounds 1-{k}: {prefix or 'not reached'}")
    n = len(scaled)
    notes = {
        "call_ms_p50": f"n={n}",
        "call_ms_p90": f"n={n}, {n - -(-9 * n // 10)} beyond",
        "setup_s": f"median of {len(setup)}",
        "peak_rss_mb": "benchmark process",
    }
    print(f"  {'metric':<12} {'scaled':>12} {'raw':>12}")
    for name, m in metrics.items():
        print(f"  {name:<12} {m['value']:12.4f} {raw_values[name]['value']:12.4f} {m['unit']:<4} {notes.get(name, '')}")
    return attempted, failed, metrics


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def import_times_ms() -> tuple[float, float]:
    """fishergeo's own and numpy's import time, from ``python -X importtime``."""
    own, numpy = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fishergeo.cli"],
            capture_output=True, text=True, cwd=workloads.ROOT, env=workloads.child_env(), timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import of fishergeo.cli failed:\n{proc.stderr}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(numpy|fishergeo\.cli)$", line)
            if match:
                cumulative[match.group(2)] = int(match.group(1))
        # fishergeo.cli is the outermost import; numpy, if imported at all,
        # is first imported inside it, so its time is part of fishergeo.cli's.
        numpy_us = cumulative.get("numpy", 0)
        own.append((cumulative["fishergeo.cli"] - numpy_us) / 1000.0)
        numpy.append(numpy_us / 1000.0)
    return statistics.median(own), statistics.median(numpy)


def traced(plan, workload: str, seed: int, seconds: int) -> tuple[int, int, dict]:
    from tracing import Tracer

    k = trace_rounds(workload, seconds)
    in_process = workload == "cli"
    warm, base, spans = Tally(), Tally(), Tally()
    tallies = [warm, base, spans]
    problems = []
    cli = {"process_ms": 0.0, "import_ms": 0.0, "numpy_import_ms": 0.0}
    if workload == "cli":
        # One round as processes, compared with the same round in-process.
        in_proc, processes = Tally(), Tally()
        run_rounds(plan, 1, 1, in_proc, in_process=True)
        run_rounds(plan, 1, 1, processes)
        tallies += [in_proc, processes]
        if processes.digest.hexdigest() != in_proc.digest.hexdigest():
            problems.append("CLI process digest differs from the in-process digest")
        cli["process_ms"] = 1000.0 * statistics.median(processes.latencies or [float("nan")])
        cli["import_ms"], cli["numpy_import_ms"] = import_times_ms()

    run_rounds(plan, 0, 0, warm, in_process=in_process)
    base_cpu = run_rounds(plan, 1, k, base, in_process=in_process)
    tracer = Tracer()
    tracer.install()
    traced_cpu = run_rounds(plan, 1, k, spans, tracer, in_process=in_process)
    tracer.write(workloads.OUT / f"trace-{workload}-seed{seed}.npz")
    if spans.digest.hexdigest() != base.digest.hexdigest():
        problems.append("traced digest differs from the untraced digest")

    calls = spans.attempted
    self_ms = tracer.layer_self_ms()
    crb_checks = tracer.count("models.crb_check")

    def per_call(value: float) -> float:
        return value / calls

    m = {}
    for layer in ("geometry", "markov", "simplex", "models", "connections", "families", "verify", "batteries"):
        m[f"{layer}.self_ms"] = metric(per_call(self_ms.get(layer, 0.0)), "ms/call")
    counts = {
        "geometry.fisher_metric_calls": "geometry.fisher_metric",
        "geometry.tangent_vectors_built": "geometry.TangentVector.__init__",
        "markov.channels_built": "markov.Channel.__init__",
        "simplex.distributions_built": "simplex.Distribution.__init__",
        "models.jacobian_calls": "models.jacobian_at",
        "connections.covariant_derivative_calls": "connections.covariant_derivative",
        "families.calls": "families.CandidateFamily.__call__",
        "verify.witnesses_built": "verify.Witness.__init__",
    }
    for key, span in counts.items():
        m[key] = metric(per_call(tracer.count(span)), "count/call")
    # Jacobians per CRB point: those of crb_check and of the battery trial around it.
    crb_jacobians = tracer.count_within("models.jacobian_at", ("batteries.battery_crb", "models.crb_check"))
    m["models.jacobians_per_crb_check"] = metric(crb_jacobians / crb_checks if crb_checks else 0.0, "ratio")
    m["verify.replay_bitwise_ratio"] = metric(
        spans.replays_bitwise / spans.replays if spans.replays else 0.0, "ratio"
    )
    m["batteries.trials"] = metric(per_call(spans.trials), "count/call")
    m["cli.process_ms"] = metric(cli["process_ms"], "ms")
    m["cli.import_ms"] = metric(cli["import_ms"], "ms")
    m["cli.numpy_import_ms"] = metric(cli["numpy_import_ms"], "ms")
    m["jsonio.self_ms"] = metric(per_call(self_ms.get("jsonio", 0.0)), "ms/call")
    m["trace.overhead_ratio"] = metric(traced_cpu / base_cpu, "ratio")

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies) + len(problems)
    for problem in problems:
        print(f"gate failed: {problem}", file=sys.stderr)
    print(
        f"[{workload} seed={seed} traced] {k} rounds, {calls} calls, {len(tracer.name)} spans; "
        f"digest {spans.digest.hexdigest()} {'==' if spans.digest.hexdigest() == base.digest.hexdigest() else '!='} "
        f"untraced {base.digest.hexdigest()}"
    )
    span_total = sum(self_ms.values())
    print(f"  self time per layer ({span_total / calls:.3f} ms per call in spans):")
    for layer, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<12} {per_call(ms):10.4f} ms/call {100.0 * ms / span_total:6.2f} %")
    for name, value in m.items():
        print(f"  {name:<40} {value['value']:14.4f} {value['unit']}")
    return attempted, failed, m


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Run every workload in its own process and print their metrics."""
    summary = {}
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=workloads.ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        if proc.returncode in (0, 1) and lines:
            summary[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": status == 0 and all(s["correct"] for s in summary.values()),
        "attempted": sum(s["attempted"] for s in summary.values()),
        "failed": sum(s["failed"] for s in summary.values()),
        "workloads": summary,
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=TRACE_REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # One CPU for the benchmark and the processes it starts, so the
    # calibration kernel measures the CPU that runs the calls.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload == "all":
        return run_all(args)
    try:
        workloads.load_library()
    except (workloads.SetupError, ImportError) as exc:
        print(f"cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    plan = workloads.Plan(args.workload, args.seed)
    try:
        measure = traced if args.trace else end_to_end
        attempted, failed, metrics = measure(plan, args.workload, args.seed, args.seconds)
    finally:
        plan.close()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
