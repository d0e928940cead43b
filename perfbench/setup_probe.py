"""One set-up of a benchmark workload, timed in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed> <rounds>

Times a cold ``import fishergeo`` plus the generation of the inputs of the
warm-up round and rounds 1..<rounds>, and prints the CPU seconds taken, raw
and scaled to the reference CPU speed (see reference.py).
"""
import sys
import time

import workloads

#: Calibration kernel time after the set-up, in seconds, and fewest runs.
KERNEL_BUDGET_S = 0.01
KERNEL_MIN_RUNS = 5

if __name__ == "__main__":
    workload, seed, rounds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    start = time.process_time()
    workloads.load_library()
    plan = workloads.Plan(workload, seed)
    try:
        for r in range(rounds + 1):
            plan.round(r)
        elapsed = time.process_time() - start
    finally:
        plan.close()
    import reference

    factor = reference.speed(reference.sample(KERNEL_BUDGET_S, KERNEL_MIN_RUNS))
    print(f"{elapsed:.9f} {elapsed * factor:.9f}")
