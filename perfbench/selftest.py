"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

For each workload: one untraced run must print exactly the end-to-end
metrics of BENCHMARK.json, and two traced runs with the same seed must
print exactly its per-layer metrics, with identical values for the exact
counts (steps, computed bytes, grid points, call counts).  Exits 1 on any
mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT, WORKLOAD_NAMES

# Counts that must repeat exactly for the same seed.
EXACT_COUNTS = (
    "tdse.steps", "tdse.bytes_per_step_computed", "splitting.grid_points",
    "scattering.match_calls", "resonance.match_calls_per_spectral", "specfun.calls",
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, seed: int) -> list[str]:
    problems = []
    want = {
        0: {m["name"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"] for m in BENCHMARK["per_layer"]},
    }
    plain = _run(workload, seed, 0)
    traced = [_run(workload, seed, 1) for _ in range(2)]
    for trace, result in ((0, plain), (1, traced[0]), (1, traced[1])):
        if set(result["metrics"]) != want[trace]:
            problems.append(f"trace {trace}: metric names differ from BENCHMARK.json")
        if not result["correct"]:
            problems.append(f"trace {trace}: run reported incorrect output")
    for key in EXACT_COUNTS:
        a, b = (r["metrics"][key]["value"] for r in traced)
        if a != b:
            problems.append(f"{key}: {a!r} then {b!r}")
    return problems


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=5)
    args = p.parse_args()
    failed = False
    for workload in args.workload or WORKLOAD_NAMES:
        problems = check(workload, args.seed)
        failed |= bool(problems)
        print(f"[{'FAIL' if problems else 'PASS'}] {workload}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
