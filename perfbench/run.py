"""atomprep benchmark runner.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The program is imported from ./src, so the
benchmark measures the source tree it sits in.  One driver process runs the
chosen workload single-threaded and in-process (`cull-map-par` adds the
program's own process pool), checks every output, prints a human-readable
report and, as its last line, one JSON object with the fields `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 measures the end-to-end metrics: jobs run back to back until the
time budget is spent, and `wall_s` is the median job time.  Every timed
segment is scaled to a reference host speed (see hostspeed.py); the raw
seconds are printed in the report.  --trace 1 runs a fixed number of jobs
twice, untraced then with spans around every public atomprep function, and
reports the per-layer metrics plus the tracing overhead.  Spans are written
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("cull-map", "cull-map-par", "split-verify", "cull-verify")
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 4
# Relative tolerance against reference values, per workload family: ten
# times the largest move seen when a layer's arithmetic was reordered or
# nudged by one ulp (README.md, "Checks").  Widths from the adaptive scan
# moved up to 1.9e-4, because a flipped bisection decision changes the
# fitted samples; the split infidelity moved up to 5.2e-9.
REFERENCE_REL = {"cull-map": 2e-3, "cull-verify": 2e-3, "split-verify": 1e-6}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    """Machine and library record printed with every run."""
    import numpy
    import scipy

    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": caches,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "host": "shared and unpinned; no machine or cgroup setting is changed",
    }


def make_workdir(tag: str) -> Path:
    path = OUT / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


class Timed(NamedTuple):
    """One measured job: raw seconds and seconds at reference host speed."""

    job: object
    raw_s: float
    seconds: float
    outcome: object = None


def measure_setup(name: str) -> list[Timed]:
    """Fresh interpreters that import atomprep and warm the workload's layers."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", name]
    done = []
    watch = hostspeed.Stopwatch("startup")
    for _ in range(SETUP_REPEATS):
        watch.start()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        watch.lap()
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()[-400:]}")
        done.append(Timed(None, watch.raw_s, watch.seconds))
    return done


def peak_rss_mb(workers: int) -> float:
    """Driver peak RSS, plus workers times the largest pool worker's peak.

    Call it before any other child process has run (the set-up
    interpreters come later), so that the children's peak is a pool
    worker's.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        own += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0


def _compare(got, want, where: str, notes: list, rel: float) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            notes.append(f"{where}: keys differ")
            return
        for key in want:
            _compare(got[key], want[key], f"{where}.{key}", notes, rel)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            notes.append(f"{where}: length differs")
            return
        for k, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{k}]", notes, rel)
    elif isinstance(want, float):
        if not abs(got - want) <= rel * max(abs(got), abs(want)):
            notes.append(f"{where}: {got!r} vs reference {want!r}")
    elif got != want:
        notes.append(f"{where}: {got!r} vs reference {want!r}")


def check_reference(workload, seed: int, outcome) -> list[str]:
    """Compare the first job of a recorded seed with its reference values."""
    refs = json.loads(REFERENCE.read_text())
    want = refs.get(workload.reference_key, {}).get(str(seed))
    if want is None:
        return []
    notes: list[str] = []
    _compare(json.loads(json.dumps(outcome.fingerprint)), want, "reference", notes,
             REFERENCE_REL[workload.reference_key])
    return notes


def run_jobs(workload, jobs, workdir, budget=None, count=None) -> list[Timed]:
    """Run jobs until the budget (raw seconds) is spent, or count jobs."""
    done = []
    t_start = time.perf_counter()
    watch = hostspeed.Stopwatch(workload.kernel)
    for job in jobs:
        watch.start()
        outcome = workload.run(job, workdir, watch.lap)
        watch.lap()
        done.append(Timed(job, watch.raw_s, watch.seconds, outcome))
        if count is not None:
            if len(done) >= count:
                break
        elif (time.perf_counter() - t_start
              + statistics.median(t.raw_s for t in done) > budget):
            break
    return done


def summarize(workload, seed, done, workdir):
    """Totals, notes and verdict over the jobs of one pass."""
    first = done[0].outcome
    if hasattr(workload, "cross_check"):
        workload.cross_check(done[0].job, first, workdir)
    ref_notes = check_reference(workload, seed, first)
    if ref_notes:  # a first job off its reference fails all its operations
        first.failed = first.attempted
        first.notes += [("check", n) for n in ref_notes]
    attempted = sum(t.outcome.attempted for t in done)
    failed = sum(t.outcome.failed for t in done)
    notes = [note for t in done for note in t.outcome.notes]
    correct = not any(t.outcome.incorrect for t in done)
    return attempted, failed, correct, notes


def report(lines, notes, correct, attempted, failed):
    for line in lines:
        print(line)
    print(f"failed_frac  {failed / attempted:.6f} ratio ({failed} of {attempted} operations)")
    for kind, msg in notes[:12]:
        print(f"  {kind} failure: {msg}")
    if len(notes) > 12:
        print(f"  ... {len(notes) - 12} more failure notes")
    print(f"verdict: {'correct' if correct else 'INCORRECT'}")


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (SRC / "atomprep" / "__init__.py").is_file():
        print(f"error: no atomprep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = make_workdir(args.workload)
    try:
        if args.setup_child:
            workload.warm(workdir)
            return 0
        return _measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, workdir) -> int:
    import tracing  # imports atomprep, so only once src is on the path

    env = environment()
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}  workers {workload.workers}")
    print("env " + json.dumps(env, sort_keys=True))
    workload.warm(workdir)

    if args.trace == 0:
        done = run_jobs(workload, workload.jobs(args.seed), workdir, budget=args.seconds)
        rss = peak_rss_mb(workload.workers)
        setups = measure_setup(workload.name)
        setup_s = statistics.median(t.seconds for t in setups)
        times = [t.seconds for t in done]
        wall_s = statistics.median(times)
        attempted, failed, correct, notes = summarize(workload, args.seed, done, workdir)
        n = len(times)
        lines = [
            f"setup_s      {setup_s:.4f} s (median of {len(setups)} fresh interpreters;"
            f" raw {_span(t.raw_s for t in setups)})",
            f"wall_s       {wall_s:.4f} s (median of {n} jobs; min {min(times):.4f},"
            f" max {max(times):.4f}; raw {_span(t.raw_s for t in done)})",
            f"peak_rss_mb  {rss:.2f} MiB (1 sample)",
        ]
        if workload.reference_key == "cull-map":
            cells_per_s = statistics.median(t.outcome.attempted / t.seconds for t in done)
            lines.append(f"cells_per_s  {cells_per_s:.4f} cells/s (median of {n} jobs;"
                         " scanned cells per second of wall_s)")
        lines.append(f"host scale   jobs {_span(t.seconds / t.raw_s for t in done)};"
                     f" setup {_span(t.seconds / t.raw_s for t in setups)}"
                     f" (times above are at reference host speed)")
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        }
    else:
        jobs = list(itertools.islice(workload.jobs(args.seed), workload.trace_jobs))
        plain = run_jobs(workload, jobs, workdir, count=len(jobs))
        tracer = tracing.Tracer()
        tracer.install()
        traced = []
        try:
            for k, job in enumerate(jobs):
                tracer.run_id = k  # spans of one job share its run id
                traced += run_jobs(workload, [job], workdir, count=1)
        finally:
            tracer.uninstall()
        plain_wall = statistics.median(t.seconds for t in plain)
        traced_wall = statistics.median(t.seconds for t in traced)
        layer = tracer.metrics()
        layer["trace.wall_s"] = traced_wall
        layer["trace.overhead_s"] = traced_wall - plain_wall
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.npz"
        tracer.dump(spans_path)
        attempted, failed, correct, notes = summarize(workload, args.seed, plain + traced, workdir)
        lines = [f"{key:36s} {value:.6g} {tracing.LAYER_METRICS[key][0]}"
                 for key, value in layer.items()]
        lines.append(f"untraced wall_s {plain_wall:.4f} s, traced {traced_wall:.4f} s"
                     f" (median of {len(jobs)} jobs each); spans in {spans_path.relative_to(ROOT)}")
        if workload.workers > 1:
            lines.append("pool workers are not traced: spans cover the driver process only")
        metrics = {key: {"value": value, "unit": tracing.LAYER_METRICS[key][0]}
                   for key, value in layer.items()}

    report(lines, notes, correct, attempted, failed)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _span(values) -> str:
    values = sorted(values)
    return f"median {statistics.median(values):.4f}, min {values[0]:.4f}, max {values[-1]:.4f}"


if __name__ == "__main__":
    sys.exit(main())
