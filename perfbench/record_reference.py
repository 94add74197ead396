"""Record the reference values that run.py checks the first job against.

    python3 perfbench/record_reference.py

Runs the first job of the default seed and of one held-out seed for each
workload family and writes their fingerprints to perfbench/reference.json.
Rerun only when a change to the program is meant to change its results.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, REFERENCE, SRC, make_workdir

SEEDS = (0, 97)  # the default seed and a held-out one


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    refs: dict[str, dict[str, dict]] = {}
    workdir = make_workdir("reference")
    try:
        for workload in workloads.WORKLOADS.values():
            if workload.reference_key != workload.name:
                continue
            workload.warm(workdir)
            for seed in SEEDS:
                job = next(iter(workload.jobs(seed)))
                outcome = workload.run(job, workdir)
                if outcome.incorrect:
                    print(f"{workload.name} seed {seed}: {outcome.notes}", file=sys.stderr)
                    return 1
                refs.setdefault(workload.reference_key, {})[str(seed)] = outcome.fingerprint
                print(f"recorded {workload.name} seed {seed}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
