#!/usr/bin/env python3
"""Run every pinned benchmark job in one process, in two shuffled orders.

The library keeps builtin groups, mu_n modules, subgroup lattices, pairing
systems and more for the life of a process, so one job's output must not
depend on which jobs ran before it.  perfbench/run.py --check runs each
workload's pins in file order only; this script runs all of them, every
workload after the other, in one process, once per seed, each workload's
jobs shuffled by random.Random(seed).  Each output is checked against its
pin by perfbench/worker.py's check.  Exits 1 on any mismatch or escaping
exception, 0 otherwise:

    python3 scripts/check_job_order.py
"""

import io
import json
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from crossbraid.cli import run  # noqa: E402
from worker import check  # noqa: E402

SEEDS = (1, 2)


def main() -> int:
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())
    bad = 0
    for seed in SEEDS:
        for name, pinned in pins.items():
            jobs = list(pinned)
            random.Random(seed).shuffle(jobs)
            failed = 0
            for job in jobs:
                buf = io.StringIO()
                try:
                    why = check(job, run(list(job["argv"]), out=buf),
                                buf.getvalue())
                except Exception as e:  # an escaping exception fails the job
                    why = f"raised {type(e).__name__}: {e}"
                if why is not None:
                    failed += 1
                    print(f"  FAIL seed {seed} {name}: "
                          f"{' '.join(job['argv'])}: {why}")
            print(f"seed {seed} {name}: {len(jobs) - failed} of {len(jobs)} "
                  f"jobs pass")
            bad += failed
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
