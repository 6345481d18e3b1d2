"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload pairings --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --check

Each pass runs the workload's pinned job list (pins.json) in a fresh worker
process (worker.py), one pass after another, never two at once.  The seed
only shuffles the job order.  With ``--trace 0`` the run makes set-up-only
spawns and then passes while the next one still fits in ``--seconds`` (at
least one).  Each job's time is scaled to a reference core speed
(speed.py), each job's scaled time is its median over the passes, and the
end-to-end metrics are taken over those medians.  With ``--trace 1`` it
makes one untraced and one traced pass and reports the per-layer metrics of
layers.py.  ``--check`` runs every job of every workload once, untimed, and
lists each job that fails its output check.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts jobs that did
not pass their check; ``correct`` is false when a job returned a wrong
answer, as opposed to raising out of ``run()``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SPAWNS = 5
WORKER_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from layers import metric_names  # noqa: E402

ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
           MKL_NUM_THREADS="1", PYTHONHASHSEED="0")


def spawn(jobs, trace=False, setup_only=False, timer=True) -> dict:
    """Run one worker to completion; its set-up time is added as ``setup_s``.

    ``setup_s`` and each job's ``"t"`` are scaled to the reference speed of
    speed.py: divided by their speed factor.  ``setup_raw_s`` and each
    job's ``"s"`` are the unscaled times.
    """
    request = json.dumps({"jobs": jobs, "trace": trace,
                          "setup_only": setup_only, "timer": timer})
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER)], input=request,
                          capture_output=True, text=True, cwd=ROOT, env=ENV,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_raw_s"] = result["ready"] - spawned - result["setup_probed_s"]
    result["setup_s"] = result["setup_raw_s"] / result["setup_factor"]
    for job in result["jobs"]:
        job["t"] = job["s"] / job["factor"]
    return result


def tail(times: list[float]) -> float:
    """The highest percentile with 10 jobs beyond it: the 11th slowest."""
    return sorted(times)[-11]


def job_times(results: list[dict], orders: list[list[dict]],
              key: str = "t") -> list[float]:
    """Each job's median time over the passes of a run."""
    times = defaultdict(list)
    for result, jobs in zip(results, orders):
        for job, r in zip(jobs, result["jobs"]):
            times[tuple(job["argv"])].append(r[key])
    return [statistics.median(v) for v in times.values()]


def failures(name: str, results: list[dict], orders) -> list[str]:
    """One line per failing job, with how many passes it failed in."""
    why, times = {}, Counter()
    for result, jobs in zip(results, orders):
        for job, r in zip(jobs, result["jobs"]):
            if not r["ok"]:
                argv = " ".join(job["argv"])
                why[argv] = r["why"]
                times[argv] += 1
    return [f"  FAIL {name}: {argv}: {why[argv]} (in {n} pass(es))"
            for argv, n in times.items()]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def measure(name: str, pinned: list[dict], seed: int, seconds: float,
            trace: bool) -> None:
    rng = random.Random(seed)
    setups = []
    if not trace:
        setups = [spawn(pinned, setup_only=True) for _ in range(SETUP_SPAWNS)]
    orders, results = [], []
    start = time.monotonic()
    while True:
        jobs = list(pinned)
        rng.shuffle(jobs)
        orders.append(jobs)
        # a trace run probes between jobs only, so that no probe runs
        # inside a span and both of its passes are scaled alike
        results.append(spawn(jobs, trace=trace and len(results) == 1,
                             timer=not trace))
        elapsed = time.monotonic() - start
        if trace:
            if len(results) == 2:
                break
        elif elapsed * (len(results) + 1) / len(results) > seconds:
            break
    setups += results

    outcomes = [j for r in results for j in r["jobs"]]
    failed = sum(not j["ok"] for j in outcomes)
    n = len(pinned)
    lines = [
        f"workload {name}: {len(results)} pass(es) of {n} jobs, "
        f"seed {seed}, trace {int(trace)}",
        f"python {results[0]['python']}, numpy {results[0]['numpy']}, "
        f"nproc {os.cpu_count()}, cpu {cpu_model()}",
        f"error_rate {failed / len(outcomes):.6f} "
        f"({failed} of {len(outcomes)} jobs)",
        f"job_tail_ms is p{100 * (n - 10) / n:.1f} over {n} jobs",
    ]
    lines += failures(name, results, orders)

    if trace:
        untraced, traced = (sum(j["t"] for j in r["jobs"]) for r in results)
        values = dict(results[1]["layers"])
        values["trace.overhead_frac"] = traced / untraced - 1
        units = dict(metric_names(), **{"trace.overhead_frac": "ratio"})
        lines.append(f"absent spans: {results[1]['absent'] or 'none'}")
        lines.append("spans that never fired: "
                     f"{results[1]['unfired'] or 'none'}")
    else:
        times = job_times(results, orders)
        raw_wall = sum(job_times(results, orders, "s"))
        raw_setup = statistics.median(r["setup_raw_s"] for r in setups)
        factor = statistics.median(j["factor"] for j in outcomes)
        lines.append(f"median speed factor {factor:.3f}; unscaled wall_s "
                     f"{raw_wall:.4f} s, setup_s {raw_setup:.4f} s")
        values = {
            "wall_s": sum(times),
            "job_p50_ms": 1000 * statistics.median(times),
            "job_tail_ms": 1000 * tail(times),
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in results)
            / 1024,
            "setup_s": statistics.median(r["setup_s"] for r in setups),
        }
        units = {"wall_s": "s", "job_p50_ms": "ms", "job_tail_ms": "ms",
                 "peak_rss_mb": "MB", "setup_s": "s"}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    lines += [f"  {k} = {v:.6g} {units[k]}" for k, v in values.items()]
    for line in lines:
        print(line)
    print(json.dumps({"correct": not any(j["wrong"] for j in outcomes),
                      "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))


def check_all(pins: dict) -> int:
    bad = 0
    for name, pinned in pins.items():
        lines = failures(name, [spawn(pinned)], [pinned])
        bad += len(lines)
        print(f"{name}: {len(pinned) - len(lines)} of {len(pinned)} jobs pass")
        for line in lines:
            print(line)
    return 1 if bad else 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="run every job once, untimed, and check outputs")
    args = ap.parse_args()
    if not (ROOT / "src" / "crossbraid" / "__init__.py").is_file():
        sys.exit(f"no crossbraid sources under {ROOT / 'src'}")
    pins = json.loads((HERE / "pins.json").read_text())
    if args.check:
        sys.exit(check_all(pins))
    if args.workload not in pins:
        sys.exit(f"--workload must be one of {sorted(pins)}")
    measure(args.workload, pins[args.workload], args.seed, args.seconds,
            bool(args.trace))


if __name__ == "__main__":
    main()
