"""One workload pass in a fresh process.

Reads a JSON request on stdin, imports ``crossbraid`` from the checkout's
``src``, runs each job in-process through ``crossbraid.cli.run`` and checks
its output, and prints one JSON result line on stdout.  ``ready`` is the
``time.monotonic()`` reading at which the first job could start; the parent
subtracts its spawn time from it to get the set-up time.

While it runs, the worker times a fixed probe loop before each job and
every ``PROBE_PERIOD_S`` in between (speed.py).  Each job reports its time
net of the probes that ran inside it, and its speed factor (see
``SpeedLog.factor``); the set-up reports the same two for itself.

Request keys: ``jobs`` (list of pinned jobs, see pin.py), ``trace`` (wrap
the layers in layers.py), ``setup_only`` (stop once ready), ``timer``
(probe during jobs as well as between them).
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from speed import SpeedLog

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def check(job: dict, code, text: str) -> str | None:
    """Why the job's outcome disagrees with its pin, or None when it agrees.

    A rejected input is checked by the CLI contract: exit code 1 or 2 and a
    JSON document carrying an ``error`` or ``reason`` key.  Every other job
    must reproduce its pinned exit code and stdout digest exactly.
    """
    if job.get("check") == "reject":
        if code not in (1, 2):
            return f"exit {code}, expected 1 or 2"
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        if not isinstance(doc, dict) or not ("error" in doc or "reason" in doc):
            return "rejection carries no error or reason"
        return None
    if code != job["exit"]:
        return f"exit {code}, expected {job['exit']}"
    if hashlib.sha256(text.encode()).hexdigest() != job["sha256"]:
        return "stdout digest differs from the pin"
    return None


def run_jobs(cli, jobs: list[dict], speed: SpeedLog) -> list[dict]:
    results, marks = [], []
    for job in jobs:
        marks.append(speed.sample())
        buf = io.StringIO()
        crash = None
        probed = speed.spent
        start = time.perf_counter()
        try:
            code = cli.run(list(job["argv"]), out=buf)
        except Exception as e:  # an escaping exception is a failed job
            crash = f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - start - (speed.spent - probed)
        if crash is None:
            why = check(job, code, buf.getvalue())
            results.append({"s": seconds, "ok": why is None,
                            "wrong": why is not None, "why": why})
        else:
            results.append({"s": seconds, "ok": False, "wrong": False,
                            "why": f"raised {crash}"})
    marks.append(speed.sample())
    for r, first, last in zip(results, marks, marks[1:]):
        r["factor"] = speed.factor(first, last)
    return results


def main() -> None:
    speed = SpeedLog()
    request = json.loads(sys.stdin.read())
    if request.get("timer", True):
        speed.start()
    if not (SRC / "crossbraid" / "__init__.py").is_file():
        sys.exit(f"no crossbraid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy
    import crossbraid
    import crossbraid.cli as cli
    if Path(crossbraid.__file__).resolve().parent != SRC / "crossbraid":
        sys.exit(f"imported crossbraid from {crossbraid.__file__}, not {SRC}")
    tracer = None
    if request.get("trace"):
        from layers import Tracer
        tracer = Tracer()
        tracer.install(crossbraid)
    # keep full collections from rescanning the library's import-time objects
    gc.collect()
    gc.freeze()
    ready_mark = speed.sample()
    ready = time.monotonic()
    setup_probed, setup_factor = speed.spent, speed.factor(0, ready_mark)
    jobs = ([] if request.get("setup_only")
            else run_jobs(cli, request["jobs"], speed))
    speed.stop()
    out = {
        "ready": ready,
        "setup_probed_s": setup_probed,
        "setup_factor": setup_factor,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": jobs,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["absent"] = tracer.absent
        out["unfired"] = tracer.unfired()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
