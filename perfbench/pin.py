"""Build the workload job lists and pin each job's expected output.

    python3 perfbench/pin.py

Runs every job once through ``crossbraid.cli.run`` and writes
``perfbench/pins.json``: per workload, the argv of each job with its exit
code and the sha256 of its stdout.  Rejected inputs are pinned as
``"check": "reject"`` and checked by the CLI contract instead (see
worker.check).  Re-pin only when a change is meant to alter CLI output.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"

# builtin groups of order at most 16 (D6 is S3, so only S3 is listed)
SMALL_GROUPS = tuple(f"C{n}" for n in range(2, 17)) + (
    "S3", "D8", "D10", "D12", "D14", "D16", "Q8", "C2xC2", "C2xC4", "C2xC6",
    "C3xC3", "C2xC8", "C4xC4", "C2xC2xC2", "C2xC2xC4", "C2xC2xC2xC2")

ZESTING_GRID = ("C2", "C3", "C4", "C2xC2", "S3", "C6")

REJECTED = (
    ("crossed-pointed", "--group", "S3", "--grading", "quotient-by:0,3,4"),
    ("fibered", "--extension", "S3", "--normal", "0,1"),
    ("group", "--group", "X9"),
    # raises IndexError out of run() on the baseline; kept on purpose
    ("fibered", "--extension", "D8", "--normal", "0,99"),
)


def stored_twists():
    from crossbraid.serialize import H3_BATTERY, load_h3_fixture
    for name in H3_BATTERY:
        for k in range(load_h3_fixture(name, verify=False).class_count):
            yield name, f"repr:{k}"


def pairings():
    jobs = [("subcats", "--group", g)
            for g in ("C2xC2xC2", "C2xC4", "C3xC3", "D8", "Q8")]
    twists = list(stored_twists())
    jobs += [("subcats", "--group", g, "--omega", w) for g, w in twists]
    jobs += [("crossed-pointed", "--group", g, "--omega", w,
              "--grading", "full") for g, w in twists]
    jobs += [("crossed-rep", "--group", g, "--center-subgroup", "0")
             for g in ("C2xC2xC2", "C2xC4", "D8")]
    jobs.append(("selftest",))
    return jobs


def cohomology():
    def job(g, n, *extra):
        return ("cohomology", "--group", g, "--degree", str(n)) + extra
    jobs = [job(g, 3) for g in ("D8", "C2xC2xC2", "C7", "C6", "S3")]
    jobs += [job(g, 2) for g in ("C4xC4", "D16", "C3xC3")]
    # 30 bar complexes of one size (about 30 ms each): job_p50_ms and
    # job_tail_ms then fall inside a dense cluster of similar jobs instead of
    # in a gap between a few jobs of very different sizes.  No modulus equals
    # the group order, which is the default, so no job repeats another's work.
    jobs += [job(g, 2, "--modulus", str(m))
             for g in ("C8", "D8", "Q8", "C2xC4", "C2xC2xC2")
             for m in (2, 3, 4, 5, 6, 9)]
    return jobs


def small_verbs():
    from crossbraid.groups import builtin_group, normal_subgroups
    jobs = []
    for g in SMALL_GROUPS:
        for N in normal_subgroups(builtin_group(g)):
            ids = ",".join(str(x) for x in N.elements)
            jobs.append(("fibered", "--extension", g, "--normal", ids))
    for verb in ("obstruction", "gradings-rep", "subgroups", "group",
                 "center-census"):
        jobs += [(verb, "--group", g) for g in SMALL_GROUPS]
    jobs += [("center-census", "--group", g, "--omega", w)
             for g, w in stored_twists()]
    jobs += [("zesting", "--fiber", f, "--group", g)
             for f in ZESTING_GRID for g in ZESTING_GRID]
    jobs += REJECTED
    return jobs


WORKLOADS = {"pairings": pairings, "cohomology": cohomology,
             "small-verbs": small_verbs}


def pin(cli, argv) -> dict:
    if argv in REJECTED:
        return {"argv": list(argv), "check": "reject"}
    buf = io.StringIO()
    code = cli.run(list(argv), out=buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return {"argv": list(argv), "exit": code, "sha256": digest}


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    import crossbraid.cli as cli
    doc = {}
    for name, build in WORKLOADS.items():
        jobs = build()
        if len(set(jobs)) != len(jobs):
            sys.exit(f"{name}: an argv appears twice")
        doc[name] = [pin(cli, argv) for argv in jobs]
        print(f"{name}: {len(jobs)} jobs pinned", file=sys.stderr)
    PINS.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
