#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark between a base revision and a
change, summarised per workload and written to BENCH_<label>.json.

    python3 scripts/ab.py --base HEAD~1 --workload pairings \\
        --workload cohomology --pairs 10 --seconds 40 --label mychange

The change is the working tree: its files (tracked and untracked, minus
ignored ones) are written to a git tree object through a temporary index,
and the tree's id is recorded, with the id of its src/ subtree, which
`git rev-parse <commit>:src` matches for any commit that holds the
measured library.  Each side is a `git archive` of its tree in a fresh
temporary directory, which leaves no worktree record in the repository.
Every __pycache__ is removed before each run, since whether one is there
moves setup_s and peak_rss_mb.  Pair i runs perfbench/run.py unchanged
in both trees with seed --seed + i, the base first in even pairs and the
change first in odd ones.  For every end-to-end metric BENCHMARK.json
names, the script prints the median [q1, q3] of each side and the pairs
the change wins, and it writes every run, the seeds, the host, the base
commit and the change's tree to BENCH_<label>.json in the working tree.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def commit_of(rev: str) -> str:
    return git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()


def working_tree_id(scratch: Path) -> str:
    """The id of a tree object holding the working tree's files, written
    through an index of its own so that the repository's index is left
    as it is."""
    env = {**os.environ, "GIT_INDEX_FILE": str(scratch / "index")}
    for args in (["read-tree", "HEAD"], ["add", "--all"]):
        subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                       capture_output=True)
    return subprocess.run(["git", "write-tree"], cwd=ROOT, env=env,
                          check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(tree_ish: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", tree_ish],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def drop_pycache(tree: Path) -> None:
    for cache in sorted(tree.rglob("__pycache__"), reverse=True):
        shutil.rmtree(cache)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench/run.py run: its last JSON line, plus the host line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["host"] = next((l for l in lines if l.startswith("python ")), "")
    return result


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def summarise(runs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs in
    which the change reads better than the base."""
    out: dict = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [b["metrics"][name]["value"] for b, _ in runs]
        head = [h["metrics"][name]["value"] for _, h in runs]
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        out[name] = {"unit": m["unit"], "better": m["better"],
                     "base": quartiles(base), "head": quartiles(head),
                     "head_wins": wins}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="base revision")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--seed", type=int, default=0, help="seed of pair 0")
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    seeds = [args.seed + i for i in range(args.pairs)]
    doc: dict = {
        "label": args.label,
        "base": {"rev": args.base, "commit": commit_of(args.base)},
        "head": {"rev": "working tree", "parent": commit_of("HEAD")},
        "host": {"cpu": "unknown", "nproc": os.cpu_count(),
                 "machine": platform.machine()},
        "seconds": args.seconds,
        "seeds": seeds,
        "order": "base first in even pairs, change first in odd pairs",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        head_tree = working_tree_id(Path(tmp))
        doc["head"].update(
            tree=head_tree,
            src_tree=git("rev-parse", f"{head_tree}:src").strip(),
            uncommitted_changes=(
                head_tree != git("rev-parse", "HEAD^{tree}").strip()))
        trees = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        for side, tree_ish in (("base", args.base), ("head", head_tree)):
            trees[side].mkdir()
            extract(tree_ish, trees[side])
        for workload in args.workload:
            runs = []
            for i, seed in enumerate(seeds):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair = {}
                for side in order:
                    drop_pycache(trees[side])
                    pair[side] = run_once(trees[side], workload, seed,
                                          args.seconds)
                runs.append((pair["base"], pair["head"]))
                values = {side: {m: v["value"] for m, v in r["metrics"].items()}
                          for side, r in pair.items()}
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: "
                      + ", ".join(f"{m['name']} {values['base'][m['name']]:.4g}"
                                  f" -> {values['head'][m['name']]:.4g}"
                                  for m in metrics), flush=True)
            # run.py's host line: "python X, numpy Y, nproc N, cpu MODEL"
            versions, _, cpu = runs[0][0]["host"].partition(", cpu ")
            fields = dict(part.partition(" ")[::2]
                          for part in versions.split(", "))
            doc["host"].update(python=fields.get("python"),
                               numpy=fields.get("numpy"), cpu=cpu or "unknown")
            summary = summarise(runs, metrics)
            doc["workloads"][workload] = {
                "metrics": summary,
                "failed": {"base": [b["failed"] for b, _ in runs],
                           "head": [h["failed"] for _, h in runs]},
                "attempted": {"base": [b["attempted"] for b, _ in runs],
                              "head": [h["attempted"] for _, h in runs]},
                "correct": all(b["correct"] and h["correct"]
                               for b, h in runs),
            }
            print(f"{workload}: median [q1, q3], base -> change, "
                  f"pairs the change wins of {args.pairs}")
            for name, s in summary.items():
                b, h = s["base"], s["head"]
                print(f"  {name}: {b['median']:.6g} [{b['q1']:.6g}, "
                      f"{b['q3']:.6g}] -> {h['median']:.6g} [{h['q1']:.6g}, "
                      f"{h['q3']:.6g}] {s['unit']}, {s['head_wins']}/"
                      f"{args.pairs}", flush=True)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
