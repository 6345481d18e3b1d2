#!/usr/bin/env python3
"""Run selftest, selftest --corrupt-omega and selftest again in one process.

The parser, the stored fixture and the pairing factors are kept for the
life of a process, so a twist corrupted in one run must not reach the
next.  Exits 0 only when the three runs exit 0, 1 and 0, the corrupted run
fails the beta-cocycle property and no other, and the last report equals
the first.  The checks are if statements, not asserts, so the script
means the same under python -O:

    python -O scripts/selftest_sequence.py
"""

import io
import json
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from crossbraid.cli import run  # noqa: E402


def selftest(*flags: str) -> tuple[int, str]:
    buf = io.StringIO()
    code = run(["selftest", *flags], out=buf)
    return code, buf.getvalue()


def failed_properties(text: str) -> list[str]:
    return [row["property"] for row in json.loads(text)["properties"]
            if not row["ok"]]


def main() -> int:
    first = selftest()
    corrupt = selftest("--corrupt-omega")
    last = selftest()
    problems = []
    for label, (code, text), want in (("selftest", first, 0),
                                      ("selftest --corrupt-omega", corrupt, 1),
                                      ("selftest again", last, 0)):
        print(f"{label}: exit {code}, failed {failed_properties(text)}")
        if code != want:
            problems.append(f"{label} exited {code}, expected {want}")
    if failed_properties(corrupt[1]) != ["beta-cocycle"]:
        problems.append("the corrupted run must fail beta-cocycle alone")
    if last != first:
        problems.append("the last selftest report differs from the first")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
