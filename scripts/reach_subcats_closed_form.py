#!/usr/bin/env python3
"""Subcategories of the untwisted C3xC3xC3 center against a closed form.

Z(Vec_A) is pointed by A x dual(A), so for A = (Z/3)^3 its subcategories
S(L, M, B) are the subgroups of (Z/3)^6: 56632 of them, the Galois number
that subgroup_count from tests/test_acceptance.py computes.  That is past
what all_subgroups or tier-1 runs: the pairing catalog of an order-27 group
has 60K rows.  Prints the count, the wall time and the peak resident set
size (Linux reports it in KiB), and exits 1 unless the count matches and
the peak stays within PEAK_RSS_MB.  Both checks are if statements, so they
hold under python -O too:

    python3 scripts/reach_subcats_closed_form.py
"""

import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from crossbraid.groups import builtin_group  # noqa: E402
from crossbraid.subcats import enumerate_subcats  # noqa: E402
from crossbraid.twisted_center import TwistedGroupData  # noqa: E402
from test_acceptance import subgroup_count  # noqa: E402

PEAK_RSS_MB = 600


def main() -> int:
    expected = subgroup_count((3, 3, 3) * 2)
    start = time.perf_counter()
    data = TwistedGroupData.trivial(builtin_group("C3xC3xC3"))
    count = len(enumerate_subcats(data))
    elapsed = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"subcategories of Z(Vec_C3xC3xC3): {count}")
    print(f"{elapsed:.1f} s, peak RSS {peak:.0f} MB")
    if count != expected:
        print(f"expected {expected}")
        return 1
    if peak > PEAK_RSS_MB:
        print(f"peak RSS exceeds {PEAK_RSS_MB} MB")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
