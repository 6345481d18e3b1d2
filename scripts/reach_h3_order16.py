#!/usr/bin/env python3
"""H^3(C2xC2xC2xC2, mu_2) against the Kunneth closed form.

Order 16 in degree 3 is past what tier-1 runs: d_3 is 50625 x 3375, 171 MB
at the int8 width of its mod 2 sweeps.  Prints the invariant factors, the
wall time and the peak resident set size (Linux reports it in KiB), and
exits 1 unless the factors equal
abelian_cohomology((2, 2, 2, 2), 3, 2) from tests/test_acceptance.py,
twenty factors of 2, and the peak stays within PEAK_RSS_MB.  The run
holds two copies of d_3, the stacked array and the reduction's, and
reads about 410 MB; a whole-array temporary beside them, such as int64
flat indices over d_3, would push it past the bound.  Both checks are if
statements, so they hold under python -O too:

    python3 scripts/reach_h3_order16.py
"""

import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from crossbraid.cohomology import cohomology_group, mu_module  # noqa: E402
from crossbraid.groups import builtin_group  # noqa: E402
from test_acceptance import abelian_cohomology  # noqa: E402

PEAK_RSS_MB = 600


def main() -> int:
    expected = abelian_cohomology((2, 2, 2, 2), 3, 2)
    start = time.perf_counter()
    H = cohomology_group(builtin_group("C2xC2xC2xC2"), 3, mu_module(2))
    elapsed = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"H^3(C2xC2xC2xC2, mu_2) = {H.invariant_factors}")
    print(f"{elapsed:.1f} s, peak RSS {peak:.0f} MB")
    if H.invariant_factors != expected:
        print(f"expected {expected}")
        return 1
    if peak > PEAK_RSS_MB:
        print(f"peak RSS exceeds {PEAK_RSS_MB} MB")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
