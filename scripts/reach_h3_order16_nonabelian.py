#!/usr/bin/env python3
"""H^3(D16, mu_16) and H^3(Q16, mu_16) against their closed forms.

Both d_3 systems are 50625 x 3375, past what tier-1 runs.  D16 is a
builtin; Q16, the dicyclic group of order 16, is built from its table by
dicyclic(4) in tests/test_acceptance.py, so the CLI gains no group.
Prints each group's invariant factors and wall time, then the peak
resident set size (Linux reports it in KiB), and exits 1 unless the
factors equal dihedral_h3(16, 16) = (2, 2, 2, 8) and
dicyclic_h3(16, 16) = (16,) and the peak stays within PEAK_RSS_MB.  The
run reads about 480 MB: two int8 copies of d_3, as in reach_h3_order16.py,
and their temporaries.
Every check is an if statement, so it holds under python -O too:

    python3 scripts/reach_h3_order16_nonabelian.py
"""

import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from crossbraid.cohomology import cohomology_group, mu_module  # noqa: E402
from crossbraid.groups import builtin_group  # noqa: E402
from test_acceptance import dicyclic, dicyclic_h3, dihedral_h3  # noqa: E402

PEAK_RSS_MB = 600


def main() -> int:
    failed = False
    for name, G, expected in (("D16", builtin_group("D16"),
                               dihedral_h3(16, 16)),
                              ("Q16", dicyclic(4), dicyclic_h3(16, 16))):
        start = time.perf_counter()
        H = cohomology_group(G, 3, mu_module(16))
        elapsed = time.perf_counter() - start
        print(f"H^3({name}, mu_16) = {H.invariant_factors} in {elapsed:.1f} s")
        if H.invariant_factors != expected:
            print(f"expected {expected}")
            failed = True
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak:.0f} MB")
    if peak > PEAK_RSS_MB:
        print(f"peak RSS exceeds {PEAK_RSS_MB} MB")
        failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
