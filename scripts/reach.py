#!/usr/bin/env python3
"""Computations past what tier-1 runs, each against its closed form.

    python3 scripts/reach.py CASE

runs one case from CASES in this process, so its peak resident set size
(Linux reports it in KiB) is its own:

- h3-order16: H^3(C2xC2xC2xC2, mu_2) against the Kunneth closed form
  abelian_cohomology((2, 2, 2, 2), 3, 2), twenty factors of 2.  d_3 is
  50625 x 3375, 171 MB at the int8 width of its mod 2 sweeps.  The
  reduction takes over the stacked array and works on it in place, so
  the run holds one copy of d_3 and reads about 250 MB; a second copy,
  or a whole-array temporary beside it such as int64 flat indices over
  d_3, would push it past the bound.
- h3-order16-nonabelian: H^3(D16, mu_16) and H^3(Q16, mu_16) against
  dihedral_h3(16, 16) = (2, 2, 2, 8) and dicyclic_h3(16, 16) = (16,).
  Both d_3 systems are 50625 x 3375.  D16 is a builtin; Q16, the
  dicyclic group of order 16, is built from its table by dicyclic(4), so
  the CLI gains no group.  The run reads about 320 MB: one int8 copy of
  d_3, reduced in place, and its temporaries.
- subcats-closed-form: the subcategories S(L, M, B) of the untwisted
  C3xC3xC3 center.  Z(Vec_A) is pointed by A x dual(A), so for
  A = (Z/3)^3 they are the subgroups of (Z/3)^6: 56632 of them, the
  Galois number subgroup_count((3, 3, 3) * 2).  That is past what
  all_subgroups or tier-1 runs: the (G, G) pairing system alone has
  6561 rows over 729 unknowns.
- subcats-order40: the subcategories of the untwisted C40 and D8xC5
  centers.  For C40 they are the subgroups of C40 x C40, Birkhoff's
  count subgroup_count((40, 40)) = 296.  D8 and C5 have coprime orders,
  so every normal subgroup of D8xC5 is a product (Goursat's lemma), a
  pairing between the parts is trivial and the counts multiply: 45, the
  pinned count of D8, times subgroup_count((5, 5)).  Each pairing system
  keeps only the rows at generators, so its factor's row transform stays
  small.
- cli-subcats-order16: the CLI's subcats report for the untwisted
  C2xC2xC2xC2 center, written into a sink that counts what it is handed
  and keeps only the head of the first string.  Its count is the Galois
  number subgroup_count((2,) * 8) = 417199, and so is the number of
  entries written; the report is about 470 MB of text, which the writer
  streams, so the run holds one pairing lattice's sorted points (the
  largest has 2^16 tables of 256 entries) and reads about 210 MB.  The
  result is (exit code, count, entries).
- crossed-pointed-order256: the CLI's crossed-pointed report for the
  untwisted C256, graded along the identity, written into the same
  counting sink.  The kernel of the grading is trivial, so the one
  pairing system is over 1 x G, where only the zero pairing exists: the
  count is 1, with one certificate.  C256 is the largest cyclic group
  on which the cochain rule admits a degree-3 --omega document or the
  trivial twist's zero cochain (256^3 cells, the limit 64^4); the twist
  builds a beta table of that size.  The pairing system has 768
  rows over 256 unknowns.  The run reads about 560 MB: the zero
  cochain's int64 cells and its table of ids, the beta table, and one
  temporary of the same size while beta is built in place; a second copy
  of omega, or a second temporary beside beta, would push it past the
  bound.  CI runs it under a 1 GiB address-space cap.  The result is
  (exit code, count, certificates).

The closed forms come from tests/test_acceptance.py.  A case prints each
result, the wall time and the peak, and exits 1 unless every result
equals its closed form and the peak stays within the case's PEAK_RSS_MB.
Every check is an if statement, so it holds under python -O too.
"""

import argparse
import pathlib
import re
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from crossbraid.cli import run as run_cli  # noqa: E402
from crossbraid.cohomology import cohomology_group, mu_module  # noqa: E402
from crossbraid.groups import (builtin_group, cyclic,  # noqa: E402
                               product_group)
from crossbraid.subcats import enumerate_subcats  # noqa: E402
from crossbraid.twisted_center import TwistedGroupData  # noqa: E402
from test_acceptance import (abelian_cohomology, dicyclic,  # noqa: E402
                             dicyclic_h3, dihedral_h3, subgroup_count)


def h3(G, modulus):
    return lambda: cohomology_group(G, 3,
                                    mu_module(modulus)).invariant_factors


def subcats_of_untwisted(G):
    return lambda: len(enumerate_subcats(TwistedGroupData.trivial(G)))


class CountingSink:
    """A stdout that keeps the first string it is handed and counts the
    bytes of all and the entries, one marker each."""

    def __init__(self, marker: str):
        self.marker = marker
        self.head = None
        self.bytes = 0
        self.entries = 0

    def write(self, text: str) -> None:
        if self.head is None:
            self.head = text
        self.bytes += len(text)
        self.entries += text.count(self.marker)


def cli_report(verb, group, marker):
    def compute():
        sink = CountingSink(marker)
        code = run_cli([verb, "--group", group], out=sink)
        count = re.search(r'"count": (\d+)', sink.head)
        print(f"{sink.bytes} bytes written")
        return code, count and int(count.group(1)), sink.entries
    return compute


# case: (computations, PEAK_RSS_MB); a computation is (its printed line,
# with {} for the result; the computation; its closed form)
CASES = {
    "h3-order16": ((
        ("H^3(C2xC2xC2xC2, mu_2) = {}", h3(builtin_group("C2xC2xC2xC2"), 2),
         abelian_cohomology((2, 2, 2, 2), 3, 2)),
    ), 320),
    "h3-order16-nonabelian": ((
        ("H^3(D16, mu_16) = {}", h3(builtin_group("D16"), 16),
         dihedral_h3(16, 16)),
        ("H^3(Q16, mu_16) = {}", h3(dicyclic(4), 16), dicyclic_h3(16, 16)),
    ), 400),
    "subcats-closed-form": ((
        ("subcategories of Z(Vec_C3xC3xC3): {}",
         subcats_of_untwisted(builtin_group("C3xC3xC3")),
         subgroup_count((3, 3, 3) * 2)),
    ), 350),
    "subcats-order40": ((
        ("subcategories of Z(Vec_C40): {}",
         subcats_of_untwisted(builtin_group("C40")), subgroup_count((40, 40))),
        ("subcategories of Z(Vec_D8xC5): {}",
         subcats_of_untwisted(product_group(builtin_group("D8"), cyclic(5))),
         45 * subgroup_count((5, 5))),
    ), 290),
    "cli-subcats-order16": ((
        ("subcats --group C2xC2xC2xC2: exit, count and entries {}",
         cli_report("subcats", "C2xC2xC2xC2", '"fpdim": '),
         (0,) + (subgroup_count((2,) * 8),) * 2),
    ), 350),
    "crossed-pointed-order256": ((
        ("crossed-pointed --group C256: exit, count and certificates {}",
         cli_report("crossed-pointed", "C256", '"witness": '), (0, 1, 1)),
    ), 700),
}


def run(case: str) -> int:
    """Run one case; 1 when a result or the peak fails its check."""
    computations, peak_rss_mb = CASES[case]
    failed = False
    for line, compute, expected in computations:
        start = time.perf_counter()
        got = compute()
        elapsed = time.perf_counter() - start
        # one computation prints its time beside the peak, several each
        # beside its own result
        line = line.format(got)
        if len(computations) > 1:
            line += f" in {elapsed:.1f} s"
        print(line)
        if got != expected:
            print(f"expected {expected}")
            failed = True
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if len(computations) == 1:
        print(f"{elapsed:.1f} s, peak RSS {peak:.0f} MB")
    else:
        print(f"peak RSS {peak:.0f} MB")
    if peak > peak_rss_mb:
        print(f"peak RSS exceeds {peak_rss_mb} MB")
        failed = True
    return int(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("case", choices=sorted(CASES))
    return run(parser.parse_args(argv).case)


if __name__ == "__main__":
    sys.exit(main())
