#!/usr/bin/env python3
"""Regenerate the stored H^3(G, mu_|G|) representatives for the test battery.

Writes src/crossbraid/data/h3_reps.json through serialize.dump_json, the
writer the CLI uses.  Deterministic end to end, so the output is stable
across runs; differences mean the engine or the writer changed.

With --check, nothing is written: the fixture is recomputed and compared
with the stored file byte for byte, and the exit code is 1 on any
difference.
"""

import argparse
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from crossbraid.cohomology import cohomology_group, mu_module  # noqa: E402
from crossbraid.groups import builtin_group  # noqa: E402
from crossbraid.serialize import (  # noqa: E402
    H3_BATTERY,
    cochain_to_json,
    dump_json,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the stored fixture; write nothing")
    args = parser.parse_args()
    doc = {}
    for name in H3_BATTERY:
        G = builtin_group(name)
        H = cohomology_group(G, 3, mu_module(G.order))
        doc[name] = {
            "modulus": G.order,
            "invariant_factors": list(H.invariant_factors),
            "class_count": H.order,
            "representatives": [cochain_to_json(rep) for rep in H.representatives],
        }
        print(f"{name}: factors={H.invariant_factors} classes={H.order}")
    text = dump_json(doc)
    out = SRC / "crossbraid" / "data" / "h3_reps.json"
    if args.check:
        if out.is_file() and out.read_bytes() == text.encode():
            print(f"{out} is up to date")
            return 0
        print(f"{out} differs from the regenerated fixture")
        return 1
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
