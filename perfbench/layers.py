"""Per-layer spans recorded from outside the library.

Each public function named in ``LAYERS`` is replaced, at every attribute of
a ``crossbraid.*`` module that holds the original function object, by a
wrapper that counts calls and self time: a span's duration minus the time
of the wrapped spans it called.  A function is bound under several names
(``from .exact import solve_congruences`` in both ``cohomology`` and
``subcats``), so patching only the defining module would miss most calls.
For a class the span wraps ``__init__``.

A name missing from the library is recorded as absent rather than raising,
and a span that never fired still reports zero calls: a later change may
legitimately drive a layer's call count to zero.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

LAYERS = {
    "exact": ("diagonalize_mod", "solve_congruences", "smith_normal_form"),
    "cohomology": ("cohomology_group", "is_coboundary", "is_cocycle"),
    "groups": ("all_subgroups", "normal_subgroups", "commuting_normal_pairs",
               "quotient", "count_homs_to_abelian"),
    "twisted_center": ("TwistedGroupData", "simple_census"),
    "subcats": ("enumerate_subcats", "verify_bicharacter"),
    "braidings": ("enumerate_pointed", "enumerate_rep",
                  "check_theorem_conditions"),
    "obstructions": ("fibered_enrichment_extends", "zesting_lift_exists",
                     "fully_faithful_obstruction"),
    "serialize": ("dump_json", "subcat_to_json", "certificate_to_json",
                  "cochain_to_json"),
    "cli": ("run",),
}

# extra counters per span, in the order they are reported
EXTRA = {
    "exact.diagonalize_mod": ("cells", "nnz"),
    "exact.solve_congruences": ("cells",),
    "subcats.verify_bicharacter": ("rejects",),
    "braidings.enumerate_rep": ("certificates",),
    "serialize.dump_json": ("bytes",),
}

LATTICE_POINTS = "subcats.lattice_points"


def _shape_cells(A) -> int:
    rows, cols = np.shape(A)
    return int(rows) * int(cols)


def _count_matrix(stats, args, result):
    stats["cells"] += _shape_cells(args[0])
    stats["nnz"] += int(np.count_nonzero(args[0]))


def _count_cells(stats, args, result):
    stats["cells"] += _shape_cells(args[0])


def _count_reject(stats, args, result):
    stats["rejects"] += 0 if result else 1


def _count_certificates(stats, args, result):
    stats["certificates"] += len(result)


def _count_bytes(stats, args, result):
    stats["bytes"] += len(result.encode())


COUNTERS = {
    "exact.diagonalize_mod": _count_matrix,
    "exact.solve_congruences": _count_cells,
    "subcats.verify_bicharacter": _count_reject,
    "braidings.enumerate_rep": _count_certificates,
    "serialize.dump_json": _count_bytes,
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for module, names in LAYERS.items():
        for fname in names:
            span = f"{module}.{fname}"
            if span != "cli.run":
                out.append((f"{span}.calls", "count"))
            out.append((f"{span}.self_s", "s"))
            out.extend((f"{span}.{c}", "count") for c in EXTRA.get(span, ()))
            if span == "subcats.verify_bicharacter":
                out.append((f"{span}.accept_ratio", "ratio"))
    out.append((LATTICE_POINTS, "count"))
    return out


class Tracer:
    """Span statistics keyed by ``<module>.<function>``."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.absent: list[str] = []
        self.lattice_points = 0
        self._stack: list[float] = []

    def _wrap(self, span: str, fn, count):
        stats = self.stats[span]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = perf_counter()
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stats["calls"] += 1
                stats["self_s"] += (end - start) - stack.pop()
                if stack:
                    stack[-1] += end - enter
            if count is not None:
                # the counter's own cost is hidden from the caller's self time
                begin = perf_counter()
                count(stats, args, result)
                if stack:
                    stack[-1] += perf_counter() - begin
            return result
        return wrapper

    def _count_lattice(self, stats, args, result):
        _count_cells(stats, args, result)
        if result is not None:
            self.lattice_points += result.count

    def install(self, package) -> None:
        """Wrap every binding of every LAYERS function in ``package``."""
        prefix = package.__name__
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == prefix or n.startswith(prefix + ".")]
        for module, names in LAYERS.items():
            home = sys.modules.get(f"{prefix}.{module}")
            for fname in names:
                span = f"{module}.{fname}"
                self.stats[span] = dict.fromkeys(
                    ("calls", "self_s") + EXTRA.get(span, ()), 0)
                orig = getattr(home, fname, None)
                if orig is None:
                    self.absent.append(span)
                    continue
                if isinstance(orig, type):
                    orig.__init__ = self._wrap(span, orig.__init__, None)
                    continue
                for m in modules:
                    attrs = [a for a, v in vars(m).items() if v is orig]
                    if not attrs:
                        continue
                    count = COUNTERS.get(span)
                    if (span == "exact.solve_congruences"
                            and m.__name__ == f"{prefix}.subcats"):
                        count = self._count_lattice
                    wrapped = self._wrap(span, orig, count)
                    for attr in attrs:
                        setattr(m, attr, wrapped)

    def unfired(self) -> list[str]:
        return [span for span, s in self.stats.items()
                if s["calls"] == 0 and span not in self.absent]

    def metrics(self) -> dict[str, float]:
        out = {}
        for name, _unit in metric_names():
            if name == LATTICE_POINTS:
                out[name] = self.lattice_points
                continue
            span, counter = name.rsplit(".", 1)
            s = self.stats[span]
            if counter == "accept_ratio":
                out[name] = ((s["calls"] - s["rejects"]) / s["calls"]
                             if s["calls"] else 0.0)
            else:
                out[name] = s[counter]
        return out
