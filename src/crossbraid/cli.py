"""Batch front-end: parse group and cocycle inputs, dispatch, report.

JSON is the single source of truth for output; the aligned-text table
format is rendered from the same record and never parsed back.  Reports
are byte-identical for identical inputs and seed: nothing here runs
concurrently and every collection is emitted in a sorted or otherwise
pinned order.

Exit codes: 0 success, 2 domain rejection (with a structured reason),
1 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from .braidings import enumerate_pointed, enumerate_rep, gradings_of_rep
from .cohomology import (
    Cochain,
    cohomology_group,
    differential,
    mu_module,
    random_cochain,
    trivial_module,
)
from .cohomology import DEFAULT_BUDGET as COHOMOLOGY_BUDGET
from .errors import (
    BudgetExceeded,
    CrossbraidError,
    DegreeTooHigh,
    GroupTooLarge,
    InvalidGrading,
    NonTrivialAction,
    NotAbelian,
    NotACocycle,
    NotAGroup,
    NotCentral,
    NotNormal,
    NotSurjective,
    UnknownBuiltin,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    all_subgroups,
    build_group,
    builtin_group,
    cached_on,
    center,
    check_lattice_order,
    conjugacy_classes,
    is_isomorphic,
    is_normal,
    json_int,
    product_group,
    quotient,
    subgroup_as_group,
)
from .obstructions import (
    fibered_enrichment_extends,
    fully_faithful_obstruction,
    zesting_lift_exists,
)
from .serialize import (
    H3_BATTERY,
    Stream,
    certificate_stream,
    cochain_from_json,
    cochain_to_json,
    dump_json,
    h3_class_representative,
    load_h3_fixture,
    subcat_stream,
    write_json,
)
from .subcats import DEFAULT_BUDGET as SUBCAT_BUDGET
from .subcats import (
    centralizer_subcat,
    enumerate_subcats,
    fpdim,
    solve_subcats,
    working_modulus,
)
from .twisted_center import (
    TwistedGroupData,
    beta_restricted_cocycle,
    invertibles_of_center,
    simple_census,
)

DEFAULT_SEED = 17

# errors where the input parsed fine but the mathematics says no
DOMAIN_ERRORS = (NotNormal, NotCentral, InvalidGrading, NotSurjective,
                 NonTrivialAction, NotAbelian, BudgetExceeded, GroupTooLarge,
                 DegreeTooHigh)


@dataclass(frozen=True)
class RunConfig:
    verb: str
    group: str | None = None
    omega: str = "trivial"
    grading: str = "full"
    center_subgroup: str = "full"
    extension: str | None = None
    normal: str | None = None
    fiber: str | None = None
    degree: int = 3
    modulus: int | None = None
    format: str = "json"
    budget: int | None = None
    seed: int = DEFAULT_SEED
    corrupt_omega: bool = False


# -- input loading -----------------------------------------------------------

def _load_group(spec: str | None, flag: str) -> FiniteGroup:
    if spec is None:
        raise NotAGroup(f"missing required group argument {flag}")
    try:
        return builtin_group(spec)
    except UnknownBuiltin:
        pass
    path = Path(spec)
    if not path.is_file():
        raise NotAGroup(
            f"{spec!r} is neither a builtin group nor a readable file")
    return build_group(json.loads(path.read_text()))


def _read_cochain(path: Path, G: FiniteGroup, cfg: RunConfig,
                  degree: int) -> Cochain:
    """A cochain file of the given degree, with the modulus it names gated
    like --modulus; both are checked before any table is built."""
    obj = json.loads(path.read_text())
    if not isinstance(obj, dict):
        raise NotACocycle("a cochain document must be a JSON object")
    if "modulus" in obj:
        _gate_modulus(json_int(obj["modulus"], "modulus", NotACocycle), cfg)
    found = json_int(obj.get("degree"), "degree", NotACocycle)
    if found != degree:
        raise NotACocycle(f"expected a {degree}-cochain, got degree {found}")
    return cochain_from_json(G, obj)


def _load_twist(cfg: RunConfig, G: FiniteGroup) -> TwistedGroupData:
    spec = cfg.omega
    if spec == "trivial":
        return TwistedGroupData.trivial(G)
    if spec.startswith("repr:"):
        index = int(spec.split(":", 1)[1])
        if G.name not in H3_BATTERY:
            raise NotACocycle(
                f"no stored 3-cocycle classes for group {G.name!r}")
        return TwistedGroupData(G, h3_class_representative(G.name, index))
    path = Path(spec)
    if not path.is_file():
        raise NotACocycle(
            f"omega spec {spec!r} is not trivial, repr:k, or a readable file")
    return TwistedGroupData(G, _read_cochain(path, G, cfg, 3))


def _load_cochain(cfg: RunConfig, G: FiniteGroup, degree: int,
                  default_module) -> Cochain:
    """--omega as a cochain; default_module() is built only for "trivial"."""
    spec = cfg.omega
    if spec == "trivial":
        return Cochain.zero(G, default_module(), degree)
    path = Path(spec)
    if not path.is_file():
        raise NotACocycle(
            f"omega spec {spec!r} is not trivial or a readable file")
    return _read_cochain(path, G, cfg, degree)


def _parse_ids(text: str | None, flag: str) -> tuple[int, ...]:
    if text is None:
        raise NotAGroup(f"missing required id list {flag}")
    try:
        ids = tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise NotAGroup(f"cannot parse element ids from {text!r}") from None
    return tuple(sorted(set(ids)))


def _positive(value: int | None, flag: str, default: int) -> int:
    """An optional positive option: its default when absent, else checked."""
    if value is None:
        return default
    if value < 1:
        raise ValueError(f"{flag} must be a positive integer, got {value}")
    return value


def _gate_modulus(modulus: int, cfg: RunConfig) -> int:
    """The --budget, checked against a modulus before any table is built.

    mu_module(modulus) builds a modulus x modulus table, so its size is
    held to the same budget as the cohomology computation.
    """
    budget = _positive(cfg.budget, "--budget", COHOMOLOGY_BUDGET)
    if modulus ** 2 > budget:
        raise BudgetExceeded(
            f"modulus^2 = {modulus ** 2} table entries exceeds budget {budget}")
    return budget


def _modulus(cfg: RunConfig, G: FiniteGroup) -> tuple[int, int]:
    """The --modulus (default |G|) and the --budget it passed."""
    modulus = _positive(cfg.modulus, "--modulus", G.order)
    return modulus, _gate_modulus(modulus, cfg)


def _describe(G: FiniteGroup) -> str:
    return G.name or f"order-{G.order}"


# -- verb handlers -----------------------------------------------------------

def _cmd_group(cfg: RunConfig):
    G = _load_group(cfg.group, "--group")
    report = {
        "name": G.name,
        "order": G.order,
        "abelian": G.is_abelian,
        "exponent": G.exponent,
        "element_orders": [int(o) for o in G.element_orders],
        "center": [int(x) for x in center(G).elements],
        "conjugacy_classes": [[int(x) for x in members]
                              for _, members in conjugacy_classes(G)],
    }
    return 0, report


def _cmd_subgroups(cfg: RunConfig):
    G = _load_group(cfg.group, "--group")
    subs = all_subgroups(G)
    report = {
        "group": _describe(G),
        "order": G.order,
        "count": len(subs),
        "subgroups": [{"elements": [int(x) for x in s.elements],
                       "order": s.order,
                       "normal": is_normal(G, s)} for s in subs],
    }
    return 0, report


def _cmd_cohomology(cfg: RunConfig):
    G = _load_group(cfg.group, "--group")
    modulus, budget = _modulus(cfg, G)
    H = cohomology_group(G, cfg.degree, mu_module(modulus), budget=budget)
    report = {
        "group": _describe(G),
        "degree": cfg.degree,
        "modulus": modulus,
        "invariant_factors": [int(f) for f in H.invariant_factors],
        "order": H.order,
        "representatives": [cochain_to_json(r) for r in H.representatives],
    }
    return 0, report


def _cmd_center_census(cfg: RunConfig):
    G = _load_group(cfg.group, "--group")
    data = _load_twist(cfg, G)
    census = simple_census(data)
    report = {
        "group": _describe(G),
        "omega": cfg.omega,
        "modulus": data.modulus,
        "total_simples": census.total_simples,
        "fpdim_square_total": census.fpdim_square_total,
        "labels": [{"representative": l.representative,
                    "class_size": l.class_size,
                    "centralizer_order": l.centralizer_order,
                    "irrep_count": l.irrep_count,
                    "fpdim_square": l.fpdim_square}
                   for l in census.labels],
    }
    return 0, report


def _cmd_subcats(cfg: RunConfig):
    G = _load_group(cfg.group, "--group")
    # the subgroup cap is read off the order, before the twist's |G|^4
    # cocycle check
    check_lattice_order(G)
    data = _load_twist(cfg, G)
    # every pair is solved and the budget read here; the data are made
    # as the report is written
    count, subs = solve_subcats(
        data, budget=_positive(cfg.budget, "--budget", SUBCAT_BUDGET))
    report = {
        "group": _describe(G),
        "omega": cfg.omega,
        "working_modulus": working_modulus(data),
        "count": count,
        "subcategories": subcat_stream(subs),
    }
    return 0, report


def _cmd_crossed_pointed(cfg: RunConfig):
    G = _load_group(cfg.group, "--group")
    data = _load_twist(cfg, G)
    if cfg.grading == "full":
        pi = GroupHom(G, G, tuple(G.elements))
    elif cfg.grading.startswith("quotient-by:"):
        ids = _parse_ids(cfg.grading.split(":", 1)[1], "--grading")
        _, pi = quotient(G, Subgroup(G, ids))
    else:
        raise NotAGroup(
            f"grading {cfg.grading!r} is not full or quotient-by:ids")
    kernel = pi.kernel()
    central = set(center(G).elements)
    base = {
        "group": _describe(G),
        "omega": cfg.omega,
        "grading_order": pi.target.order,
    }
    if not set(kernel.elements) <= central:
        base.update({
            "count": 0,
            "certificates": [],
            "reason": "kernel-not-central",
            "kernel": [int(x) for x in kernel.elements],
            "center": sorted(int(x) for x in central),
        })
        return 2, base
    certs = enumerate_pointed(data, pi)
    base.update({
        "count": len(certs),
        "certificates": certificate_stream(certs),
    })
    return 0, base


def _cmd_crossed_rep(cfg: RunConfig):
    G = _load_group(cfg.group, "--group")
    if cfg.center_subgroup == "full":
        H = center(G)
    elif cfg.center_subgroup == "trivial":
        H = Subgroup(G, (0,))
    else:
        H = Subgroup(G, _parse_ids(cfg.center_subgroup, "--center-subgroup"))
    certs = enumerate_rep(G, H)
    report = {
        "group": _describe(G),
        "center_subgroup": [int(x) for x in H.elements],
        "count": len(certs),
        "certificates": certificate_stream(certs),
    }
    return 0, report


def _cmd_gradings_rep(cfg: RunConfig):
    G = _load_group(cfg.group, "--group")
    specs = gradings_of_rep(G)
    report = {
        "group": _describe(G),
        "count": len(specs),
        "gradings": [{"central": [int(x) for x in g.central.elements],
                      "grading_order": g.central.order}
                     for g in specs],
    }
    return 0, report


def _cmd_fibered(cfg: RunConfig):
    E = _load_group(cfg.extension, "--extension")
    N = Subgroup(E, _parse_ids(cfg.normal, "--normal"))
    rep = fibered_enrichment_extends(E, N)
    report = {
        "extension": _describe(E),
        "normal": [int(x) for x in N.elements],
        "extends": rep.extends,
        "reason": rep.reason,
        "torsor_count": rep.torsor_count,
    }
    return 0, report


def _cmd_zesting(cfg: RunConfig):
    N = _load_group(cfg.fiber, "--fiber")
    G = _load_group(cfg.group, "--group")
    inv = invertibles_of_center(N)
    w = _load_cochain(cfg, G, 2,
                      lambda: cached_on(inv.group, trivial_module))
    lifts = zesting_lift_exists(N, G, w)
    report = {
        "fiber": _describe(N),
        "base": _describe(G),
        "invertibles_order": inv.group.order,
        "lifts": lifts,
        "reason": ("center component of the class vanishes" if lifts
                   else "center component of the class is nontrivial"),
    }
    return 0, report


def _cmd_obstruction(cfg: RunConfig):
    G = _load_group(cfg.group, "--group")
    modulus, _budget = _modulus(cfg, G)
    w = _load_cochain(cfg, G, 2, lambda: mu_module(modulus))
    rep = fully_faithful_obstruction(G, w.module, w)
    report = {
        "group": _describe(G),
        "omega": cfg.omega,
        "vanishes": rep.vanishes,
        "splitting_count": rep.splitting_count,
        "reason": ("second obstruction vanishes" if rep.vanishes
                   else "second obstruction class is nontrivial"),
    }
    return 0, report


# -- selftest ----------------------------------------------------------------

class PropertyFailed(Exception):
    """A selftest property does not hold; the message names the witness."""


def _battery_twists(cfg: RunConfig) -> list[tuple[str, int, TwistedGroupData]]:
    """Every stored twist as (battery name, class index, datum).

    --corrupt-omega bumps the entry at (1, 1, 1) of C4's class 1 by one:
    that datum holds the bumped cochain, unverified, so every row reading
    the list sees it.
    """
    twists = []
    for name in H3_BATTERY:
        H = load_h3_fixture(name)
        for k in range(H.class_count):
            omega = H.class_representative(k)
            if cfg.corrupt_omega and name == "C4" and k == 1:
                table = list(omega.table)
                cell = omega.index((1, 1, 1))
                table[cell] = (table[cell] + 1) % omega.module.group.order
                omega = Cochain(3, H.group, omega.module, table)
                data = TwistedGroupData._unverified(H.group, omega)
            else:
                data = TwistedGroupData(H.group, omega)
            twists.append((name, k, data))
    return twists


def _prop_group_axioms(cfg: RunConfig, twists):
    for name in H3_BATTERY:
        G = builtin_group(name)
        covered = sum(len(members) for _, members in conjugacy_classes(G))
        if covered != G.order:
            raise PropertyFailed(f"{name}: classes do not partition")
        for s in all_subgroups(G):
            if G.order % s.order:
                raise PropertyFailed(f"{name}: Lagrange fails")


def _prop_beta_cocycle(cfg: RunConfig, twists):
    for name, k, data in twists():
        for a, _ in conjugacy_classes(data.group):
            try:
                beta_restricted_cocycle(data, a)
            except CrossbraidError as e:
                raise PropertyFailed(
                    f"{name} class {k} element {a}: {e}") from None


def _prop_census_total(cfg: RunConfig, twists):
    # simple_census raises BetaNotCocycle when the |G|^2 identity fails
    for _name, _k, data in twists():
        simple_census(data)


def _prop_subcat_duality(cfg: RunConfig, twists):
    for name in H3_BATTERY:
        data = TwistedGroupData.trivial(builtin_group(name))
        square = data.group.order ** 2
        for s in enumerate_subcats(data):
            dual = centralizer_subcat(s)
            if fpdim(s) * fpdim(dual) != square:
                raise PropertyFailed(f"{name}: duality fails")
            if centralizer_subcat(dual) != s:
                raise PropertyFailed(f"{name}: not involutive")


def _prop_pointed_uniqueness(cfg: RunConfig, twists):
    for name, k, data in twists():
        G = data.group
        pi = GroupHom(G, G, tuple(G.elements))
        count = len(enumerate_pointed(data, pi))
        if count != 1:
            raise PropertyFailed(f"{name} class {k}: {count} certificates")


def _prop_fibered_recognition(cfg: RunConfig, twists):
    for name in H3_BATTERY:
        E = builtin_group(name)
        for N in all_subgroups(E):
            if not is_normal(E, N):
                continue
            Q, _ = quotient(E, N)
            Ngrp, _ = subgroup_as_group(N)
            expected = is_isomorphic(E, product_group(Ngrp, Q))
            got = fibered_enrichment_extends(E, N).extends
            if got != expected:
                raise PropertyFailed(f"{name} over {N.elements}")


def _prop_differential_squares_to_zero(cfg: RunConfig, twists):
    rng = random.Random(cfg.seed)
    for name in ("C2", "C4", "S3"):
        G = builtin_group(name)
        module = mu_module(G.order)
        for degree in (1, 2):
            for _ in range(5):
                c = random_cochain(G, module, degree, rng)
                if not differential(differential(c)).is_zero:
                    raise PropertyFailed(
                        f"{name}: d(d(c)) nonzero in degree {degree}")


SELFTEST_PROPERTIES = (
    ("group-axioms", _prop_group_axioms),
    ("beta-cocycle", _prop_beta_cocycle),
    ("census-total", _prop_census_total),
    ("subcat-duality", _prop_subcat_duality),
    ("pointed-uniqueness", _prop_pointed_uniqueness),
    ("fibered-recognition", _prop_fibered_recognition),
    ("differential-squares-to-zero", _prop_differential_squares_to_zero),
)


def _cmd_selftest(cfg: RunConfig):
    # the stored twists, built on first use and shared by every row; a
    # build that raises is not kept, so each row reading it reports it
    twists = functools.cache(lambda: _battery_twists(cfg))
    rows = []
    all_ok = True
    for name, prop in SELFTEST_PROPERTIES:
        try:
            prop(cfg, twists)
            rows.append({"property": name, "ok": True, "detail": ""})
        except (PropertyFailed, CrossbraidError, ValueError) as e:
            all_ok = False
            rows.append({"property": name, "ok": False, "detail": str(e)})
    report = {
        "battery": list(H3_BATTERY),
        "seed": cfg.seed,
        "ok": all_ok,
        "properties": rows,
    }
    return (0 if all_ok else 1), report


_DISPATCH = {
    "group": _cmd_group,
    "subgroups": _cmd_subgroups,
    "cohomology": _cmd_cohomology,
    "center-census": _cmd_center_census,
    "subcats": _cmd_subcats,
    "crossed-pointed": _cmd_crossed_pointed,
    "crossed-rep": _cmd_crossed_rep,
    "gradings-rep": _cmd_gradings_rep,
    "fibered": _cmd_fibered,
    "zesting": _cmd_zesting,
    "obstruction": _cmd_obstruction,
    "selftest": _cmd_selftest,
}


# -- argument parsing and entry points ---------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process.

    parse_args keeps no state between calls, so every run may share it.
    Options not given stay out of the namespace: RunConfig has defaults.
    """
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("json", "table"))
    common.add_argument("--budget", type=int)
    common.add_argument("--seed", type=int)

    parser = argparse.ArgumentParser(
        prog="crossbraid",
        description="Exact enumeration of crossed braidings and "
                    "enrichment obstructions over finite group data.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name):
        return sub.add_parser(name, parents=[common],
                              argument_default=argparse.SUPPRESS)

    for name in ("group", "subgroups", "gradings-rep"):
        verb(name).add_argument("--group", required=True)

    p = verb("cohomology")
    p.add_argument("--group", required=True)
    p.add_argument("--degree", type=int)
    p.add_argument("--modulus", type=int)

    for name in ("center-census", "subcats"):
        p = verb(name)
        p.add_argument("--group", required=True)
        p.add_argument("--omega")

    p = verb("crossed-pointed")
    p.add_argument("--group", required=True)
    p.add_argument("--omega")
    p.add_argument("--grading")

    p = verb("crossed-rep")
    p.add_argument("--group", required=True)
    p.add_argument("--center-subgroup")

    p = verb("fibered")
    p.add_argument("--extension", required=True)
    p.add_argument("--normal", required=True)

    p = verb("zesting")
    p.add_argument("--fiber", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--omega")

    p = verb("obstruction")
    p.add_argument("--group", required=True)
    p.add_argument("--omega")
    p.add_argument("--modulus", type=int)

    verb("selftest").add_argument("--corrupt-omega", action="store_true")

    return parser


def _parse_args(argv) -> RunConfig:
    return RunConfig(**vars(_parser().parse_args(argv)))


def _render_table(report: dict) -> str:
    rows = []
    for key, value in report.items():
        if isinstance(value, Stream):
            value = list(value)
        if isinstance(value, (list, dict)):
            value = json.dumps(value, separators=(",", ":"))
        rows.append((key, str(value)))
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        cfg = _parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        code, report = _DISPATCH[cfg.verb](cfg)
    except DOMAIN_ERRORS as e:
        out.write(dump_json({"error": type(e).__name__, "reason": str(e)}))
        return 2
    except (CrossbraidError, OSError, ValueError, KeyError,
            json.JSONDecodeError) as e:
        out.write(dump_json({"error": type(e).__name__, "reason": str(e)}))
        return 1
    # a handler raises every error its input can cause before it returns,
    # so nothing raises once the report's first byte is written; a Stream
    # in it is made as it is written (write_json)
    if cfg.format == "json":
        write_json(report, out.write)
    else:
        out.write(_render_table(report))
    return code


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
