"""Extension and lifting obstructions reduced to exact cohomology tests.

Three questions, all answered on group-theoretic shadows: does a fibered
enrichment extend over a quotient (a direct-product recognition problem),
does a zesting datum lift (a pushforward coboundary test), and does the
fully faithful obstruction vanish (a plain coboundary test plus a count
of splittings).
"""

from dataclasses import dataclass

import numpy as np

from .cohomology import (
    Cochain,
    CoefficientModule,
    count_splittings,
    is_coboundary,
    is_cocycle,
    pushforward,
    trivial_module,
)
from .errors import NotACocycle, NotNormal, ParentMismatch
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    cached_on,
    count_homs_to_abelian,
    is_normal,
    quotient,
    subgroup_as_group,
)
from .twisted_center import invertibles_of_center


@dataclass(frozen=True)
class ExtensionData:
    """A normal subgroup with quotient, minimal-id section and cocycle.

    The section satisfies lambda_g lambda_h = lambda_{gh} n_{g,h} with
    n valued in the normal subgroup; construction re-checks that and the
    twisted cocycle identity of n.
    """

    group: FiniteGroup
    normal: Subgroup
    base: FiniteGroup
    projection: GroupHom
    section: tuple[int, ...]
    cocycle: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        TE, TG = self.group.table, self.base.table
        lam, n = np.array(self.section), np.array(self.cocycle)
        if lam[0] != 0:
            raise ValueError("section must start at the identity")
        _raise_first(np.array(self.projection.images)[lam] != np.arange(len(lam)),
                     "section does not split the projection at {}")
        _raise_first(~np.isin(n, self.normal.elements),
                     "cocycle value at ({},{}) is outside N")
        _raise_first(TE[lam[:, None], lam] != TE[lam[TG], n],
                     "section identity fails at ({},{})")
        g, h, k = np.ix_(*(range(len(lam)),) * 3)
        # n(gh, k) (lam_k^-1 n(g, h) lam_k) = n(g, hk) n(h, k)
        inner = TE[TE[self.group.inverse[lam[k]], n[g, h]], lam[k]]
        _raise_first(TE[n[TG[g, h], k], inner] != TE[n[g, TG[h, k]], n[h, k]],
                     "cocycle identity fails at ({},{},{})")


def _raise_first(bad: np.ndarray, message: str) -> None:
    """ValueError with the first flagged index filled into message, if any."""
    if bad.any():
        raise ValueError(message.format(*np.argwhere(bad)[0].tolist()))


def _section_cocycle(E: FiniteGroup, G: FiniteGroup, lam: np.ndarray):
    """lam(gh)^-1 lam(g) lam(h) for every (g, h), as an array of E ids."""
    TE = E.table
    return TE[E.inverse[lam[G.table]], TE[lam[:, None], lam]]


def extension_cocycle(E: FiniteGroup, N: Subgroup) -> ExtensionData:
    """Extension data for N inside E with the minimal-id section."""
    if not N.parent.same_table(E):
        raise ParentMismatch("subgroup belongs to a different group")
    if not is_normal(E, N):
        raise NotNormal(f"subgroup {N.elements} is not normal in the ambient group")
    G, proj = quotient(E, N)
    lam = proj.min_section()
    n = _section_cocycle(E, G, np.array(lam))
    return ExtensionData(E, N, G, proj, lam, tuple(map(tuple, n.tolist())))


@dataclass(frozen=True)
class FiberedReport:
    """Verdict of the direct-product recognition test."""

    extends: bool
    reason: str
    torsor_count: int | None = None

    def __bool__(self) -> bool:
        return self.extends


def fibered_enrichment_extends(E: FiniteGroup, N: Subgroup) -> FiberedReport:
    """Whether the enrichment along E/N extends, i.e. N splits off E.

    The test looks for a homomorphic section with image centralizing N:
    first the centralizer of N must cover the quotient, then the cocycle
    of a centralizing section (valued in the center of N) must be a
    coboundary.  On success the count of extensions is the torsor size
    |Hom(E/N, Z(N))|.
    """
    if not N.parent.same_table(E):
        raise ParentMismatch("subgroup belongs to a different group")
    if not is_normal(E, N):
        raise NotNormal(f"fiber subgroup {N.elements} is not normal in the ambient group")
    G, proj = quotient(E, N)
    TE, ids = E.table, list(N.elements)
    # whether each element of E commutes with every element of N
    commutes = (TE[:, ids] == TE[ids].T).all(axis=1).tolist()
    # the least centralizing lift of each element of the quotient
    lift: dict[int, int] = {}
    for x, g in enumerate(proj.images):
        if commutes[x]:
            lift.setdefault(g, x)
    if len(lift) < G.order:
        return FiberedReport(False, "conjugation acts nontrivially on N")
    zn = tuple(z for z in N.elements if commutes[z])
    Zgrp, emb = subgroup_as_group(Subgroup(E, zn))
    module = trivial_module(Zgrp)
    lam = np.array([lift[g] for g in G.elements])
    # cocycle values lie in Z(N), whose sorted ids emb number Zgrp
    table = np.searchsorted(emb, _section_cocycle(E, G, lam)).ravel()
    c = Cochain(2, G, module, table, normalized=True)
    if not is_cocycle(c):
        raise NotACocycle("extension 2-cochain fails the cocycle identity")
    if is_coboundary(c) is None:
        return FiberedReport(False, "extension class does not vanish")
    return FiberedReport(True, "a direct product complement exists",
                         count_homs_to_abelian(G, Zgrp))


def zesting_lift_exists(N: FiniteGroup, G: FiniteGroup,
                        omega: Cochain) -> bool:
    """Whether a zesting datum lifts: the central pushforward must die.

    omega is a 2-cocycle on G valued in the invertibles of the center of
    the fiber (character part times center part, trivial action); only
    its projection to the center part obstructs.
    """
    inv = invertibles_of_center(N)
    if omega.degree != 2:
        raise NotACocycle("zesting data is a 2-cochain")
    if not omega.group.same_table(G):
        raise ParentMismatch("cochain lives over a different base group")
    if not omega.module.is_trivial_action \
            or not omega.module.group.same_table(inv.group):
        raise NotACocycle(
            "values must lie in the invertibles of the center, untwisted")
    if not is_cocycle(omega):
        raise NotACocycle("zesting data must satisfy the cocycle identity")
    # the trivial module over Z(N) is kept with the fiber's invertibles
    center_module = cached_on(inv.center_part, trivial_module)
    pushed = pushforward(omega, inv.projection, center_module)
    return is_coboundary(pushed) is not None


@dataclass(frozen=True)
class ObstructionReport:
    """Vanishing verdict plus the number of splittings when it vanishes."""

    vanishes: bool
    splitting_count: int

    def __bool__(self) -> bool:
        return self.vanishes


def fully_faithful_obstruction(G: FiniteGroup, A: CoefficientModule,
                               omega2: Cochain) -> ObstructionReport:
    """Coboundary test for the fully faithful lifting obstruction.

    The splitting count is 0 when the class is nontrivial and the number
    of homomorphisms G -> A otherwise; validation (trivial action,
    degree, parents, cocycle identity) happens in the counting step.  The
    count makes the one coboundary test: splittings of a vanishing class
    form a torsor over Hom(G, A), which holds the trivial map, so the class
    vanishes exactly when the count is positive.
    """
    count = count_splittings(A, G, omega2)
    return ObstructionReport(count > 0, count)
