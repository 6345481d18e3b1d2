"""Extension and lifting obstructions reduced to exact cohomology tests.

Three questions, all answered on group-theoretic shadows: does a fibered
enrichment extend over a quotient (a direct-product recognition problem),
does a zesting datum lift (a pushforward coboundary test), and does the
fully faithful obstruction vanish (a plain coboundary test plus a count
of splittings).
"""

from dataclasses import dataclass

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
        E, G = self.group, self.base
        lam, n = self.section, self.cocycle
        if lam[0] != 0:
            raise ValueError("section must start at the identity")
        inside = set(self.normal.elements)
        for g in G.elements:
            if self.projection(lam[g]) != g:
                raise ValueError(f"section does not split the projection at {g}")
            for h in G.elements:
                x = n[g][h]
                if x not in inside:
                    raise ValueError(f"cocycle value at ({g},{h}) is outside N")
                if E.mul(lam[g], lam[h]) != E.mul(lam[G.mul(g, h)], x):
                    raise ValueError(f"section identity fails at ({g},{h})")
        for g in G.elements:
            for h in G.elements:
                for k in G.elements:
                    left = E.mul(n[G.mul(g, h)][k],
                                 E.conj(E.inv(lam[k]), n[g][h]))
                    right = E.mul(n[g][G.mul(h, k)], n[h][k])
                    if left != right:
                        raise ValueError(
                            f"cocycle identity fails at ({g},{h},{k})")


def extension_cocycle(E: FiniteGroup, N: Subgroup) -> ExtensionData:
    """Extension data for N inside E with the minimal-id section."""
    if not N.parent.same_table(E):
        raise ParentMismatch("subgroup belongs to a different group")
    if not is_normal(E, N):
        raise NotNormal(f"subgroup {N.elements} is not normal in the ambient group")
    G, proj = quotient(E, N)
    lam = proj.min_section()
    n = tuple(
        tuple(E.mul(E.inv(lam[G.mul(g, h)]), E.mul(lam[g], lam[h]))
              for h in G.elements)
        for g in G.elements)
    return ExtensionData(E, N, G, proj, lam, n)


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
    cent = [x for x in E.elements
            if all(E.mul(x, a) == E.mul(a, x) for a in N.elements)]
    lam: list[int | None] = [None] * G.order
    for x in cent:
        g = proj(x)
        if lam[g] is None:
            lam[g] = x
    if any(x is None for x in lam):
        return FiberedReport(False, "conjugation acts nontrivially on N")
    zn = tuple(z for z in N.elements
               if all(E.mul(z, a) == E.mul(a, z) for a in N.elements))
    Zgrp, emb = subgroup_as_group(Subgroup(E, zn))
    pos = {a: i for i, a in enumerate(emb)}
    module = trivial_module(Zgrp)
    table = tuple(
        pos[E.mul(E.inv(lam[G.mul(g, h)]), E.mul(lam[g], lam[h]))]
        for g in G.elements for h in G.elements)
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
    return is_coboundary(pushforward(omega, inv.projection)) is not None


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
