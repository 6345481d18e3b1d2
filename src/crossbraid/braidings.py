"""Deciding and enumerating crossed braidings on pointed and Rep categories.

A crossed braiding is certified by a subcategory datum S(L,M,B) passing
three conditions against a chosen grading: it centralizes the canonical
copy of the grading group's representations, its dimension complements
the grading, and it is transverse to the identity component.  Pointed
ambients are graded by a surjection out of G; Rep(G) ambients by a
central subgroup.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidGrading, NotCentral, ParentMismatch
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    all_subgroups,
    center,
    dual_group,
    normal_subgroups,
    subgroup_as_group,
)
from .subcats import SubcatData, fpdim, pair_subcats, subcat_key
from .twisted_center import TwistedGroupData


@dataclass(frozen=True)
class GradingSpec:
    """Grading data for a crossed braiding problem.

    Pointed case: a surjection pi out of G plus its minimal-id section.
    Rep case: a central subgroup H; the grading group is the dual of the
    center modulo the annihilator of H, which is isomorphic to the dual of
    H, so its order is |H|.
    """

    projection: GroupHom | None = None
    section: tuple[int, ...] | None = None
    central: Subgroup | None = None

    def __post_init__(self):
        if (self.projection is None) == (self.central is None):
            raise InvalidGrading("need exactly one of projection or central")
        if self.projection is not None:
            sec = self.projection.min_section()
            if self.section is None:
                object.__setattr__(self, "section", sec)
            else:
                pi = self.projection
                if len(self.section) != pi.target.order or self.section[0] != 0 \
                        or any(pi(g) != h for h, g in enumerate(self.section)):
                    raise InvalidGrading("section does not split the projection")
        else:
            G = self.central.parent
            inside = set(center(G).elements)
            if not set(self.central.elements) <= inside:
                raise NotCentral("grading subgroup must be central")

    @classmethod
    def pointed(cls, pi: GroupHom, section: tuple[int, ...] | None = None):
        return cls(projection=pi, section=section)

    @classmethod
    def rep(cls, H: Subgroup):
        return cls(central=H)

    @property
    def kind(self) -> str:
        return "pointed" if self.projection is not None else "rep"

    @property
    def group(self) -> FiniteGroup:
        if self.projection is not None:
            return self.projection.source
        return self.central.parent

    def grading_group(self) -> FiniteGroup:
        if self.projection is not None:
            return self.projection.target
        return dual_group(subgroup_as_group(self.central)[0]).group


@dataclass(frozen=True)
class TheoremChecks:
    """The three crossed-braiding conditions, evaluated separately."""

    centralizes: bool
    fpdim: bool
    transverse: bool

    def __bool__(self) -> bool:
        return self.centralizes and self.fpdim and self.transverse


@dataclass(frozen=True)
class CrossedBraidingCertificate:
    """A grading together with a witness passing all three conditions."""

    grading: GradingSpec
    witness: SubcatData
    checks: TheoremChecks

    def __post_init__(self):
        if not self.checks:
            raise ValueError("certificate requires all three checks to pass")


def check_theorem_conditions(ambient: TwistedGroupData, grading: GradingSpec,
                             s: SubcatData) -> TheoremChecks:
    """Evaluate the three conditions of the crossed-braiding theorem.

    Each is read straight off (L, M, B).  Pointed case: the witness
    centralizes Rep of the grading group when L lies inside ker pi (B(l, 1)
    = 0 holds for every datum: the right-slot axiom at m1 = m2 = 1),
    complements it in dimension, and is transverse when M = G.  Rep case:
    it lies in the centralizer of the canonical S(G, H, 1) when H <= M and
    B vanishes on L x H, complements the grading, and is transverse when
    no row of B but the identity's is zero, so that L pairs injectively
    against M.
    """
    G = ambient.group
    if not ambient.same_twist(s.parent):
        raise ParentMismatch("witness lives over a different twist")
    if not grading.group.same_table(G):
        raise InvalidGrading("grading is for a different group")
    if grading.kind == "pointed":
        pi = grading.projection
        centralizes = not any(pi.images[l] for l in s.L.elements)
        dim_ok = pi.target.order * fpdim(s) == G.order
        transverse = s.M.order == G.order
        return TheoremChecks(centralizes, dim_ok, transverse)
    if not ambient.omega.is_zero:
        raise InvalidGrading("rep gradings require a trivial twist")
    H, M = grading.central, s.M
    B = np.reshape(s.B.table, (s.L.order, M.order))
    centralizes = set(H.elements) <= set(M.elements) and \
        not B[:, np.searchsorted(M.elements, H.elements)].any()
    dim_ok = H.order * fpdim(s) == G.order
    transverse = bool(B[1:].any(axis=1).all())
    return TheoremChecks(centralizes, dim_ok, transverse)


def _certify(grading: GradingSpec, witness: SubcatData) -> CrossedBraidingCertificate:
    checks = check_theorem_conditions(witness.parent, grading, witness)
    return CrossedBraidingCertificate(grading, witness, checks)


def enumerate_pointed(data: TwistedGroupData,
                      pi: GroupHom) -> list[CrossedBraidingCertificate]:
    """Crossed braidings on the pointed category, graded along pi.

    Empty when ker(pi) is not central; otherwise one certificate per
    valid pairing on ker(pi) x G, each passing the theorem conditions.
    """
    G = data.group
    if not pi.source.same_table(G):
        raise ParentMismatch("projection is for a different group")
    grading = GradingSpec.pointed(pi)
    K = pi.kernel()
    if not set(K.elements) <= set(center(G).elements):
        return []
    whole = Subgroup(G, G.elements)
    out = [_certify(grading, s) for s in pair_subcats(data, K, whole)]
    out.sort(key=lambda c: subcat_key(c.witness))
    return out


def enumerate_rep(G: FiniteGroup, H: Subgroup) -> list[CrossedBraidingCertificate]:
    """Crossed braidings on Rep(G) for the grading cut out by central H.

    Witnesses are S(L,M,B) with H <= M normal, M/H abelian, L abelian
    normal commuting with M of order [M:H], and B an invariant pairing
    killing H that pairs L with M/H nondegenerately.
    """
    if not H.parent.same_table(G):
        raise ParentMismatch("grading subgroup is for a different group")
    grading = GradingSpec.rep(H)
    data = TwistedGroupData.trivial(G)
    T, inv = G.table, G.inverse
    h_set = set(H.elements)
    clash = T != T.T
    normals = normal_subgroups(G)
    out = []
    for M in normals:
        if not h_set <= set(M.elements):
            continue
        # M/H is abelian: every commutator m1 m2 m1^-1 m2^-1 lies in H
        m2 = np.array(M.elements)
        m1 = m2[:, None]
        if not np.isin(T[T[T[m1, m2], inv[m1]], inv[m2]], H.elements).all():
            continue
        target = M.order // H.order
        for L in normals:
            if L.order != target:
                continue
            # L must be abelian and commute with M
            if clash[np.array(L.elements)[:, None], L.elements + M.elements].any():
                continue
            for s in pair_subcats(data, L, M, killed=H):
                checks = check_theorem_conditions(data, grading, s)
                if checks.transverse:
                    out.append(CrossedBraidingCertificate(grading, s, checks))
    out.sort(key=lambda c: subcat_key(c.witness))
    return out


def gradings_of_rep(G: FiniteGroup) -> list[GradingSpec]:
    """One grading per central subgroup, smallest first."""
    inside = set(center(G).elements)
    out = []
    for S in all_subgroups(G):
        if set(S.elements) <= inside:
            out.append(GradingSpec.rep(S))
    return out
