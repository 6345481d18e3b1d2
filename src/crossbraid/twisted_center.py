"""Counting layer for the center of a twisted pointed category.

A pair (G, omega) with omega a normalized 3-cocycle valued in mu_N determines
derived 2-cocycles beta_a on centralizers and a census of simple labels
(a, chi) indexed by conjugacy classes a and projective characters chi.  Only
counts and dimension aggregates are produced; no representations are built.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .cohomology import Cochain, is_cocycle, mu_module
from .errors import BetaNotCocycle, NotACocycle, ParentMismatch
from .exact import UnityExponent
from .groups import (
    FiniteGroup,
    GroupHom,
    cached_on,
    center,
    centralizer,
    conjugacy_classes,
    conjugation_table,
    derived_subgroup,
    dual_group,
    product_group,
    quotient,
    subgroup_as_group,
)


class TwistedGroupData:
    """A finite group together with a verified normalized 3-cocycle twist."""

    __slots__ = ("group", "omega", "modulus", "_beta", "_ambient_json")

    def __init__(self, group: FiniteGroup, omega: Cochain):
        if not omega.group.same_table(group):
            raise ParentMismatch("twist lives over a different group")
        if omega.degree != 3:
            raise NotACocycle("twist must be a 3-cochain")
        A = omega.module.group
        if not omega.module.is_trivial_action or A.exponent != A.order:
            raise NotACocycle("twist values must lie in a cyclic mu_N")
        if not omega.is_normalized:
            raise NotACocycle("twist must be normalized")
        # the zero twist is a cocycle; the identity check costs |G|^4
        if not omega.is_zero and not is_cocycle(omega):
            raise NotACocycle("twist fails the 3-cocycle identity")
        self._hold(group, omega)

    @classmethod
    def _unverified(cls, group: FiniteGroup,
                    omega: Cochain) -> "TwistedGroupData":
        """A datum over a degree-3 cochain in a cyclic mu_N on group's
        table, built with no check: how the selftest and the tests hand
        the library a broken twist."""
        self = object.__new__(cls)
        self._hold(group, omega)
        return self

    def _hold(self, group: FiniteGroup, omega: Cochain) -> None:
        self.group = group
        self.omega = omega
        self.modulus = omega.module.group.order
        self._beta = None
        # serialize.certificate_to_json's ambient document, built on first use
        self._ambient_json = None

    @classmethod
    def trivial(cls, group: FiniteGroup, modulus: int = 1) -> "TwistedGroupData":
        return cls(group, Cochain.zero(group, mu_module(modulus), 3))

    @property
    def beta_table(self) -> np.ndarray:
        """Exponents of beta_a(g,h) = w(a,g,h) w(g,h,(gh)^-1 a gh) / w(g, g^-1 a g, h),
        one per triple at [a, g, h], as an (s, s, s) array.

        Built on first use and kept, read-only, for the life of the datum.
        It is built in place, read straight off omega's cells: beside the
        result, one (s, s, s) array lives at a time, the index of the
        second term's gather and then the third term's gather.
        """
        if self._beta is None:
            G = self.group
            T, inv = G.table, G.inverse
            conj = conjugation_table(G)        # conj[x, a] = x a x^-1
            s = G.order
            w = self.omega._array.reshape((s, s, s))
            a = np.arange(s)[:, None, None]
            g = np.arange(s)[None, :, None]
            h = np.arange(s)[None, None, :]
            beta = w[g, h, conj[inv[T[g, h]], a]]
            beta += w
            beta -= w[g, conj[inv[g], a], h]
            beta %= self.modulus
            beta.flags.writeable = False
            self._beta = beta
        return self._beta

    def same_twist(self, other: "TwistedGroupData") -> bool:
        """Whether both data carry the same group table and the same twist."""
        return (self.group.same_table(other.group)
                and self.modulus == other.modulus
                and self.omega.table == other.omega.table)

    def __repr__(self) -> str:
        return f"TwistedGroupData({self.group!r}, mu_{self.modulus})"


def beta(data: TwistedGroupData, a: int, g: int, h: int) -> UnityExponent:
    for x in (a, g, h):
        data.group.check_element(x)
    return UnityExponent(int(data.beta_table[a, g, h]), data.modulus)


def beta_restricted_cocycle(data: TwistedGroupData, a: int) -> Cochain:
    """beta_a as a verified 2-cocycle on the centralizer of a."""
    data.group.check_element(a)
    C = centralizer(data.group, a)
    Cgrp, emb = subgroup_as_group(C)
    ids = np.array(emb)
    table = data.beta_table[a, ids[:, None], ids].ravel()
    c = Cochain(2, Cgrp, mu_module(data.modulus), table)
    if not is_cocycle(c):
        raise BetaNotCocycle(
            f"beta_{a} violates the 2-cocycle identity on the centralizer")
    return c


@dataclass(frozen=True)
class SimpleLabel:
    """Counting data for the simples sitting over one conjugacy class."""

    representative: int
    class_size: int
    centralizer_order: int
    irrep_count: int
    dim_square_sum: int

    @property
    def fpdim_square(self) -> int:
        return self.class_size ** 2 * self.dim_square_sum


@dataclass(frozen=True)
class CenterCensus:
    labels: tuple[SimpleLabel, ...]
    total_simples: int
    fpdim_square_total: int


def simple_census(data: TwistedGroupData) -> CenterCensus:
    """Count the simples (a, chi): one label per conjugacy class of G, with
    chi running over irreducible beta_a-projective characters of C_G(a).

    The character count equals the number of beta_a-regular classes of the
    centralizer C: x is regular when beta_a(x, h) = beta_a(h, x) for every
    h in C commuting with x, read off the beta table as one mask per class.
    The squared-dimension sum is |C|, so the census always totals |G|^2.
    """
    G = data.group
    conj = conjugation_table(G)
    labels = []
    for a, members in conjugacy_classes(G):
        C = centralizer(G, a)
        rows, cols = np.array(C.elements)[:, None], C.elements
        B, T = data.beta_table[a, rows, cols], G.table[rows, cols]
        regular = ~((T == T.T) & (B != B.T)).any(axis=1)
        # x represents its class of C when it is the least id in it
        least = conj[rows, cols].min(axis=0)
        count = int((regular & (least == cols)).sum())
        labels.append(SimpleLabel(a, len(members), C.order, count, C.order))
    total_sq = sum(l.fpdim_square for l in labels)
    if total_sq != G.order ** 2:
        raise BetaNotCocycle("dimension census failed the |G|^2 identity")
    return CenterCensus(tuple(labels), sum(l.irrep_count for l in labels),
                        total_sq)


@dataclass(frozen=True)
class InvertiblesOfCenter:
    """The invertible objects N-hat x Z(N) of an untwisted center, with the
    canonical projection onto the Z(N) factor."""

    group: FiniteGroup
    character_part: FiniteGroup
    center_part: FiniteGroup
    center_embedding: tuple[int, ...]
    projection: GroupHom


def invertibles_of_center(N: FiniteGroup) -> InvertiblesOfCenter:
    """The invertibles of Z(Vec_N), built once per group object."""
    return cached_on(N, _invertibles_of_center)


def _invertibles_of_center(N: FiniteGroup) -> InvertiblesOfCenter:
    ab, _proj = quotient(N, derived_subgroup(N))
    chars = dual_group(ab).group
    Zgrp, emb = subgroup_as_group(center(N))
    prod = product_group(chars, Zgrp)
    k = Zgrp.order
    R = GroupHom(prod, Zgrp, tuple(i % k for i in prod.elements))
    return InvertiblesOfCenter(prod, chars, Zgrp, emb, R)
