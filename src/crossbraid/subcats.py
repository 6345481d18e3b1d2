"""The S(L,M,B) calculus over a twisted group double.

A subcategory datum is a pair of commuting normal subgroups L, M of G
together with a pairing B: L x M -> roots of unity that is multiplicative
in each slot up to beta corrections and invariant under conjugation.
Everything runs on exponent tables modulo one fixed working modulus, where
all three conditions are linear congruences: enumeration solves them as
one system, so verification and enumeration are exact.
"""

from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import InitVar, dataclass
from functools import cached_property, lru_cache
from math import prod

import numpy as np

from .errors import (
    BudgetExceeded,
    InvalidElement,
    NotCentral,
    NotNormal,
    ParentMismatch,
)
from .exact import CongruenceFactor, CongruenceSolution, UnityExponent
from .groups import Subgroup, commuting_normal_pairs, is_normal
from .twisted_center import TwistedGroupData

DEFAULT_BUDGET = 1_000_000

# pairing systems, and their factors, one process keeps (see
# _pairing_system and _pairing_factor)
PAIRING_FACTORS = 1024


def working_modulus(data: TwistedGroupData) -> int:
    """Root-of-unity order large enough for every pairing over this twist.

    Iterating the first pairing axiom gives B(l,m)^ord(m) in mu_N, so any
    pairing value has order dividing exponent(G) * N.  The naive choice
    lcm(exponent(G), N) is too small: over C2 with the nontrivial twist
    the only solutions have B(x,x) a primitive 4th root of unity.
    """
    return data.group.exponent * data.modulus


@dataclass(frozen=True)
class OmegaBicharacter:
    """Exponent table of a candidate pairing L x M -> mu_N'.

    Entries are stored row-major over (L.elements, M.elements) and reduced
    modulo the working modulus of the parent twist.  The pairing axioms
    (right-slot and left-slot multiplicativity, conjugation invariance)
    are linear congruences in these entries with beta offsets:
    solve_pairings solves all three at once, and verify_bicharacter checks
    one given table.  Construction checks neither.
    """

    parent: TwistedGroupData
    L: Subgroup
    M: Subgroup
    table: tuple[int, ...]

    def __post_init__(self):
        G = self.parent.group
        if not (self.L.parent.same_table(G) and self.M.parent.same_table(G)):
            raise ParentMismatch("subgroups live over a different group")
        if len(self.table) != self.L.order * self.M.order:
            raise ValueError(
                f"table needs {self.L.order * self.M.order} entries, "
                f"got {len(self.table)}")
        mod = self.modulus
        object.__setattr__(self, "table",
                           tuple(int(x) % mod for x in self.table))

    @classmethod
    def _reduced(cls, parent: TwistedGroupData, L: Subgroup, M: Subgroup,
                 table: tuple[int, ...]) -> "OmegaBicharacter":
        """A table already reduced modulo the working modulus, over
        subgroups of parent's group, built with no check: a point that
        CongruenceSolution.enumerate reads off a pairing lattice of
        parent."""
        self = object.__new__(cls)
        self.__dict__.update(parent=parent, L=L, M=M, table=table)
        return self

    @property
    def modulus(self) -> int:
        return working_modulus(self.parent)

    @cached_property
    def _slots(self) -> tuple[dict[int, int], dict[int, int]]:
        return ({a: i for i, a in enumerate(self.L.elements)},
                {a: i for i, a in enumerate(self.M.elements)})

    def exponent_at(self, l: int, m: int) -> int:
        pos_l, pos_m = self._slots
        try:
            return self.table[pos_l[l] * self.M.order + pos_m[m]]
        except KeyError:
            raise InvalidElement(f"({l}, {m}) is not in L x M") from None

    def value(self, l: int, m: int) -> UnityExponent:
        return UnityExponent(self.exponent_at(l, m), self.modulus)


@dataclass(frozen=True)
class BicharacterReport:
    """Outcome of an axiom sweep; falsy when some axiom failed."""

    ok: bool
    axiom: int | None = None
    witness: tuple[int, int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def _positions(G, S: Subgroup) -> np.ndarray:
    """Index of each element of G inside S.elements, -1 outside S."""
    pos = np.full(G.order, -1, dtype=np.int64)
    pos[list(S.elements)] = np.arange(S.order)
    return pos


def _axiom_blocks(G, L: Subgroup, M: Subgroup):
    """The three pairing axioms over L x M as linear forms in the table.

    Unknown i * |M| + j is the entry at (L.elements[i], M.elements[j]).
    One block per axiom, in the order verify_bicharacter reports them:
    (axes, terms, offset).  axes name the element ids along each array
    axis: (l, m1, m2) for the right slot, (k, l, m) for the left slot and
    (g, l, m) for invariance, in the sweep order of the witnesses; the
    block holds one axiom instance per cell of that shape.  terms are
    (columns, coefficient) and offset is ((a, g, h), sign), both with
    index arrays broadcasting to the block's shape; (a, g, h) index a
    twist's beta_table.  The instance reads

        sum of coefficient * table[columns]
            ==  lift * sum of sign * beta_table[a, g, h]   (mod N')

    with lift = exponent(G), which carries mu_N into mu_N'.  Nothing here
    depends on the twist: it enters only through the beta values the
    offsets gather.
    """
    T, inv = G.table, G.inverse
    Le, Me = np.array(L.elements), np.array(M.elements)
    pl, pm = _positions(G, L), _positions(G, M)
    nm = M.order
    u = np.arange(L.order * nm).reshape(-1, nm)
    g = np.arange(G.order)[:, None]
    # slots of g^-1 l g per (g, l) and of g m g^-1 per (g, m)
    inner_l = pl[T[T[inv[:, None], Le], g]]
    inner_m = pm[T[T[g, Me], inv[:, None]]]
    if (inner_l < 0).any() or (inner_m < 0).any():
        raise NotNormal("L and M must both be normal")
    # B(l, m1 m2) - B(l, m1) - B(l, m2) = -lift beta_l(m1, m2)
    right = ((L.elements, M.elements, M.elements),
             ((u[:, pm[T[Me[:, None], Me]]], 1),
              (u[:, :, None], -1), (u[:, None, :], -1)),
             (((Le[:, None, None], Me[:, None], Me), -1),))
    # B(kl, m) - B(k, m) - B(l, m) = lift beta_m(k, l)
    left = ((L.elements, L.elements, M.elements),
            ((u[pl[T[Le[:, None], Le]]], 1), (u[:, None, :], -1), (u, -1)),
            (((Me, Le[:, None, None], Le[:, None]), 1),))
    # B(g^-1 l g, m) - B(l, g m g^-1)
    #   = lift (beta_l(g, m) + beta_l(gm, g^-1) - beta_l(g, g^-1))
    l, g3, gi3 = Le[:, None], g[:, :, None], inv[:, None, None]
    invariant = ((G.elements, L.elements, M.elements),
                 ((u[inner_l], 1), (u[:, :1] + inner_m[:, None, :], -1)),
                 (((l, g3, Me), 1), ((l, T[g3, Me], gi3), 1),
                  ((l, g3, gi3), -1)))
    return right, left, invariant


def verify_bicharacter(cand: OmegaBicharacter) -> BicharacterReport:
    """Exhaustive check of slot multiplicativity and conjugation invariance.

    Returns a report instead of raising; on failure it carries the first
    failing axiom (1: right slot, 2: left slot, 3: invariance) and the
    element tuple where it broke.  Within an axiom the witness is the
    first failing instance with element ids in ascending order, so it is
    deterministic.  Every instance is evaluated at once over the twist's
    beta table.  L and M must be normal (NotNormal otherwise) and are
    assumed to commute.
    """
    mod = cand.modulus
    G = cand.parent.group
    beta = cand.parent.beta_table
    table = np.array(cand.table, dtype=np.int64)
    blocks = _axiom_blocks(G, cand.L, cand.M)
    for axiom, (axes, terms, offset) in enumerate(blocks, start=1):
        resid = -G.exponent * sum(sign * beta[at] for at, sign in offset)
        for cols, coef in terms:
            resid = resid + coef * table[cols]
        bad = resid % mod != 0
        if bad.any():
            where = np.unravel_index(int(np.argmax(bad)), bad.shape)
            witness = tuple(int(ax[k]) for ax, k in zip(axes, where))
            return BicharacterReport(False, axiom, witness)
    return BicharacterReport(True)


# lets SubcatData trust a pairing read off a solve_pairings lattice
_SOLVED = object()


@dataclass(frozen=True)
class SubcatData:
    """Verified subcategory datum S(L, M, B) over a twisted double.

    Construction checks that L and M are commuting normal subgroups and
    that B satisfies every pairing axiom.  Data read off a solved pairing
    lattice (pair_subcats, enumerate_subcats) skip those checks: the pair
    came from commuting_normal_pairs or was checked by solve_pairings, and
    every lattice point satisfies the axioms by construction.  So do the
    unit pairings of unit_subcat, which satisfy the axioms wherever it
    builds them.
    """

    parent: TwistedGroupData
    L: Subgroup
    M: Subgroup
    B: OmegaBicharacter
    origin: InitVar[object] = None

    def __post_init__(self, origin):
        if origin is _SOLVED:
            return
        if self.B.parent is not self.parent and \
                not self.B.parent.same_twist(self.parent):
            raise ParentMismatch("pairing belongs to a different twist")
        if self.B.L != self.L or self.B.M != self.M:
            raise ParentMismatch("pairing is indexed by different subgroups")
        G = self.parent.group
        if not (is_normal(G, self.L) and is_normal(G, self.M)):
            raise NotNormal("L and M must both be normal")
        L, M = np.array(self.L.elements), np.array(self.M.elements)
        clash = G.table[L[:, None], M] != G.table[M[:, None], L].T
        if clash.any():
            i, j = np.argwhere(clash)[0].tolist()
            raise NotCentral(
                f"L and M must commute elementwise; ({L[i]}, {M[j]}) do not")
        report = verify_bicharacter(self.B)
        if not report:
            raise ValueError(
                f"pairing fails axiom {report.axiom} at {report.witness}")


def fpdim(s: SubcatData) -> int:
    """Frobenius-Perron dimension |L| * [G : M]."""
    return s.L.order * (s.parent.group.order // s.M.order)


def centralizer_subcat(s: SubcatData) -> SubcatData:
    """The centralizer S(M, L, B') with B'(m, l) = B(l, m)^-1."""
    mod = s.B.modulus
    table = tuple((-s.B.exponent_at(l, m)) % mod
                  for m in s.M.elements for l in s.L.elements)
    flipped = OmegaBicharacter(s.parent, s.M, s.L, table)
    return SubcatData(s.parent, s.M, s.L, flipped)


def contains(s1: SubcatData, s2: SubcatData) -> bool:
    """Whether s2 is a subcategory of s1.

    Holds exactly when L2 <= L1, M1 <= M2, and the pairings agree on
    L2 x M1.
    """
    if not s1.parent.same_twist(s2.parent):
        raise ParentMismatch("subcategory data over different twists")
    if not set(s2.L.elements) <= set(s1.L.elements):
        return False
    if not set(s1.M.elements) <= set(s2.M.elements):
        return False
    return all(s2.B.exponent_at(l, m) == s1.B.exponent_at(l, m)
               for l in s2.L.elements for m in s1.M.elements)


@lru_cache(maxsize=PAIRING_FACTORS)
def _pairing_factor(mod: int, shape: tuple[int, int],
                    cells: bytes) -> CongruenceFactor:
    """The factored pairing system with these rows, kept for the process.

    The key is the content of the deduplicated rows (their bytes in the
    smallest unsigned type holding N'), so equal systems share a factor
    whatever group or twist they came from.  A depends on the group and
    the pair (L, M) only; every twist enters through the offsets b, which
    are never cached.  Least recently used factors are dropped past
    PAIRING_FACTORS.
    """
    A = np.frombuffer(cells, dtype=np.min_scalar_type(mod)).reshape(shape)
    return CongruenceFactor(A, mod)


class _PairingSystem:
    """The pairing rows over one (G, L, M, killed subgroup, N'), without
    the twist.

    The coefficient rows are built once, to find the rows that read 0 = 0,
    the repeated rows (each with the index of its first twin) and the rows
    kept for the factor.  What stays is the beta gather of every row's
    offset, as int32 flat indices into a beta table with the spans of rows
    each part adds to, those index sets and the factor of the kept rows.
    Nothing the twist decides is held: solve reads every offset from the
    beta table it is given.  Construction raises NotCentral, NotNormal or
    InvalidElement (a killed subgroup outside M) for a bad structure.
    """

    __slots__ = ("_lift", "_mod", "_rows", "_gather", "_spans", "_zero",
                 "_dup", "_twin", "_kept", "_factor")

    def __init__(self, G, L: Subgroup, M: Subgroup, killed: Subgroup | None,
                 mod: int):
        T = G.table
        Le, Me = np.array(L.elements), np.array(M.elements)
        if not np.array_equal(T[Le[:, None], Me], T[Me, Le[:, None]]):
            raise NotCentral("L and M must commute elementwise")
        blocks = list(_axiom_blocks(G, L, M))
        if killed is not None:
            pm = _positions(G, M)[list(killed.elements)]
            if (pm < 0).any():
                raise InvalidElement("killed subgroup must lie inside M")
            cols = np.arange(L.order)[:, None] * M.order + pm
            blocks.append(((L.elements, killed.elements), ((cols, 1),), ()))
        nrows = sum(prod(map(len, axes)) for axes, _, _ in blocks)
        A = np.zeros((nrows, L.order * M.order), dtype=np.int64)
        gather, spans, start = [], [], 0
        for axes, terms, offset in blocks:
            shape = tuple(map(len, axes))
            stop = start + prod(shape)
            rows = np.arange(start, stop).reshape(shape)
            for cols, coef in terms:
                A[rows, cols] += coef    # one column per row and term: no clash
            for (a, g, h), sign in offset:
                flat = (a * G.order + g) * G.order + h
                gather.append(np.broadcast_to(flat, shape).ravel())
                spans.append((start, stop, sign))
            start = stop
        A %= mod
        live = A.any(axis=1)
        live_rows = np.flatnonzero(live)
        A = A[live].astype(np.min_scalar_type(mod))
        keys = A.view(np.dtype((np.void, A.itemsize * A.shape[1]))).ravel()
        _, first, twin = np.unique(keys, return_index=True, return_inverse=True)
        twin = first[twin.ravel()]
        dup = np.flatnonzero(twin != np.arange(twin.size))
        first.sort()
        self._lift, self._mod, self._rows = G.exponent, mod, nrows
        self._gather = np.concatenate(gather).astype(np.int32)
        self._spans = tuple(spans)
        self._zero = np.flatnonzero(~live).astype(np.int32)
        self._dup = live_rows[dup].astype(np.int32)
        self._twin = live_rows[twin[dup]].astype(np.int32)
        self._kept = live_rows[first].astype(np.int32)
        A = A[first]
        self._factor = _pairing_factor(mod, A.shape, A.tobytes())

    def solve(self, beta: np.ndarray) -> CongruenceSolution | None:
        """Every pairing for the twist with this beta table, or None.

        A row reading 0 = c with c nonzero, or twin rows with different
        offsets, mean no pairing exists.
        """
        part = beta.ravel()[self._gather]
        b = np.zeros(self._rows, dtype=np.int64)
        at = 0
        for start, stop, sign in self._spans:
            b[start:stop] += sign * part[at:at + stop - start]
            at += stop - start
        b *= self._lift
        b %= self._mod
        if b[self._zero].any() or (b[self._dup] != b[self._twin]).any():
            return None
        return self._factor.solve(b[self._kept])


# pairing systems one process keeps, least recently used first
_SYSTEMS: OrderedDict = OrderedDict()


def _pairing_system(G, L: Subgroup, M: Subgroup, killed: Subgroup | None,
                    mod: int) -> _PairingSystem:
    """The pairing system of this structure, built on first use.

    Keyed by content (N', the group table and the element ids of L, M and
    the killed subgroup), so equal structures share a system whatever
    objects carry them.  A structure that fails to build is not kept, so
    it raises again on every call.  Least recently used systems are
    dropped past PAIRING_FACTORS.
    """
    key = (mod, G.table.tobytes(), L.elements, M.elements,
           None if killed is None else killed.elements)
    system = _SYSTEMS.get(key)
    if system is None:
        system = _SYSTEMS[key] = _PairingSystem(G, L, M, killed, mod)
        if len(_SYSTEMS) > PAIRING_FACTORS:
            _SYSTEMS.popitem(last=False)
    else:
        _SYSTEMS.move_to_end(key)
    return system


def solve_pairings(data: TwistedGroupData, L: Subgroup, M: Subgroup,
                   killed: Subgroup | None = None) -> CongruenceSolution | None:
    """Every valid pairing L x M -> mu_N', as one solved congruence lattice.

    All three axioms go into a single system: unknowns are the table
    entries, beta terms are constant offsets, so each axiom instance is one
    linear row.  Every lattice point is a valid pairing.  With killed, a
    subgroup of M, the pairing must also vanish on L x killed.  L and M
    must be commuting normal subgroups.  Returns None when no pairing
    exists.  The rows are built once per structure (_pairing_system); each
    call gathers its own offsets from the twist's beta table.
    """
    G = data.group
    if not (L.parent.same_table(G) and M.parent.same_table(G)):
        raise ParentMismatch("subgroups live over a different group")
    system = _pairing_system(G, L, M, killed, working_modulus(data))
    return system.solve(data.beta_table)


def _solved_subcats(data: TwistedGroupData, L: Subgroup, M: Subgroup,
                    sol: CongruenceSolution) -> Iterator[SubcatData]:
    for tab in sol.enumerate():
        B = OmegaBicharacter._reduced(data, L, M, tab)
        yield SubcatData(data, L, M, B, _SOLVED)


def pair_subcats(data: TwistedGroupData, L: Subgroup, M: Subgroup,
                 killed: Subgroup | None = None) -> Iterator[SubcatData]:
    """S(L, M, B) for every valid pairing B found by solve_pairings.

    The pairings are solved at the call and built one at a time as the
    result is iterated.
    """
    sol = solve_pairings(data, L, M, killed)
    return iter(()) if sol is None else _solved_subcats(data, L, M, sol)


def unit_subcat(data: TwistedGroupData, L: Subgroup,
                M: Subgroup) -> SubcatData:
    """S(L, M, 1), the pairing that is 1 everywhere, built with no sweep.

    L and M must be commuting normal subgroups.  When M is trivial or the
    twist is trivial, every beta offset in the axioms vanishes (the twist
    is normalized), so the unit pairing satisfies them all; any other M
    and twist raise ValueError.
    """
    if M.order != 1 and not data.omega.is_zero:
        raise ValueError("the unit pairing needs a trivial M or twist")
    table = (0,) * (L.order * M.order)
    return SubcatData(data, L, M, OmegaBicharacter(data, L, M, table),
                      _SOLVED)


def enumerate_subcats(data: TwistedGroupData,
                      budget: int = DEFAULT_BUDGET) -> list[SubcatData]:
    """All subcategory data over the twist, in canonical order.

    Per commuting normal pair the valid pairings form a coset of a lattice
    cut out by all three axioms at once (solve_pairings), enumerated
    exactly with no filter afterwards.  The budget bounds the number of
    valid pairings, summed over the pairs.  The result is sorted by (|L|,
    |M|, L ids, M ids, table), is duplicate free, and always includes
    S(1, G, 1) and S(1, 1, 1).
    """
    found = 0
    out = []
    for L, M in commuting_normal_pairs(data.group):
        sol = solve_pairings(data, L, M)
        if sol is None:
            continue
        found += sol.count
        if found > budget:
            raise BudgetExceeded(
                f"{found} valid pairings exceed budget {budget}")
        out.extend(_solved_subcats(data, L, M, sol))
    out.sort(key=lambda s: (s.L.order, s.M.order, s.L.elements,
                            s.M.elements, s.B.table))
    return out
