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
from .groups import (
    Subgroup,
    cached,
    cached_on,
    commuting_normal_pairs,
    is_normal,
)
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
        ids = tuple(map(int, self.table))
        # int truncates 0.9 and parses "0": an entry must equal its id
        if ids != tuple(self.table):
            raise ValueError("table entry is not a coefficient id")
        mod = self.modulus
        object.__setattr__(self, "table", tuple(x % mod for x in ids))

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


def _generators_of_group(G) -> np.ndarray:
    """gens(G) as element ids, (0,) for the trivial group: the axis the
    invariance rows of every pairing system over G run over."""
    gens = np.array(Subgroup(G, G.elements).generators or (0,))
    gens.flags.writeable = False
    return gens


def _axiom_blocks(G, L: Subgroup, M: Subgroup, generators: bool = False):
    """The three pairing axioms over L x M as linear forms in the table.

    Unknown i * |M| + j is the entry at (L.elements[i], M.elements[j]).
    One block per axiom, in the order verify_bicharacter reports them:
    (axes, terms, offset).  axes hold the element ids along each array
    axis: (l, m1, m2) for the right slot, (k, l, m) for the left slot and
    (g, l, m) for invariance, in the sweep order of the witnesses; the
    block holds one axiom instance per cell of that shape.  With
    generators, the last axis of the right slot, the middle axis of the
    left slot and the first axis of invariance run over gens(M), gens(L)
    and gens(G) instead ((0,) for a trivial subgroup), and normality is
    checked at gens(G) alone, as conjugation composes: the rows a
    _PairingSystem keeps.  terms are (columns, coefficient) and offset is
    ((a, g, h), sign), both with index arrays broadcasting to the block's
    shape; (a, g, h) index a twist's beta_table.  The instance reads

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
    if generators:
        m2, l2 = (np.array(S.generators or (0,)) for S in (M, L))
        g = cached_on(G, _generators_of_group)
    else:
        m2, l2, g = Me, Le, np.arange(G.order)
    gi = inv[g]
    # slots of g^-1 l g in L and of g m g^-1 in M
    inner_l = pl[T[T[gi[:, None], Le], g[:, None]]]
    inner_m = pm[T[T[g[:, None], Me], gi[:, None]]]
    if (inner_l < 0).any() or (inner_m < 0).any():
        raise NotNormal("L and M must both be normal")
    # B(l, m1 m2) - B(l, m1) - B(l, m2) = -lift beta_l(m1, m2)
    right = ((Le, Me, m2),
             ((u[:, pm[T[Me[:, None], m2]]], 1),
              (u[:, :, None], -1), (u[:, None, pm[m2]], -1)),
             (((Le[:, None, None], Me[:, None], m2), -1),))
    # B(kl, m) - B(k, m) - B(l, m) = lift beta_m(k, l)
    left = ((Le, l2, Me),
            ((u[pl[T[Le[:, None], l2]]], 1), (u[:, None, :], -1),
             (u[pl[l2]], -1)),
            (((Me, Le[:, None, None], l2[:, None]), 1),))
    # B(g^-1 l g, m) - B(l, g m g^-1)
    #   = lift (beta_l(g, m) + beta_l(gm, g^-1) - beta_l(g, g^-1))
    l, g3, gi3 = Le[:, None], g[:, None, None], gi[:, None, None]
    invariant = ((g, Le, Me),
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
    every lattice point satisfies the axioms by construction.
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

    The key is the content of the rows (their bytes in the smallest
    unsigned type holding N'), so equal systems share a factor
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

    One axis of each axiom block runs over a generating set only: m2 in
    gens(M) for the right slot, l in gens(L) for the left slot and g in
    gens(G) for invariance, with (0,) for a trivial subgroup.  The killed
    unit rows stay L x K.  For a genuine twist these rows have the
    solutions of the full blocks:

    - Right slot.  beta_l is a 2-cocycle on C_G(l), which holds M, so
      r(m1, m2) = B(l, m1 m2) - B(l, m1) - B(l, m2) + lift beta_l(m1, m2)
      satisfies r(m1, m2 s) = r(m1 m2, s) + r(m1, m2) - r(m2, s).  With
      r(-, s) = 0 for every generator s, induction on the word length of
      m2 gives r(m1, m2) = 0 for every m2 in M.
    - Left slot.  The same argument, with the 2-cocycle beta_m on C_G(m),
      which holds L, and the word length of l.
    - Invariance.  With c_g(l, m) = beta_l(g, m) + beta_l(gm, g^-1)
      - beta_l(g, g^-1), a twist satisfies c_gh(l, m) = c_h(g^-1 l g, m)
      + c_g(l, h m h^-1) (mod N), so the invariance row at gh for (l, m)
      is the row at h for (g^-1 l g, m) plus the row at g for
      (l, h m h^-1), offsets included.  Rows at the generators of G give
      the rows at every word in them, and c_1 = 0 by the same identity.

    The rows are _axiom_blocks(G, L, M, generators=True) and then the
    killed unit rows, and all of them key the factor: a row reading 0 = c
    with c nonzero, or two equal rows with different offsets, leave no
    particular solution x0 with A x0 = b, which the factor's solve
    refuses.  What stays is every row's beta offset in a padded
    three-term form (gather: int32 flat indices into beta_table.ravel(),
    signs: their int8 signs, index 0 and sign 0 on padding) and the
    factor.  Nothing the twist decides is held: solve reads every offset
    from the beta table it is given.  Construction raises NotCentral,
    NotNormal or InvalidElement (a killed subgroup outside M) for a bad
    structure.
    """

    __slots__ = ("_lift", "_mod", "_gather", "_signs", "_factor")

    def __init__(self, G, L: Subgroup, M: Subgroup, killed: Subgroup | None,
                 mod: int):
        T = G.table
        # subgroups commute when their generators do
        Lg, Mg = (np.array(S.generators or (0,)) for S in (L, M))
        if not np.array_equal(T[Lg[:, None], Mg], T[Mg, Lg[:, None]]):
            raise NotCentral("L and M must commute elementwise")
        blocks = _axiom_blocks(G, L, M, generators=True)    # NotNormal
        width = L.order * M.order
        if killed is not None:
            pk = _positions(G, M)[list(killed.elements)]
            if (pk < 0).any():
                raise InvalidElement("killed subgroup must lie inside M")
            # B(l, k) = 0 on L x K
            cols = np.arange(0, width, M.order)[:, None] + pk
            unit_rows = ((L.elements, killed.elements), ((cols, 1),), ())
            blocks += (unit_rows,)
        n = G.order
        shapes = [tuple(map(len, axes)) for axes, _, _ in blocks]
        size = sum(map(prod, shapes))
        # coefficients of merged terms stay in [-3, 3]
        A = np.zeros((size, width), dtype=np.int8)
        # flat indices into beta_table, |G|^3 cells
        gather = np.zeros((size, 3),
                          dtype=np.int32 if n ** 3 < 1 << 31 else np.int64)
        signs = np.zeros((size, 3), dtype=np.int8)
        start = 0
        for (_, terms, offset), shape in zip(blocks, shapes):
            stop = start + prod(shape)
            rows = np.arange(start, stop).reshape(shape)
            for cols, coef in terms:
                A[rows, cols] += coef
            for t, ((a, g, h), sign) in enumerate(offset):
                gather[rows, t] = (a * n + g) * n + h
                signs[start:stop, t] = sign
            start = stop
        # the factor key: residues mod N' in the smallest unsigned type
        residue = np.array([x % mod for x in range(-3, 4)],
                           dtype=np.min_scalar_type(mod))
        A = residue[A + 3]
        self._lift, self._mod = G.exponent, mod
        self._gather, self._signs = gather, signs
        self._factor = _pairing_factor(mod, A.shape, A.tobytes())

    def solve(self, beta: np.ndarray) -> CongruenceSolution | None:
        """Every pairing for the twist with this beta table, or None.

        Each row's offset b is one gather of its padded terms from the
        beta table, times their signs, summed, lifted by exponent(G) and
        reduced mod N'.
        """
        b = (beta.ravel()[self._gather] * self._signs).sum(axis=1)
        b *= self._lift
        b %= self._mod
        return self._factor.solve(b)


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
    return cached(_SYSTEMS, key,
                  lambda: _PairingSystem(G, L, M, killed, mod),
                  PAIRING_FACTORS)


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
                    tables) -> Iterator[SubcatData]:
    """S(L, M, B) for each table, read off a solved pairing lattice."""
    for tab in tables:
        B = OmegaBicharacter._reduced(data, L, M, tab)
        yield SubcatData(data, L, M, B, _SOLVED)


def pair_subcats(data: TwistedGroupData, L: Subgroup, M: Subgroup,
                 killed: Subgroup | None = None) -> Iterator[SubcatData]:
    """S(L, M, B) for every valid pairing B found by solve_pairings.

    The pairings are solved at the call and built one at a time as the
    result is iterated.
    """
    sol = solve_pairings(data, L, M, killed)
    return iter(()) if sol is None else \
        _solved_subcats(data, L, M, sol.enumerate())


def subcat_key(s: SubcatData):
    """The canonical order of subcategory data: (|L|, |M|, L ids, M ids,
    table)."""
    return (s.L.order, s.M.order, s.L.elements, s.M.elements, s.B.table)


def solve_subcats(data: TwistedGroupData, budget: int = DEFAULT_BUDGET
                  ) -> tuple[int, Iterator[SubcatData]]:
    """The number of subcategory data over the twist, and an iterator
    over them in canonical order.

    Every commuting normal pair is solved at the call (solve_pairings), in
    commuting_normal_pairs order, and BudgetExceeded is raised there once
    the valid pairings, summed over the pairs, pass the budget.  The
    iterator then raises nothing: it visits the solved pairs in (|L|, |M|,
    L ids, M ids) order and each pair's lattice points sorted by table,
    which is subcat_key order, and builds one datum at a time.  Only one
    pair's points are held at once.
    """
    found = 0
    solved = []
    for L, M in commuting_normal_pairs(data.group):
        sol = solve_pairings(data, L, M)
        if sol is None:
            continue
        found += sol.count
        if found > budget:
            raise BudgetExceeded(
                f"{found} valid pairings exceed budget {budget}")
        solved.append((L, M, sol))
    solved.sort(key=lambda p: (p[0].order, p[1].order,
                               p[0].elements, p[1].elements))
    return found, (s for L, M, sol in solved
                   for s in _solved_subcats(data, L, M,
                                            sorted(sol.enumerate())))


def enumerate_subcats(data: TwistedGroupData,
                      budget: int = DEFAULT_BUDGET) -> list[SubcatData]:
    """All subcategory data over the twist, in canonical order.

    Per commuting normal pair the valid pairings form a coset of a lattice
    cut out by all three axioms at once (solve_pairings), enumerated
    exactly with no filter afterwards.  The budget bounds the number of
    valid pairings, summed over the pairs.  The result is sorted by
    subcat_key, is duplicate free, and always includes S(1, G, 1) and
    S(1, 1, 1): the list solve_subcats streams.
    """
    return list(solve_subcats(data, budget)[1])
