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
from typing import NamedTuple
from weakref import WeakValueDictionary

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

# pairing rows, their factors and their subgroup pieces one process
# keeps, each (see _pairing_rows and _pairing_factor)
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


def _table_bytes(G) -> bytes:
    """G's table as bytes: the group's part of a pairing-rows key, one
    object per group, so the keys of its rows share it."""
    return G.table.tobytes()


def _axiom_blocks(G, L: Subgroup, M: Subgroup):
    """The three pairing axioms over L x M as linear forms in the table.

    Unknown i * |M| + j is the entry at (L.elements[i], M.elements[j]).
    One block per axiom, in the order verify_bicharacter reports them:
    (axes, terms, offset).  axes hold the element ids along each array
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
    offsets gather.  _PairingRows keeps these rows cut to generating sets.
    """
    T, inv = G.table, G.inverse
    Le, Me = np.array(L.elements), np.array(M.elements)
    pl, pm = _positions(G, L), _positions(G, M)
    nm = M.order
    u = np.arange(L.order * nm).reshape(-1, nm)
    g = np.arange(G.order)
    gi = inv[g]
    # slots of g^-1 l g in L and of g m g^-1 in M
    inner_l = pl[T[T[gi[:, None], Le], g[:, None]]]
    inner_m = pm[T[T[g[:, None], Me], gi[:, None]]]
    if (inner_l < 0).any() or (inner_m < 0).any():
        raise NotNormal("L and M must both be normal")
    # B(l, m1 m2) - B(l, m1) - B(l, m2) = -lift beta_l(m1, m2)
    right = ((Le, Me, Me),
             ((u[:, pm[T[Me[:, None], Me]]], 1),
              (u[:, :, None], -1), (u[:, None, :], -1)),
             (((Le[:, None, None], Me[:, None], Me), -1),))
    # B(kl, m) - B(k, m) - B(l, m) = lift beta_m(k, l)
    left = ((Le, Le, Me),
            ((u[pl[T[Le[:, None], Le]]], 1), (u[:, None, :], -1),
             (u[None], -1)),
            (((Me, Le[:, None, None], Le[:, None]), 1),))
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


class _SubgroupRows(NamedTuple):
    """What the pairing rows over G take from one subgroup S of G, in
    either slot.  Index x runs over S.elements, s over gens(S) and g over
    gens(G), with (0,) for a trivial group.  The arrays are read-only."""

    positions: np.ndarray   # _positions(G, S)
    gens: np.ndarray   # gens(S)
    normal: bool   # whether g^-1 S g = S for every g
    slot: np.ndarray   # int8 R_S: row (x, s) is e_(xs) - e_x - e_s
    inner_l: np.ndarray   # int8 one-hot of g^-1 x g at (g, x); normal only
    inner_m: np.ndarray   # int8 one-hot of g x g^-1 at (g, x); normal only
    first: np.ndarray   # x |G|^2 at (x, 0): the a of beta_table[a, -, -]
    pairs: np.ndarray   # x |G| + s at (x, s), flat: beta_table[-, x, s]
    # beta_table[-, g, x], [-, g x, g^-1] and [-, g, g^-1] at (t, g, 0, x)
    invariance: np.ndarray


def _subgroup_rows(G, S: Subgroup) -> _SubgroupRows:
    """S's pieces of the pairing rows over G; _PairingRows keeps them per
    (G, S) in _SUBGROUP_ROWS."""
    T, n = G.table, G.order
    el = np.array(S.elements)
    pos = _positions(G, S)
    gens = np.array(S.generators or (0,))
    x, s = np.arange(S.order)[:, None], np.arange(len(gens))
    slot = np.zeros((S.order, len(gens), S.order), dtype=np.int8)
    slot[x, s, pos[T[el[:, None], gens]]] += 1
    slot[x, s, x] -= 1
    slot[x, s, pos[gens]] -= 1
    g = cached_on(G, _generators_of_group)[:, None]
    gi = G.inverse[g]
    inner_l, inner_m = pos[T[T[gi, el], g]], pos[T[T[g, el], gi]]
    # g^-1 S g lies in S exactly when g S g^-1 does: both have |S| elements
    normal = bool((inner_l >= 0).all())
    if normal:
        unit = np.eye(S.order, dtype=np.int8)
        inner_l, inner_m = unit[inner_l], unit[inner_m]
    invariance = np.stack(np.broadcast_arrays(
        g * n + el, T[g, el] * n + gi, g * n + gi))[:, :, None]
    rows = _SubgroupRows(pos, gens, normal, slot.reshape(-1, S.order),
                         inner_l, inner_m, el[:, None] * n * n,
                         (el[:, None] * n + gens).ravel(), invariance)
    for a in rows:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return rows


@lru_cache(maxsize=PAIRING_FACTORS)
def _offset_signs(r1: int, r2: int, r3: int, size: int) -> np.ndarray:
    """The signs of the padded offset terms of pairing rows whose right
    slot, left slot and invariance blocks end at rows r1, r2 and r3 of
    size: -1 on the right slot's term, 1 on the left slot's, 1, 1 and -1
    on the three of invariance, none on the killed rows.  Rows with these
    blocks share the one read-only array."""
    signs = np.zeros((size, 3), dtype=np.int8)
    signs[:r1, 0] = -1
    signs[r1:r2, 0] = 1
    signs[r2:r3] = 1, 1, -1
    signs.flags.writeable = False
    return signs


# pairing rows one process keeps, and the subgroup pieces they are
# built from, least recently used first
_ROWS: OrderedDict = OrderedDict()
_SUBGROUP_ROWS: OrderedDict = OrderedDict()


class _PairingRows:
    """The pairing rows over one (G, L, M, killed subgroup), without the
    twist or N'.

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

    The rows are those of _axiom_blocks(G, L, M) with each block cut to
    its generating set, in the same order, and then the killed unit rows.
    Over the unknowns l |M| + m they are Kronecker products of pieces of
    one subgroup each (_SubgroupRows): I_L (x) R_M for the right slot,
    R_L (x) I_M for the left slot, P_g (x) I_M - I_L (x) Q_g at each
    g in gens(G), with P_g and Q_g the conjugations g^-1 l g and
    g m g^-1, and I_L (x) E_K for the killed rows.  All of them key the
    factor: a row reading 0 = c with c nonzero, or two equal rows with
    different offsets, leave no particular solution x0 with A x0 = b,
    which the factor's solve refuses.

    Held: every row's beta offset in a padded three-term form (gather:
    int32 flat indices into beta_table.ravel(), signs: their int8 signs,
    index 0 and sign 0 on padding), the lift exponent(G), and the factor
    at each N' seen, weakly (factors, a WeakValueDictionary), so the
    factor lives as long as _pairing_factor keeps it and its entry goes
    with it.  A is not held: build writes it afresh for an N' whose
    factor is gone.  The factor reduces A on its first solve, without
    the row transform U while every b it meets is zero: an untwisted
    datum, and most pairs under a twist, never build U.  Nothing the
    twist decides is held.  Construction raises NotCentral, NotNormal or
    InvalidElement (a killed subgroup outside M) for a bad structure.
    """

    __slots__ = ("lift", "gather", "signs", "factors", "_l", "_m", "_unit")

    def __init__(self, G, L: Subgroup, M: Subgroup, killed: Subgroup | None,
                 table: bytes):
        l, m = (cached(_SUBGROUP_ROWS, (table, S.elements),
                       lambda: _subgroup_rows(G, S), PAIRING_FACTORS)
                for S in (L, M))
        T = G.table
        # subgroups commute when their generators do
        if (T[l.gens[:, None], m.gens] != T[m.gens, l.gens[:, None]]).any():
            raise NotCentral("L and M must commute elementwise")
        if not (l.normal and m.normal):
            raise NotNormal("L and M must both be normal")
        nl, nm = L.order, M.order
        unit, killed_rows = None, 0
        if killed is not None:
            pk = m.positions[list(killed.elements)]
            if (pk < 0).any():
                raise InvalidElement("killed subgroup must lie inside M")
            # B(l, k) = 0 on L x K: row k of E_K is the unit vector at k
            unit = pk[:, None] == np.arange(nm)
            killed_rows = nl * len(pk)
        self._l, self._m, self._unit = l, m, unit
        r1, r2, r3 = self._stops()
        size = r3 + killed_rows
        n = G.order
        # flat indices into beta_table, |G|^3 cells
        gather = np.zeros((size, 3),
                          dtype=np.int32 if n ** 3 < 1 << 31 else np.int64)
        # B(l, m1 s) - B(l, m1) - B(l, s) = -lift beta_l(m1, s)
        np.add(l.first, m.pairs, out=gather[:r1, 0].reshape(nl, -1))
        # B(kt, m) - B(k, m) - B(t, m) = lift beta_m(k, t)
        np.add(l.pairs[:, None], m.first.T,
               out=gather[r1:r2, 0].reshape(-1, nm))
        # B(g^-1 l g, m) - B(l, g m g^-1)
        #   = lift (beta_l(g, m) + beta_l(gm, g^-1) - beta_l(g, g^-1))
        np.add(l.first, m.invariance,
               out=gather[r2:r3].T.reshape(3, -1, nl, nm))
        self.lift, self.gather = G.exponent, gather
        self.signs = _offset_signs(r1, r2, r3, size)
        self.factors = WeakValueDictionary()

    def _stops(self) -> tuple[int, int, int]:
        """The rows where the right slot, left slot and invariance
        blocks end."""
        l, m = self._l, self._m
        w = len(l.first) * len(m.first)
        r1 = len(l.first) * len(m.pairs)
        r2 = r1 + len(l.pairs) * len(m.first)
        return r1, r2, r2 + len(m.invariance[0]) * w

    def factor(self, mod: int) -> CongruenceFactor:
        """The factor of these rows mod N', built on first use."""
        factor = self.factors.get(mod)
        if factor is None:
            factor = self.factors[mod] = self.build(mod)
        return factor

    def offsets(self, beta: np.ndarray, mod: int) -> np.ndarray:
        """Each row's offset b for the twist with this beta table: one
        gather of its padded terms, times their signs, summed, lifted by
        exponent(G) and reduced mod N'."""
        b = (beta.ravel()[self.gather] * self.signs).sum(axis=1)
        b *= self.lift
        b %= mod
        return b

    def build(self, mod: int) -> CongruenceFactor:
        """The factor of these rows mod N' (_pairing_factor), keyed by
        their residues in the smallest unsigned type holding N'."""
        A = self._matrix()
        # coefficients of merged terms stay in [-3, 3]
        A += 3
        A = np.array([x % mod for x in range(-3, 4)],
                     dtype=np.min_scalar_type(mod))[A]
        shape, cells = A.shape, A.tobytes()
        # the factor's A is a view of cells: drop this copy before the
        # reduction
        del A
        return _pairing_factor(mod, shape, cells)

    def _matrix(self) -> np.ndarray:
        """A as int8, written block by block into one preallocated array
        through strided views."""
        l, m = self._l, self._m
        r1, r2, r3 = self._stops()
        nl, nm = len(l.first), len(m.first)
        k1, k2, ng = len(m.pairs), len(l.pairs), len(m.invariance[0])
        w = nl * nm
        A = np.zeros((len(self.gather), w), dtype=np.int8)

        def block(start, shape, steps):
            # a view of A from flat cell start, stepping steps cells
            # along each axis of shape; A's cells are bytes
            return np.ndarray(shape, np.int8, A, start, steps)

        # I_L (x) R_M: row (l, x) at column l |M| + m
        block(0, (nl, k1, nm), (k1 * w + nm, w, 1))[...] = m.slot
        # R_L (x) I_M: row (x, m) at column l |M| + m
        block(r1 * w, (k2, nl, nm), (nm * w, nm, w + 1))[...] = \
            l.slot[:, :, None]
        # P_g (x) I_M - I_L (x) Q_g: row (g, l, m)
        block(r2 * w, (ng, nl, nl, nm), (w * w, nm * w, nm, w + 1))[...] = \
            l.inner_l[..., None]
        inner = block(r2 * w, (ng, nl, nm, nm), (w * w, nm * w + nm, w, 1))
        inner -= m.inner_m[:, None]
        if self._unit is not None:
            # I_L (x) E_K: row (l, k)
            nk = len(self._unit)
            block(r3 * w, (nl, nk, nm), (nk * w + nm, w, 1))[...] = \
                self._unit
        return A


def _pairing_rows(G, L: Subgroup, M: Subgroup,
                  killed: Subgroup | None) -> _PairingRows:
    """The pairing rows of this structure, built on first use.

    The rows are keyed by content (the group table and the element ids
    of L, M and the killed subgroup) but not by N', so equal structures
    share them whatever objects carry them, at every N'.  A structure
    that fails to build is not kept, so it raises again on every call.
    Least recently used rows are dropped past PAIRING_FACTORS, and so
    are the subgroup pieces they are built from.
    """
    table = cached_on(G, _table_bytes)
    key = (table, L.elements, M.elements,
           None if killed is None else killed.elements)
    return cached(_ROWS, key, lambda: _PairingRows(G, L, M, killed, table),
                  PAIRING_FACTORS)


def solve_pairings(data: TwistedGroupData, L: Subgroup, M: Subgroup,
                   killed: Subgroup | None = None) -> CongruenceSolution | None:
    """Every valid pairing L x M -> mu_N', as one solved congruence lattice.

    All three axioms go into a single system: unknowns are the table
    entries, beta terms are constant offsets, so each axiom instance is one
    linear row.  Every lattice point is a valid pairing.  With killed, a
    subgroup of M, the pairing must also vanish on L x killed.  L and M
    must be commuting normal subgroups.  Returns None when no pairing
    exists.  The rows are built once per (G, L, M, killed) whatever the
    working modulus N', and factored once per N' (_pairing_rows); each
    call gathers its own offsets from the twist's beta table.  The zero
    twist has every offset 0, so an untwisted datum builds no beta table
    and solves a zero b, which its factor answers without U.
    """
    G = data.group
    if not (L.parent.same_table(G) and M.parent.same_table(G)):
        raise ParentMismatch("subgroups live over a different group")
    rows = _pairing_rows(G, L, M, killed)
    mod = working_modulus(data)
    b = (np.zeros(len(rows.gather), dtype=np.int64) if data.omega.is_zero
         else rows.offsets(data.beta_table, mod))
    return rows.factor(mod).solve(b)


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
