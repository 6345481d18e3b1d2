"""Finite groups as validated multiplication tables.

Element ids are 0..order-1 and the identity is always id 0.  Builders for the
usual small families are provided; arbitrary groups come from explicit tables
or permutation generators.  All derived objects (subgroups, quotients, duals)
use deterministic orderings so repeated runs are byte-identical.
"""

from __future__ import annotations

import itertools
import re
from collections import OrderedDict
from dataclasses import InitVar, dataclass
from functools import cached_property
from math import gcd, lcm, prod

import numpy as np

from .errors import (
    GroupTooLarge,
    InvalidElement,
    NotAbelian,
    NotAGroup,
    NotAHomomorphism,
    NotNormal,
    NotSurjective,
    UnknownBuiltin,
)
from .exact import UnityExponent

DEFAULT_ORDER_BOUND = 64
ISO_SEARCH_BOUND = 16
# largest group built from outside input: names, table files, generators
MAX_ORDER = 1024
# cells of the (rows, n, n) blocks the associativity check compares at once
_ASSOC_BLOCK = 1 << 20


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class FiniteGroup:
    """Immutable finite group given by its full multiplication table.

    The table is a square nested sequence of ids or a 2-D integer array,
    kept as one read-only int64 array with table[a, b] = ab.  Element
    orders and the exponent are computed on first use, and so is each
    structure built through cached_on.
    """

    __slots__ = ("order", "table", "name", "labels", "inverse", "is_abelian",
                 "_orders", "_exponent", "_memo")

    def __init__(self, table, name: str | None = None,
                 labels: tuple[str, ...] | None = None, validate: bool = True):
        try:
            # an integer array is copied as it is: uint64 ids past 2^63 wrap
            # to negatives, which fail validation
            if not (isinstance(table, np.ndarray) and table.dtype.kind in "biu"):
                table = [[int(x) for x in row] for row in table]
                if any(len(row) != len(table) for row in table):
                    raise NotAGroup("table must be square and nonempty")
            T = np.array(table, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            raise NotAGroup(
                "table must be a square nested list of integer ids") from None
        if T.ndim != 2 or T.shape[0] != T.shape[1] or T.size == 0:
            raise NotAGroup("table must be square and nonempty")
        n = len(T)
        if validate:
            self._validate(T, n)
        self.order = n
        self.table = _read_only(T)
        self.name = name
        self.labels = tuple(labels) if labels else tuple(str(i) for i in range(n))
        if len(self.labels) != n:
            raise NotAGroup("label tuple has wrong length")
        self.inverse = _read_only((T == 0).argmax(axis=1))
        self.is_abelian = bool(np.array_equal(T, T.T))
        self._orders = self._exponent = None
        self._memo = {}

    @staticmethod
    def _validate(T: np.ndarray, n: int):
        if T.min() < 0 or T.max() >= n:
            raise NotAGroup("table entry out of range")
        idline = np.arange(n)
        if not (np.array_equal(T[0], idline) and np.array_equal(T[:, 0], idline)):
            raise NotAGroup("id 0 is not a two-sided identity")
        if not (np.array_equal(np.sort(T, axis=1), np.tile(idline, (n, 1)))
                and np.array_equal(np.sort(T, axis=0), np.tile(idline[:, None], (1, n)))):
            raise NotAGroup("table is not a Latin square")
        # (ab)c against a(bc), a block of rows a at a time: O(n^2) memory
        step = max(1, _ASSOC_BLOCK // (n * n))
        for lo in range(0, n, step):
            left = T[T[lo:lo + step]]     # left[a,b,c] = T[T[a,b], c]
            right = T[lo:lo + step][:, T]  # right[a,b,c] = T[a, T[b,c]]
            if not np.array_equal(left, right):
                a, b, c = (int(v) for v in np.argwhere(left != right)[0])
                raise NotAGroup(f"associativity fails on ({a + lo},{b},{c})")

    @property
    def element_orders(self) -> np.ndarray:
        """Read-only array of element orders, computed on first use."""
        if self._orders is None:
            step, orders = self.table.item, [1] + [0] * (self.order - 1)
            for a in range(1, self.order):
                if orders[a]:
                    continue
                # walk <a> once: its k-th power has order m / gcd(m, k)
                cycle, x = [a], step(a, a)
                while x != 0:
                    cycle.append(x)
                    x = step(x, a)
                m = len(cycle) + 1
                for k, x in enumerate(cycle, 1):
                    orders[x] = m // gcd(m, k)
            self._orders = _read_only(np.array(orders))
        return self._orders

    @property
    def exponent(self) -> int:
        if self._exponent is None:
            self._exponent = lcm(*self.element_orders.tolist())
        return self._exponent

    def check_element(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise InvalidElement(f"element id {a} out of range for order {self.order}")

    @property
    def elements(self) -> range:
        return range(self.order)

    def label(self, a: int) -> str:
        return self.labels[a]

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name or 'order ' + str(self.order)})"

    def same_table(self, other: "FiniteGroup") -> bool:
        return self is other or np.array_equal(self.table, other.table)


def cached_on(G: FiniteGroup, build):
    """build(G), made on first use and kept on G for as long as G lives.

    For structures that depend on the group alone: every caller holding
    the same group object gets the same value, so the value must be
    immutable.  A build that raises leaves nothing behind.
    """
    value = G._memo.get(build)
    if value is None:
        value = G._memo[build] = build(G)
    return value


def cached(store: OrderedDict, key, build, bound: int, keep=None):
    """store[key], built on first use; least recently used entries are
    dropped past bound.  A value for which keep(value) is false is
    returned without being stored; a build that raises leaves nothing
    behind."""
    value = store.get(key)
    if value is None:
        value = build()
        if keep is None or keep(value):
            store[key] = value
            if len(store) > bound:
                store.popitem(last=False)
    else:
        store.move_to_end(key)
    return value


# lets Subgroup trust ids the library computed as a subgroup
_CLOSED = object()


@dataclass(frozen=True)
class Subgroup:
    """A subgroup recorded as a sorted tuple of parent element ids; ids the
    library computed as a subgroup skip the closure check."""

    parent: FiniteGroup
    elements: tuple[int, ...]
    origin: InitVar[object] = None

    def __post_init__(self, origin):
        if origin is _CLOSED:
            return
        elems = tuple(sorted({int(x) for x in self.elements}))
        object.__setattr__(self, "elements", elems)
        G = self.parent
        if not elems or elems[0] != 0:
            raise NotAGroup("subgroup must contain the identity")
        # ids are sorted from 0, so the largest one range-checks them all
        # before the closure test indexes the table
        G.check_element(elems[-1])
        inside, product = set(elems), G.table.item
        for a in elems:
            row = [product(a, b) for b in elems]
            # a row closed under products holds the inverse of a too, so
            # the inverse needs a look only in a row that fails
            if not inside.issuperset(row):
                if G.inverse[a] not in inside:
                    raise NotAGroup(f"subgroup not closed under inverse at {a}")
                b = next(b for b, ab in zip(elems, row) if ab not in inside)
                raise NotAGroup(
                    f"subgroup not closed under product at ({a},{b})")

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.parent.order // len(self.elements)

    def sort_key(self):
        return (len(self.elements), self.elements)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set, greedy and ascending: each generator is the
        least element outside what the earlier ones generate.  Empty for
        the trivial subgroup."""
        gens: list[int] = []
        have: tuple[int, ...] = (0,)
        while len(have) < self.order:
            inside = set(have)
            gens.append(next(x for x in self.elements if x not in inside))
            have = closure(self.parent, gens)
        return tuple(gens)


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism recorded as the image tuple over source ids."""

    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(int(x) for x in self.images))
        f = np.array(self.images, dtype=np.int64)
        if f.shape != (self.source.order,):
            raise NotAHomomorphism("image tuple has wrong length")
        if f.min() < 0 or f.max() >= self.target.order:
            raise NotAHomomorphism("image id out of range")
        if f[0] != 0:
            raise NotAHomomorphism("identity must map to identity")
        Ts, Tt = self.source.table, self.target.table
        bad = f[Ts] != Tt[f[:, None], f[None, :]]
        if bad.any():
            a, b = np.argwhere(bad)[0].tolist()
            raise NotAHomomorphism(f"multiplicativity fails at ({a},{b})")

    def __call__(self, a: int) -> int:
        return self.images[a]

    def kernel(self) -> Subgroup:
        return Subgroup(self.source,
                        tuple(a for a, x in enumerate(self.images) if x == 0),
                        _CLOSED)

    @property
    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.target.order

    @property
    def is_injective(self) -> bool:
        return len(set(self.images)) == self.source.order

    def min_section(self) -> tuple[int, ...]:
        """For each target id, the smallest preimage id (requires surjective)."""
        if not self.is_surjective:
            raise NotSurjective("section requires a surjective homomorphism")
        sec = {x: a for a, x in reversed(list(enumerate(self.images)))}
        return tuple(sec[x] for x in range(self.target.order))


# -- builders ---------------------------------------------------------------


def _mixed_radix(sizes) -> np.ndarray:
    """Row x holds the digits of x in mixed radix `sizes`, last digit fastest."""
    return np.indices(sizes, dtype=np.int64).reshape(len(sizes), prod(sizes)).T


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise UnknownBuiltin("cyclic order must be >= 1")
    ids = np.arange(n, dtype=np.int64)
    table = ids[:, None] + ids
    table %= n
    return FiniteGroup(table, name=f"C{n}", validate=False)


def product_group(*factors: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """Direct product with ids packed row-major (last factor fastest)."""
    if not factors:
        return cyclic(1)
    if name is None:
        name = "x".join(g.name or f"?{g.order}" for g in factors)
    sizes = [g.order for g in factors]
    digits = _mixed_radix(sizes).T
    table = np.ravel_multi_index(
        [g.table[d[:, None], d] for g, d in zip(factors, digits)], sizes)
    labels = tuple("(" + ",".join(parts) + ")"
                   for parts in itertools.product(*(g.labels for g in factors)))
    return FiniteGroup(table, name=name, labels=labels, validate=False)


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given even order.

    Ids 0..n-1 are the rotations r^i, ids n..2n-1 the reflections s r^i.
    """
    if order < 2 or order % 2:
        raise UnknownBuiltin(f"dihedral order must be even >= 2, got {order}")
    n = order // 2
    k, i = np.divmod(np.arange(order), n)
    k1, i1, k2, i2 = k[:, None], i[:, None], k[None, :], i[None, :]
    table = np.where(k2 == 0, k1 * n + (i1 + i2) % n,
                     (1 - k1) * n + (i2 - i1) % n)
    labels = tuple(f"r{i}" if k == 0 else f"sr{i}" for k in (0, 1) for i in range(n))
    return FiniteGroup(table, name=f"D{order}", labels=labels, validate=False)


def _cycle_label(perm: tuple[int, ...]) -> str:
    seen, parts = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            seen.add(start)
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = perm[x]
        parts.append("(" + " ".join(str(v) for v in cyc) + ")")
    return "".join(parts) or "e"


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n letters; elements in lexicographic one-line order."""
    if not 1 <= n <= 6:
        raise UnknownBuiltin(f"symmetric degree must be 1..6, got {n}")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]
    labels = tuple(_cycle_label(p) for p in perms)
    return FiniteGroup(table, name=f"S{n}", labels=labels, validate=False)


def quaternion() -> FiniteGroup:
    """Quaternion group; element order 1, -1, i, -i, j, -j, k, -k.

    Id 2u + s is the unit u of (1, i, j, k) with sign (-1)^s.  Units
    multiply by xor of their indices, and flip[u, v] marks the products
    of units that pick up a sign (i i = -1, i k = -j, j i = -k, ...).
    """
    flip = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    u, sign = np.divmod(np.arange(8), 2)
    u1, u2 = u[:, None], u[None, :]
    table = 2 * (u1 ^ u2) + (sign[:, None] ^ sign[None, :] ^ flip[u1, u2])
    labels = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    return FiniteGroup(table, name="Q8", labels=labels, validate=False)


def parse_permutation(text: str, degree: int) -> tuple[int, ...]:
    """Parse cycle notation like "(0 1 2)(3 4)" into a one-line tuple."""
    perm = list(range(degree))
    body = text.strip()
    if body in ("", "e", "()"):
        return tuple(perm)
    if not re.fullmatch(r"(\(\s*\d+(?:[\s,]+\d+)*\s*\))+", body):
        raise ValueError(f"cannot parse permutation {text!r}")
    for cyc in re.findall(r"\(([^()]*)\)", body):
        pts = [int(tok) for tok in re.split(r"[\s,]+", cyc.strip()) if tok]
        if any(p >= degree for p in pts) or len(set(pts)) != len(pts):
            raise ValueError(f"bad cycle ({cyc}) for degree {degree}")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            perm[a] = b
    return tuple(perm)


def from_generators(gens, degree: int, name: str | None = None,
                    max_order: int = MAX_ORDER) -> FiniteGroup:
    """Group generated by permutations, in breadth-first closure order.

    The identity gets id 0; new elements are appended as old*generator
    products are discovered, scanning generators in the given order.  max_order
    bounds the degree too: a group of that order acts faithfully on itself.
    """
    if degree > max_order:
        raise GroupTooLarge(
            f"permutation degree {degree} exceeds the bound {max_order}")
    parsed = []
    for g in gens:
        if isinstance(g, str):
            parsed.append(parse_permutation(g, degree))
        else:
            try:
                parsed.append(tuple(int(x) for x in g))
            except (TypeError, ValueError, OverflowError):
                raise NotAGroup("a generator is neither cycle notation "
                                "nor a list of point ids") from None
    for p in parsed:
        if sorted(p) != list(range(degree)):
            raise NotAGroup(f"not a permutation of 0..{degree - 1}: {p}")
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    head = 0
    while head < len(elems):
        p = elems[head]
        head += 1
        for q in parsed:
            r = tuple(p[q[x]] for x in range(degree))
            if r not in index:
                if len(elems) >= max_order:
                    raise GroupTooLarge(f"closure exceeded {max_order} elements")
                index[r] = len(elems)
                elems.append(r)
    table = [[index[tuple(p[q[x]] for x in range(degree))] for q in elems]
             for p in elems]
    labels = tuple(_cycle_label(p) for p in elems)
    return FiniteGroup(table, name=name, labels=labels, validate=False)


def powers(G: FiniteGroup, a: np.ndarray, k: int) -> np.ndarray:
    """a^k for an array of ids a and an int k >= 0, by repeated squaring."""
    T, x = G.table, np.zeros_like(a)
    while k:
        if k & 1:
            x = T[x, a]
        a, k = T[a, a], k >> 1
    return x


def _check_order(order: int, what: str) -> None:
    """GroupTooLarge past MAX_ORDER, checked before any table is built."""
    if order > MAX_ORDER:
        raise GroupTooLarge(
            f"{what} has order {order}, above the bound {MAX_ORDER}")


# builtin groups one process keeps, by stripped name, least recently used
# first: at most DEFAULT_ORDER_BOUND of them, none of order above it
_BUILTINS: OrderedDict = OrderedDict()


def builtin_group(name: str) -> FiniteGroup:
    """A builtin group by name; its order, read off the name, is bounded
    by MAX_ORDER before any table is built.

    A group of order at most DEFAULT_ORDER_BOUND is built once and shared
    by every later call with the same stripped name, while it stays among
    the DEFAULT_ORDER_BOUND names used last.
    """
    name = name.strip()
    return cached(_BUILTINS, name, lambda: _build_builtin(name),
                  DEFAULT_ORDER_BOUND,
                  lambda G: G.order <= DEFAULT_ORDER_BOUND)


def _build_builtin(name: str) -> FiniteGroup:
    if name == "Q8":
        return quaternion()
    m = re.fullmatch(r"S(\d+)", name)
    if m:
        return symmetric(int(m.group(1)))
    m = re.fullmatch(r"D(\d+)", name)
    if m:
        _check_order(int(m.group(1)), name)
        return dihedral(int(m.group(1)))
    if re.fullmatch(r"C\d+(?:xC\d+)*", name):
        ns = [int(s) for s in re.findall(r"C(\d+)", name)]
        _check_order(prod(ns), name)
        if len(ns) == 1:
            return cyclic(ns[0])
        return product_group(*(cyclic(n) for n in ns), name=name)
    raise UnknownBuiltin(f"unknown builtin group {name!r}")


def json_int(value, what: str, error=NotAGroup) -> int:
    """A JSON number or numeric string as an int, else error naming what."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{what} must be an integer, got "
                    f"{type(value).__name__}") from None


def build_group(spec) -> FiniteGroup:
    """Build a group from a builtin name, a JSON-style dict, or a raw table.

    Any other value, or a dict field of the wrong type, raises NotAGroup.
    A table's row count is bounded by MAX_ORDER before it is converted.
    """
    if isinstance(spec, FiniteGroup):
        return spec
    if isinstance(spec, str):
        return builtin_group(spec)
    if isinstance(spec, (list, tuple, np.ndarray)):
        spec = {"table": spec}
    if not isinstance(spec, dict):
        raise NotAGroup(
            f"cannot build a group from a {type(spec).__name__}")
    name = spec.get("name")
    if name is not None and not isinstance(name, str):
        raise NotAGroup("group name must be a string")
    if "builtin" in spec:
        if not isinstance(spec["builtin"], str):
            raise NotAGroup("builtin group name must be a string")
        return builtin_group(spec["builtin"])
    if "generators" in spec:
        if "degree" not in spec:
            raise NotAGroup("generator spec needs a degree")
        gens = spec["generators"]
        if not isinstance(gens, list):
            raise NotAGroup("generators must be a list of permutations")
        return from_generators(gens, json_int(spec["degree"], "degree"),
                               name=name)
    if "table" in spec:
        if isinstance(spec["table"], (list, tuple, np.ndarray)):
            _check_order(len(spec["table"]), "group table")
        g = FiniteGroup(spec["table"], name=name)
        if "order" in spec and json_int(spec["order"], "order") != g.order:
            raise NotAGroup("declared order does not match table size")
        return g
    raise NotAGroup(f"cannot interpret group spec with keys {sorted(spec)}")


def trivial_group() -> FiniteGroup:
    return cyclic(1)


# -- structure queries ------------------------------------------------------


def conjugation_table(G: FiniteGroup) -> np.ndarray:
    """The conjugation table: entry [g, a] is g a g^-1."""
    return G.table[G.table, G.inverse[:, None]]


def _masks(subs: list[Subgroup], n: int) -> np.ndarray:
    """Membership matrix: entry [i, a] says whether a lies in subs[i]."""
    mask = np.zeros((len(subs), n), dtype=bool)
    sizes = [S.order for S in subs]
    ids = np.fromiter(itertools.chain.from_iterable(S.elements for S in subs),
                      dtype=np.int64, count=sum(sizes))
    mask.ravel()[np.repeat(np.arange(len(subs)) * n, sizes) + ids] = True
    return mask


def conjugacy_classes(G: FiniteGroup) -> list[tuple[int, tuple[int, ...]]]:
    """Conjugacy classes as (representative, members), representatives
    ascending; the representative is the least id in its class."""
    classes: dict[int, list[int]] = {}
    for a, rep in enumerate(conjugation_table(G).min(axis=0).tolist()):
        # rep <= a, so each class is met first at its representative
        classes.setdefault(rep, []).append(a)
    return [(rep, tuple(members)) for rep, members in classes.items()]


def centralizer(G: FiniteGroup, a: int) -> Subgroup:
    G.check_element(a)
    T = G.table
    return Subgroup(G, tuple(np.flatnonzero(T[:, a] == T[a]).tolist()), _CLOSED)


def center(G: FiniteGroup) -> Subgroup:
    T = G.table
    return Subgroup(G, tuple(np.flatnonzero((T == T.T).all(axis=1)).tolist()),
                    _CLOSED)


def _close(rows, cols, gens) -> tuple[int, ...]:
    """The ids reached from gens by right multiplication, sorted; row x of
    rows holds x times each generator at the positions cols."""
    have = set(gens)
    frontier = list(gens)
    while frontier:
        row = rows[frontier.pop()]
        for j in cols:
            z = row[j]
            if z not in have:
                have.add(z)
                frontier.append(z)
    return tuple(sorted(have))


def closure(G: FiniteGroup, seed) -> tuple[int, ...]:
    """Subgroup generated by the seed elements, as a sorted id tuple.

    Right multiplication by the generators suffices: in a finite group
    every inverse is a positive power, so the words in the seed form the
    subgroup.
    """
    gens = sorted({0, *(int(s) for s in seed)})
    for s in gens:
        G.check_element(s)
    return _close(G.table[:, gens].tolist(), range(len(gens)), gens)


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    comms = G.table[conjugation_table(G), G.inverse]  # [a, b] = a b a^-1 b^-1
    # the ids that occur, by a mask: np.unique would import numpy.ma
    seen = np.zeros(G.order, dtype=bool)
    seen[comms] = True
    return Subgroup(G, closure(G, np.flatnonzero(seen).tolist()), _CLOSED)


def check_lattice_order(G: FiniteGroup) -> None:
    """GroupTooLarge past DEFAULT_ORDER_BOUND, the cap on subgroup
    enumeration; read off the order alone, so callers check it before
    they build anything else over G."""
    if G.order > DEFAULT_ORDER_BOUND:
        raise GroupTooLarge(
            f"subgroup enumeration capped at order {DEFAULT_ORDER_BOUND}, "
            f"group has {G.order}"
        )


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, found by joining subgroups with cyclic ones.

    Each subgroup is <a_1, ..., a_r>, reached from <a_1> by joining one
    cyclic subgroup at a time; so every newly found subgroup is joined with
    each cyclic subgroup once, from a worklist.  Deterministic order: by
    (order, element tuple).  The lattice is found once per group object;
    each call returns a new list of the shared, frozen subgroups.
    """
    check_lattice_order(G)
    return list(cached_on(G, _subgroup_lattice))


def _subgroup_lattice(G: FiniteGroup) -> tuple[Subgroup, ...]:
    rows = G.table.tolist()
    # each distinct cyclic subgroup, with its least generator
    cyclics: dict[tuple[int, ...], int] = {}
    for a in G.elements:
        cyclics.setdefault(_close(rows, (a,), (0, a)), a)
    # each subgroup found so far, with a generating set
    found = {elems: (a,) for elems, a in cyclics.items()}
    work = list(found)
    while work:
        elems = work.pop()
        inside, gens = set(elems), found[elems]
        for c in cyclics.values():
            if c not in inside:
                join = _close(rows, gens + (c,), (0,) + gens + (c,))
                if join not in found:
                    found[join] = gens + (c,)
                    work.append(join)
    subs = [Subgroup(G, elems, _CLOSED) for elems in found]
    subs.sort(key=Subgroup.sort_key)
    return tuple(subs)


def is_normal(G: FiniteGroup, S: Subgroup) -> bool:
    if S.parent is not G:
        S = Subgroup(G, S.elements)
    inside = np.zeros(G.order, dtype=bool)
    inside[list(S.elements)] = True
    T = G.table
    return bool(inside[T[T[:, S.elements], G.inverse[:, None]]].all())


def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    subs = all_subgroups(G)
    if G.is_abelian:
        return subs
    mask = _masks(subs, G.order)
    # S is normal when a in S puts every g a g^-1 in S
    normal = (mask[:, conjugation_table(G)] >= mask[:, None, :]).all(axis=(1, 2))
    return [S for S, ok in zip(subs, normal.tolist()) if ok]


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a normal subgroup, with the projection.

    Coset representatives are minimal ids; quotient ids sort those reps
    ascending, so the identity coset is id 0.
    """
    if N.parent is not G:
        N = Subgroup(G, N.elements)
    if not is_normal(G, N):
        raise NotNormal(f"subgroup {N.elements} is not normal")
    # rep_of[a] is the least id of the coset aN
    rep_of = G.table[:, list(N.elements)].min(axis=1)
    # the least id of a coset is its own rep (np.unique would import
    # numpy.ma)
    reps = np.flatnonzero(rep_of == np.arange(G.order))
    proj_ids = np.searchsorted(reps, rep_of)
    table = proj_ids[G.table[reps[:, None], reps]]
    name = None
    if G.name:
        name = f"{G.name}/{{{','.join(str(x) for x in N.elements)}}}"
    labels = tuple(f"[{G.labels[r]}]" for r in reps.tolist())
    Q = FiniteGroup(table, name=name, labels=labels, validate=False)
    proj = GroupHom(G, Q, proj_ids.tolist())
    return Q, proj


def subgroup_as_group(S: Subgroup) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Reindex a subgroup as a group in its own right.

    Returns (group, embedding): embedding[i] is the parent id of element i.
    """
    G = S.parent
    elems = S.elements
    ids = np.array(elems)
    pos = np.zeros(G.order, dtype=np.int64)
    pos[ids] = np.arange(len(elems))
    table = pos[G.table[ids[:, None], ids]]
    labels = tuple(G.labels[a] for a in elems)
    name = None
    if G.name:
        name = f"{G.name}[{','.join(str(a) for a in elems)}]"
    return FiniteGroup(table, name=name, labels=labels, validate=False), elems


def commuting_normal_pairs(G: FiniteGroup) -> list[tuple[Subgroup, Subgroup]]:
    """Ordered pairs (L, M) of normal subgroups commuting elementwise."""
    normals = normal_subgroups(G)
    if G.is_abelian:
        return [(L, M) for L in normals for M in normals]
    mask = _masks(normals, G.order).astype(np.int64)
    # clash[i, j] counts the pairs in normals[i] x normals[j] that do not commute
    clash = mask @ (G.table != G.table.T) @ mask.T
    rows, cols = np.nonzero(clash == 0)
    return [(normals[i], normals[j]) for i, j in zip(rows.tolist(), cols.tolist())]


# -- abelian structure ------------------------------------------------------


def enumerate_homs_to_abelian(G: FiniteGroup, A: FiniteGroup) -> list[tuple[int, ...]]:
    """All homomorphisms G -> A (A abelian), as image tuples, sorted.

    Brute force over generator images with incremental consistency checks.
    """
    if not A.is_abelian:
        raise NotAbelian("target of hom enumeration must be abelian")
    gens = list(Subgroup(G, tuple(G.elements), _CLOSED).generators)
    steps = G.table[:, gens].tolist()
    out = []
    for imgs in itertools.product(A.elements, repeat=len(gens)):
        images = A.table[:, imgs].tolist()
        table = {0: 0}
        ok = True
        frontier = [0]
        while frontier and ok:
            x = frontier.pop()
            fx = table[x]
            for y, fy in zip(steps[x], images[fx]):
                if y not in table:
                    table[y] = fy
                    frontier.append(y)
                elif table[y] != fy:
                    ok = False
                    break
        if ok and len(table) == G.order:
            out.append(tuple(table[a] for a in G.elements))
    out.sort()
    return out


def count_homs_to_abelian(G: FiniteGroup, A: FiniteGroup) -> int:
    """|Hom(G, A)| for abelian A, in closed form.

    Every map to A factors through G^ab = G / [G, G], and Hom(Z/d, Z/e) has
    gcd(d, e) elements, so the count is the product of gcd(d_i, e_j) over
    the invariant factors d_i of G^ab and e_j of A.
    """
    if not A.is_abelian:
        raise NotAbelian("target of hom enumeration must be abelian")
    ab = G if G.is_abelian else quotient(G, derived_subgroup(G))[0]
    targets = [e for _, e in abelian_basis(A)]
    return prod(gcd(d, e) for _, d in abelian_basis(ab) for e in targets)


def abelian_basis(A: FiniteGroup) -> list[tuple[int, int]]:
    """Invariant-factor basis [(generator, order), ...], orders descending.

    Every element is uniquely sum_i c_i g_i with c_i in range(order_i).
    Built per prime: greedily take an element of maximal order in the
    quotient by the span so far, restricted to order-matching lifts.
    """
    if not A.is_abelian:
        raise NotAbelian("basis requires an abelian group")
    if A.order == 1:
        return []
    order_of = A.element_orders.tolist()
    primes = sorted({next(p for p in range(2, o + 1) if o % p == 0)
                     for o in set(order_of) - {1}})
    per_prime: dict[int, list[tuple[int, int]]] = {}
    for p in primes:
        part = gcd(A.order, p ** A.order)
        # orders divide |A|, so the p-powers are those dividing its p-part
        members = [a for a, o in enumerate(order_of) if part % o == 0]
        basis_p: list[tuple[int, int]] = []
        span, size, socle = {0}, 1, None
        while size < len(members):
            # a lifts with its full order exactly when <a> meets the span
            # trivially, i.e. when its power of order p, a^(ord(a)/p), lies
            # outside the span; while the span is {0} that is every a != 0
            if len(span) > 1 and socle is None:
                x = np.array(members)
                while (big := A.element_orders[x] > p).any():
                    x[big] = powers(A, x[big], p)
                socle = dict(zip(members, x.tolist()))
            # the first lift of the largest order wins
            best = None
            for a in members:
                if (socle[a] if socle else a) not in span and \
                        (best is None or order_of[a] > best[1]):
                    best = (a, order_of[a])
            if best is None:
                raise NotAGroup("abelian basis construction failed")
            basis_p.append(best)
            size *= best[1]
            if size < len(members):
                span = set(closure(A, [g for g, _ in basis_p]))
                if len(span) != size:
                    raise NotAGroup("abelian basis construction failed")
        basis_p.sort(key=lambda t: -t[1])
        per_prime[p] = basis_p
    width = max(len(b) for b in per_prime.values())
    out = []
    for i in range(width):
        g, order = 0, 1
        for p in primes:
            if i < len(per_prime[p]):
                gp, op = per_prime[p][i]
                g = int(A.table[g, gp])
                order *= op
        out.append((g, order))
    if prod(o for _, o in out) != A.order:
        raise NotAGroup("abelian basis construction failed")
    return out


def abelian_coordinates(A: FiniteGroup) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The invariant-factor basis and each element's coordinates on it.

    Returns (abelian_basis(A), coords): row a of coords holds the c_i in
    range(order_i) with a = sum_i c_i g_i.
    """
    basis = abelian_basis(A)
    digits = _mixed_radix([m for _, m in basis])
    elems = np.zeros(len(digits), dtype=np.int64)
    for (g, m), column in zip(basis, digits.T):
        step, cycle = A.table[:, g].tolist(), [0]
        for _ in range(m - 1):
            cycle.append(step[cycle[-1]])
        elems = A.table[elems, np.array(cycle)[column]]
    coords = np.empty_like(digits)
    coords[elems] = digits
    return basis, coords


@dataclass(frozen=True, eq=False)
class DualGroup:
    """Character group of a finite abelian group, with the exact pairing.

    pairing[chi, a], a read-only int64 array, is the exponent of chi(a) as
    a root of unity modulo `modulus` (the exponent of the source group).
    """

    group: FiniteGroup
    source: FiniteGroup
    pairing: np.ndarray
    modulus: int

    def character(self, chi: int, a: int) -> UnityExponent:
        return UnityExponent(int(self.pairing[chi, a]), self.modulus)


def dual_group(A: FiniteGroup) -> DualGroup:
    """Characters of an abelian group.  Character ids sort the value tables
    lexicographically, so the trivial character is id 0.

    On the basis g_i of orders m_i, the character with coordinates c sends
    sum_i a_i g_i to sum_i a_i c_i e / m_i modulo the exponent e.
    """
    if not A.is_abelian:
        raise NotAbelian("dual group requires an abelian group")
    e = A.exponent
    basis, coords = abelian_coordinates(A)
    orders = np.array([m for _, m in basis], dtype=np.int64)
    chars = _mixed_radix(orders)
    values = (chars * (e // orders)) @ coords.T % e
    by_value = np.lexsort(values.T[::-1])
    char_id = np.empty_like(by_value)
    char_id[by_value] = np.arange(len(by_value))
    # characters multiply as their coordinates add in the product of Z/m_i
    coord_table = product_group(*(cyclic(m) for m in orders.tolist())).table
    table = char_id[coord_table[by_value[:, None], by_value]]
    name = f"dual({A.name})" if A.name else None
    grp = FiniteGroup(table, name=name, validate=False)
    return DualGroup(grp, A, _read_only(values[by_value]), e)


def annihilator(dual: DualGroup, H: Subgroup) -> Subgroup:
    """Characters trivial on H, as a subgroup of the dual."""
    if H.parent is not dual.source:
        H = Subgroup(dual.source, H.elements)
    trivial = ~dual.pairing[:, H.elements].any(axis=1)
    return Subgroup(dual.group, tuple(np.flatnonzero(trivial).tolist()), _CLOSED)


# -- isomorphism testing ----------------------------------------------------


def _hom_extend(T1, T2, partial: dict, a: int, fa: int):
    """Close partial (a multiplicative map between the groups with table
    rows T1 and T2) after adding a -> fa; None on clash."""
    new = dict(partial)
    work = [(a, fa)]
    while work:
        x, fx = work.pop()
        if x in new:
            if new[x] != fx:
                return None
            continue
        new[x] = fx
        for b, fb in list(new.items()):
            work.append((T1[x][b], T2[fx][fb]))
            work.append((T1[b][x], T2[fb][fx]))
    return new


def _iso_search(T1, T2, gens, cand_lists, partial):
    if not gens:
        return len(partial) == len(T1)
    g, rest = gens[0], gens[1:]
    for img in cand_lists[0]:
        new = _hom_extend(T1, T2, partial, g, img)
        if new is None or len(set(new.values())) != len(new):
            continue
        if _iso_search(T1, T2, rest, cand_lists[1:], new):
            return True
    return False


def is_isomorphic(G1: FiniteGroup, G2: FiniteGroup,
                  bound: int = ISO_SEARCH_BOUND) -> bool:
    """Brute-force isomorphism search, only for small orders."""
    if G1.order != G2.order:
        return False
    if G1.order > bound:
        raise GroupTooLarge(f"isomorphism search capped at order {bound}")
    o1, o2 = G1.element_orders, G2.element_orders
    if not np.array_equal(np.sort(o1), np.sort(o2)):
        return False
    if G1.is_abelian != G2.is_abelian:
        return False
    sizes1 = sorted(len(c) for _, c in conjugacy_classes(G1))
    sizes2 = sorted(len(c) for _, c in conjugacy_classes(G2))
    if sizes1 != sizes2:
        return False
    gens = list(Subgroup(G1, tuple(G1.elements), _CLOSED).generators)
    cand_lists = [np.flatnonzero(o2 == o1[g]).tolist() for g in gens]
    return _iso_search(G1.table.tolist(), G2.table.tolist(), gens,
                       cand_lists, {0: 0})
