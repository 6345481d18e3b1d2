"""Group cohomology H^n(G, A) for finite abelian coefficients, n <= 3.

Cochains are dense tables over G^n with values recorded as element ids of the
coefficient group.  Internally every computation is pushed through an exact
integer lattice: a coefficient group with invariant factors (m_1 >= m_2 >= ...)
embeds into (Z/e)^k by scaling the i-th coordinate by e/m_i, where e is the
exponent.  Kernels, images and quotients then reduce to Smith normal form and
congruence solving from the exact module.  The kernel-lattice rule lives
there too: exact._Lattice turns a diagonal reduction mod e into one step
per column, and cohomology_group reads the cocycle generators, their
orders, the coboundaries' coordinates and the check that none escapes
the cocycle lattice off those steps.
"""

from __future__ import annotations

import functools
import itertools
from collections import OrderedDict
from dataclasses import InitVar, dataclass, field
from math import log2, prod

import numpy as np

from .errors import (
    BudgetExceeded,
    DegreeTooHigh,
    NonTrivialAction,
    NotACocycle,
    NotAbelian,
    NotAHomomorphism,
    ParentMismatch,
)
from .exact import (_Lattice, _matvec_mod, _smith, _sweep_dtype,
                    diagonalize_mod, solve_congruences)
from .groups import (DEFAULT_ORDER_BOUND, FiniteGroup, GroupHom,
                     abelian_coordinates, cached,
                     count_homs_to_abelian, cyclic, powers)

MAX_DEGREE = 3
DEFAULT_BUDGET = 10_000_000
# bytes one bar system may take with the transforms of its reduction; the
# largest that any pinned job, tier-1 or the order-16 reaches build, d_3
# of an order-16 group (50625 x 3375 at int8, with V and the image block
# 194 MB), sits under it
BAR_SYSTEM_BYTES = 1 << 28


class CoefficientModule:
    """Finite abelian coefficient group with an optional left G-action.

    The action is given per acting-group element as a permutation of the
    coefficient ids; it must consist of automorphisms and be a homomorphism
    into Aut(A).  With no action the module works with any group.  The
    action table and the coordinates are read-only: trivial_module and
    mu_module share one module between callers.
    """

    __slots__ = ("group", "acting_group", "action", "basis", "orders",
                 "exponent", "rank", "coords", "_scaled")

    def __init__(self, group: FiniteGroup, acting_group: FiniteGroup | None = None,
                 action=None):
        if not group.is_abelian:
            raise NotAbelian("coefficients must form an abelian group")
        if (acting_group is None) != (action is None):
            raise ValueError("acting_group and action must be given together")
        self.group = group
        self.acting_group = acting_group
        if action is None:
            self.action = None
        else:
            act = np.array(action, dtype=np.int64)
            if act.shape != (acting_group.order, group.order):
                raise NotAHomomorphism("action table has wrong shape")
            self._check_action(act)
            act.flags.writeable = False
            self.action = act
        pairs, self.coords = abelian_coordinates(group)
        self.coords.flags.writeable = False
        self.basis = tuple(g for g, _ in pairs)
        self.orders = tuple(o for _, o in pairs)
        self.exponent = self.orders[0] if pairs else 1
        self.rank = len(pairs)
        self._scaled = self._scaled_actions()

    def _check_action(self, act: np.ndarray) -> None:
        A, G = self.group, self.acting_group
        idline = np.arange(A.order)
        T = A.table
        for g in G.elements:
            p = act[g]
            if not np.array_equal(np.sort(p), idline):
                raise NotAHomomorphism(f"action of {g} is not a bijection")
            if not np.array_equal(p[T], T[p[:, None], p[None, :]]):
                raise NotAHomomorphism(f"action of {g} is not an automorphism")
        if not np.array_equal(act[0], idline):
            raise NotAHomomorphism("identity must act trivially")
        # act[gh] against act[g] after act[h], for every (g, h) at once
        bad = act[G.table] != act[np.arange(G.order)[:, None, None], act]
        if bad.any():
            g, h, _ = (int(v) for v in np.argwhere(bad)[0])
            raise NotAHomomorphism(
                f"action is not multiplicative at ({g},{h})")

    def _scaled_actions(self):
        if self.action is None or self.rank == 0:
            return None
        e, k = self.exponent, self.rank
        mats = []
        for g in self.acting_group.elements:
            M = np.zeros((k, k), dtype=np.int64)
            for i, b in enumerate(self.basis):
                co = self.coords[self.action[g, b]]
                for j in range(k):
                    num = int(co[j]) * self.orders[i]
                    if num % self.orders[j]:
                        raise NotAHomomorphism("action does not preserve orders")
                    M[j, i] = num // self.orders[j] % e
            mats.append(M)
        return mats

    @property
    def is_trivial_action(self) -> bool:
        return self.action is None or bool(
            (self.action == np.arange(self.group.order)).all())

    def act(self, g: int, a: int) -> int:
        if self.action is None:
            return a
        return int(self.action[g, a])

    def scaled_action(self, g: int) -> np.ndarray:
        """Matrix of the g-action on scaled coordinates mod the exponent."""
        if self._scaled is None:
            return np.eye(self.rank, dtype=np.int64)
        return self._scaled[g]

    def compatible_with(self, other: "CoefficientModule") -> bool:
        if not self.group.same_table(other.group):
            return False
        if (self.action is None) != (other.action is None):
            return self.is_trivial_action and other.is_trivial_action
        if self.action is None:
            return True
        return (self.acting_group.same_table(other.acting_group)
                and np.array_equal(self.action, other.action))

    def __repr__(self) -> str:
        tag = "trivial" if self.action is None else "with action"
        return f"CoefficientModule({self.group!r}, {tag})"


def trivial_module(A: FiniteGroup) -> CoefficientModule:
    return CoefficientModule(A)


# mu_n modules one process keeps, least recently used first: at most
# DEFAULT_ORDER_BOUND of them, none with n above it
_MU: OrderedDict = OrderedDict()


def mu_module(n: int) -> CoefficientModule:
    """Roots of unity mu_n as coefficients; ids are exponents mod n.

    For n at most DEFAULT_ORDER_BOUND the module is built once and shared
    by later calls with an n of the same type and value, while it stays
    among the DEFAULT_ORDER_BOUND used last.
    """
    # the type is in the key because the group's name spells n out
    return cached(_MU, (type(n), n), lambda: CoefficientModule(cyclic(n)),
                  DEFAULT_ORDER_BOUND,
                  lambda M: M.group.order <= DEFAULT_ORDER_BOUND)


@functools.lru_cache(maxsize=64)
def _degenerate_slots(s: int, n: int) -> np.ndarray:
    """Flat indices of the n-tuples over range(s) that contain the identity.

    One boolean mask over G^n is the only table built: each coordinate is
    an open grid, s cells long.
    """
    hit = np.zeros((s,) * n, dtype=bool)
    for x in np.indices((s,) * n, sparse=True):
        hit |= x == 0
    slots = np.flatnonzero(hit)
    slots.flags.writeable = False
    return slots


@dataclass(frozen=True)
class Cochain:
    """Dense n-cochain; table index runs over G^n with the first argument
    most significant (itertools.product order).

    The table may be given as any sequence of ids, a numpy array included,
    and is kept as a tuple; a read-only int64 copy backs the checks and the
    arithmetic.  normalized claims that every degenerate entry is zero: it
    is checked here (ValueError otherwise) and not kept, and is_normalized
    reads the table.
    """

    degree: int
    group: FiniteGroup
    module: CoefficientModule
    table: tuple[int, ...]
    normalized: InitVar[bool] = False
    _array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, normalized):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        integral = (isinstance(self.table, np.ndarray)
                    and self.table.dtype.kind in "biu")
        try:
            if integral:
                # uint64 ids past 2^63 wrap to negatives, which fail below
                arr = self.table.astype(np.int64)
            else:
                arr = np.fromiter(self.table, dtype=np.int64)
        except OverflowError:
            raise ValueError("table entry is not a coefficient id") from None
        if arr.shape != (self.group.order ** self.degree,):
            raise ValueError(
                f"table has {arr.size} entries, expected "
                f"{self.group.order ** self.degree}")
        table = tuple(arr.tolist())
        # fromiter truncates 1.7 and parses "1": an entry must equal its id
        if (arr.min() < 0 or arr.max() >= self.module.group.order
                or not integral and table != tuple(self.table)):
            raise ValueError("table entry is not a coefficient id")
        arr.flags.writeable = False
        object.__setattr__(self, "_array", arr)
        object.__setattr__(self, "table", table)
        if normalized and not self.is_normalized:
            raise ValueError("flagged normalized but a degenerate entry is nonzero")

    @classmethod
    def zero(cls, group: FiniteGroup, module: CoefficientModule,
             degree: int) -> "Cochain":
        check_cells(group.order, degree, f"the zero degree-{degree} cochain "
                    f"on a group of order {group.order}")
        return cls(degree, group, module,
                   np.zeros(group.order ** degree, dtype=np.int64))

    @classmethod
    def from_function(cls, group: FiniteGroup, module: CoefficientModule,
                      degree: int, fn, normalized: bool = False) -> "Cochain":
        table = tuple(fn(*gs) for gs in
                      itertools.product(range(group.order), repeat=degree))
        return cls(degree, group, module, table, normalized=normalized)

    def index(self, gs) -> int:
        s = self.group.order
        i = 0
        for g in gs:
            i = i * s + g
        return i

    def value(self, *gs) -> int:
        if len(gs) != self.degree:
            raise ValueError(f"expected {self.degree} arguments")
        return self.table[self.index(gs)]

    @property
    def is_zero(self) -> bool:
        return not self._array.any()

    @property
    def is_normalized(self) -> bool:
        return not self._array[
            _degenerate_slots(self.group.order, self.degree)].any()

    def _match(self, other: "Cochain") -> None:
        if (self.degree != other.degree
                or not self.group.same_table(other.group)
                or not self.module.compatible_with(other.module)):
            raise ParentMismatch("cochains live over different parents")

    def _like(self, values: np.ndarray) -> "Cochain":
        return Cochain(self.degree, self.group, self.module, values)

    def __add__(self, other: "Cochain") -> "Cochain":
        self._match(other)
        return self._like(self.module.group.table[self._array, other._array])

    def __neg__(self) -> "Cochain":
        return self._like(self.module.group.inverse[self._array])

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + (-other)

    def scale(self, k: int) -> "Cochain":
        M = self.module
        power = powers(M.group, np.arange(M.group.order), k % M.exponent)
        return self._like(power[self._array])


def random_cochain(group: FiniteGroup, module: CoefficientModule, degree: int,
                   rng, normalized: bool = True) -> Cochain:
    """Uniform random cochain from a random.Random source."""
    s, n = group.order, module.group.order
    table = []
    for gs in itertools.product(range(s), repeat=degree):
        if normalized and 0 in gs:
            table.append(0)
        else:
            table.append(rng.randrange(n))
    return Cochain(degree, group, module, tuple(table), normalized=normalized)


def check_cells(order: int, degree: int, what: str) -> None:
    """BudgetExceeded when a dense table over G^degree, for G of this
    order, is past DEFAULT_ORDER_BOUND^4 cells, the degree-3 cocycle check
    at the subgroup cap; read off the shape before any table exists.

    Past limit.bit_length() factors of at least 2 the table is past the
    limit, so the power is taken only below that degree: a huge degree
    costs neither the power nor its digits in the message.
    """
    limit = DEFAULT_ORDER_BOUND ** 4
    if order > 1 and degree >= limit.bit_length():
        cells = f"{order}^{degree}"
    else:
        cells = order ** degree
        if cells <= limit:
            return
    raise BudgetExceeded(f"{what} has {cells} cells, past the limit {limit}")


def _differential_values(c: Cochain) -> np.ndarray:
    """Flat table of d(c) as an int64 array, in Cochain index order.

    Slots are open index grids over G^(n+1); every lookup is a gather at a
    flat index, into c's table or into A's flattened multiplication table.
    Its cost is |G|^(n+1) cells, each gathered through int64 indices:
    check_cells reads that count before anything is allocated.
    """
    if c.degree > MAX_DEGREE:
        raise DegreeTooHigh(f"differential limited to degree {MAX_DEGREE}")
    G, M = c.group, c.module
    A = M.group
    s, n, nA = G.order, c.degree, A.order
    check_cells(s, n + 1, f"the coboundary of a degree-{n} cochain on "
                f"a group of order {s}")
    mul = A.table.ravel()
    inv = A.inverse
    idx = np.indices((s,) * (n + 1), sparse=True)

    def at(slots):
        flat = 0
        for j, x in enumerate(slots):
            flat = flat + x * s ** (n - 1 - j)
        return c._array[flat]

    acc = at(idx[1:])
    if M.action is not None:
        acc = M.action[idx[0], acc]
    sign = -1
    for i in range(1, n + 1):
        merged = G.table[idx[i - 1], idx[i]]
        term = at(idx[:i - 1] + (merged,) + idx[i + 1:])
        acc = mul[acc * nA + (inv[term] if sign < 0 else term)]
        sign = -sign
    last = at(idx[:n])
    acc = mul[acc * nA + (inv[last] if sign < 0 else last)]
    return np.broadcast_to(acc, (s,) * (n + 1)).ravel()


def differential(c: Cochain) -> Cochain:
    """Bar-resolution differential; the module action applies to the first slot."""
    return Cochain(c.degree + 1, c.group, c.module, _differential_values(c))


def is_cocycle(c: Cochain) -> bool:
    return not _differential_values(c).any()


def _bar_matrix(G: FiniteGroup, module: CoefficientModule, n: int,
                normalized: bool, out: np.ndarray | None = None):
    """Matrix of the degree-n differential on scaled coordinates.

    Rows index (n+1)-tuples, columns index n-tuples, both in lex order over
    range(1, s) when restricted to the normalized subcomplex and range(s)
    otherwise.  Returns (matrix mod e, input tuples, output tuples).  The
    matrix is int64, or written into `out`, a zeroed array of its shape
    whose type holds e + n + 1.
    """
    s, k, e = G.order, module.rank, module.exponent
    lo = 1 if normalized else 0
    rng = range(lo, s)
    ins = list(itertools.product(rng, repeat=n))
    outs = list(itertools.product(rng, repeat=n + 1))
    h = np.array(outs, dtype=np.int64).reshape(len(outs), n + 1)
    place = (s - lo) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    blk = np.arange(k)
    rows = (np.arange(len(outs)) * k)[:, None] + blk
    shape = (len(outs) * k, len(ins) * k)
    D = np.zeros(shape, dtype=np.int64) if out is None else out

    def add(keep, tuples, blocks):
        """D[block(o, tuples[o])] += blocks[o] for the output tuples kept."""
        cols = (((tuples - lo) @ place) * k)[:, None] + blk
        np.add.at(D, (rows[keep][:, :, None], cols[:, None, :]), blocks)

    everything = slice(None)
    # blocks of D's own type keep np.add.at on its fast path
    acts = np.stack([module.scaled_action(g) for g in range(s)])
    acts = acts.astype(D.dtype, copy=False)
    add(everything, h[:, 1:], acts[h[:, 0]])
    eye = np.eye(k, dtype=D.dtype)
    sign = -1
    for i in range(1, n + 1):
        merged = h.copy()
        merged[:, i] = G.table[h[:, i - 1], h[:, i]]
        merged = np.delete(merged, i - 1, axis=1)
        keep = merged[:, i - 1] != 0 if normalized else everything
        add(keep, merged[keep], sign * eye)
        sign = -sign
    add(everything, h[:, :n], sign * eye)
    # mod 2^k the residue is the low k bits, as in exact._Reduction._sym
    if e & (e - 1):
        D %= e
    else:
        D &= e - 1
    return D, ins, outs


def _bar_system(G: FiniteGroup, module: CoefficientModule, n: int,
                normalized: bool):
    """[d_n; constraint rows] mod e in one array, and d_n's input tuples.

    The constraint rows force each scaled coordinate into its (e/m_j) Z
    sublattice.  The array is built at the width that a reduction mod e
    of its shape sweeps in, with entries in [0, e), so the reduction can
    take it over in place (diagonalize_mod's overwrite).

    BudgetExceeded past BAR_SYSTEM_BYTES, read off the shape before any
    allocation: the array, V (num_vars^2 cells) and an image block of one
    column per input of d_{n-1}, all at the width.
    """
    k, e = module.rank, module.exponent
    size = G.order - (1 if normalized else 0)
    num_vars = size ** n * k
    orders = np.resize(np.array(module.orders, dtype=np.int64), num_vars)
    cols = np.flatnonzero(orders < e)
    rows = size ** (n + 1) * k
    shape = (rows + cols.size, num_vars)
    dtype = _sweep_dtype(e, shape)
    image = size ** (n - 1) * k if n else 0
    cost = (shape[0] + num_vars + image) * num_vars * dtype.itemsize
    if cost > BAR_SYSTEM_BYTES:
        raise BudgetExceeded(
            f"the degree-{n} bar system takes {cost} bytes with its "
            f"transforms, past the limit {BAR_SYSTEM_BYTES}")
    system = np.zeros(shape, dtype=dtype)
    ins = _bar_matrix(G, module, n, normalized, out=system[:rows])[1]
    system[rows + np.arange(cols.size), cols] = orders[cols]
    return system, ins


def _image_columns(G: FiniteGroup, module: CoefficientModule, n: int,
                   num_vars: int) -> np.ndarray:
    """The nonzero columns of d_{n-1} on the normalized subcomplex, scaled
    into the lattice: they span the normalized n-coboundaries, in the
    num_vars scaled coordinates of n-cochains."""
    if n == 0:
        return np.zeros((num_vars, 0), dtype=np.int64)
    D_prev = _bar_matrix(G, module, n - 1, normalized=True)[0]
    e = module.exponent
    scale = e // np.resize(np.array(module.orders, dtype=np.int64),
                           D_prev.shape[1])
    W = D_prev * scale % e
    return W[:, W.any(axis=0)]


def _scaled_vector(c: Cochain) -> np.ndarray:
    """Scaled coordinates of every value of a cochain, in table order."""
    M = c.module
    scale = M.exponent // np.array(M.orders, dtype=np.int64)
    return (M.coords[c._array] * scale % M.exponent).ravel()


def _unscale(module: CoefficientModule, vec: np.ndarray, tuples, G: FiniteGroup,
             degree: int, normalized: bool = True) -> Cochain:
    """Rebuild a dense cochain from scaled coordinates on the given tuples."""
    e, k, s, n = module.exponent, module.rank, G.order, module.group.order
    scale = e // np.array(module.orders, dtype=np.int64)
    x = np.asarray(vec, dtype=np.int64).reshape(len(tuples), k) % e
    if (x % scale).any():
        raise NotACocycle("scaled vector leaves the coefficient lattice")
    # coordinates are digits in the mixed radix of the orders, last fastest
    place = np.array([prod(module.orders[j + 1:]) for j in range(k)],
                     dtype=np.int64)
    element_at = np.empty(n, dtype=np.int64)
    element_at[module.coords @ place] = np.arange(n)
    slots = np.array(tuples, dtype=np.int64).reshape(len(tuples), degree)
    table = np.zeros(s ** degree, dtype=np.int64)
    flat = slots @ s ** np.arange(degree - 1, -1, -1)
    table[flat] = element_at[(x // scale) @ place]
    return Cochain(degree, G, module, table, normalized=normalized)


def _check_parents(G: FiniteGroup, module: CoefficientModule) -> None:
    if module.action is not None and not module.acting_group.same_table(G):
        raise ParentMismatch("module action belongs to a different group")


def is_coboundary(c: Cochain) -> Cochain | None:
    """Witness w with d(w) = c, or None; solves linear congruences exactly."""
    if c.degree < 1:
        raise ValueError("coboundary testing needs degree >= 1")
    G, M = c.group, c.module
    n = c.degree
    if M.rank == 0:
        return Cochain.zero(G, M, n - 1)
    system, ins = _bar_system(G, M, n - 1, normalized=False)
    rhs = np.zeros(system.shape[0], dtype=np.int64)
    b = _scaled_vector(c)
    rhs[:b.size] = b
    sol = solve_congruences(system, rhs, M.exponent)
    if sol is None:
        return None
    witness = _unscale(M, np.array(sol.particular, dtype=np.int64), ins, G,
                       n - 1, normalized=False)
    if differential(witness) != c:
        raise NotACocycle("congruence witness failed exact verification")
    return witness


@dataclass(frozen=True, eq=False)
class CohomologyGroup:
    """H^n(G, A): invariant factors in ascending divisibility order plus one
    representative normalized cocycle per factor."""

    group: FiniteGroup
    degree: int
    module: CoefficientModule
    invariant_factors: tuple[int, ...]
    representatives: tuple[Cochain, ...]

    @property
    def order(self) -> int:
        return prod(self.invariant_factors, start=1)

    @property
    def class_count(self) -> int:
        return self.order

    def class_representative(self, index: int) -> Cochain:
        """index-th class, mixed-radix over the factors (first most significant)."""
        return class_combination(self.group, self.module, self.degree,
                                 self.invariant_factors,
                                 self.representatives.__getitem__, index)

    def classes(self):
        for i in range(self.order):
            yield self.class_representative(i)


def class_combination(G: FiniteGroup, module: CoefficientModule, degree: int,
                      factors: tuple[int, ...], representative,
                      index: int) -> Cochain:
    """The index-th class of a group with these invariant factors.

    The index is read mixed-radix over the factors, first most
    significant, and the class is the sum of t_j * representative(j) over
    its digits t_j.  representative is called only for nonzero digits.
    """
    order = prod(factors, start=1)
    if not 0 <= index < order:
        raise ValueError(f"class index {index} out of range 0..{order - 1}")
    digits = []
    for f in reversed(factors):
        digits.append(index % f)
        index //= f
    digits.reverse()
    acc = Cochain.zero(G, module, degree)
    for j, t in enumerate(digits):
        if t:
            acc = acc + representative(j).scale(t)
    return acc


def _trivial_cohomology(G, degree, module) -> CohomologyGroup:
    return CohomologyGroup(G, degree, module, (), ())


def cohomology_group(G: FiniteGroup, degree: int, module: CoefficientModule,
                     budget: int = DEFAULT_BUDGET) -> CohomologyGroup:
    """H^degree(G, module) on the normalized subcomplex, degree <= 3.

    Kernel and image lattices are handled mod the coefficient exponent; the
    quotient is an exact Smith normal form, so the invariant factors satisfy
    f_1 | f_2 | ... and the representatives realize independent generators.
    """
    if not 0 <= degree <= MAX_DEGREE:
        raise DegreeTooHigh(f"cohomology limited to degrees 0..{MAX_DEGREE}")
    _check_parents(G, module)
    s = G.order
    nA = module.group.order
    if s ** degree * max(log2(nA), 1.0) > budget:
        raise BudgetExceeded(
            f"|G|^n log2|A| = {s ** degree * max(log2(nA), 1.0):.3g} "
            f"exceeds budget {budget}")
    k, e = module.rank, module.exponent
    num_vars = (s - 1) ** degree * k
    if k == 0 or num_vars == 0:
        return _trivial_cohomology(G, degree, module)

    # the reduction carries the image of d_{n-1} into y = Vinv x
    # coordinates, Y = Vinv W, without forming Vinv; it reduces the
    # stacked system where it lies, which nothing reads after
    stacked, ins = _bar_system(G, module, degree, normalized=True)
    W = _image_columns(G, module, degree, stacked.shape[1])
    diag, V, Y = diagonalize_mod(stacked, e, image=W, overwrite=True)
    cocycles = _Lattice(diag, V, e)
    kernel, step, orders = cocycles.kernel, cocycles.step, cocycles.orders
    if not kernel.any():
        return _trivial_cohomology(G, degree, module)

    # every image column must sit on each column's step; on the kernel
    # columns, y / step are its kernel-generator coordinates
    if (Y % step[:, None]).any():
        raise NotACocycle("image vector escapes the cocycle kernel")
    tau = Y[kernel] // step[kernel, None]
    if tau.shape[1]:
        # the distinct columns, sorted; asking for return_index keeps
        # np.unique off the path that imports numpy.ma
        tau = np.unique(tau, axis=1, return_index=True)[0]

    relations = _smith(np.hstack([tau, np.diag(orders)]), want_uinv=True)
    factors, reps = [], []
    for i, d in enumerate(relations.diagonal()):
        if d <= 1:
            continue
        # Uinv holds Python ints when the Smith form left int64
        u = (relations.uinv[:, i] % orders).astype(np.int64)
        vec = _matvec_mod(cocycles.basis, u, e)
        rep = _unscale(module, vec, ins, G, degree)
        if not is_cocycle(rep):
            raise NotACocycle("representative failed the cocycle check")
        factors.append(int(d))
        reps.append(rep)
    return CohomologyGroup(G, degree, module, tuple(factors), tuple(reps))


def pushforward(c: Cochain, f: GroupHom,
                target: CoefficientModule | None = None) -> Cochain:
    """Apply a coefficient homomorphism entrywise."""
    M = c.module
    if not f.source.same_table(M.group):
        raise NotAHomomorphism("map domain does not match the coefficients")
    if target is None:
        target = trivial_module(f.target)
    elif not target.group.same_table(f.target):
        raise NotAHomomorphism("map codomain does not match the target module")
    # actions must intertwine: f(g.a) = g.f(a)
    if not (M.is_trivial_action and target.is_trivial_action):
        if target.action is not None and not target.acting_group.same_table(c.group):
            raise ParentMismatch("target action belongs to a different group")
        for g in c.group.elements:
            for a in M.group.elements:
                if f(M.act(g, a)) != target.act(g, f(a)):
                    raise NotAHomomorphism(
                        f"map is not action-equivariant at ({g},{a})")
    table = tuple(f(x) for x in c.table)
    return Cochain(c.degree, c.group, target, table)


def count_splittings(module: CoefficientModule, G: FiniteGroup,
                     omega: Cochain) -> int:
    """Number of splittings of the central extension classified by omega.

    Zero when the class is nontrivial; otherwise sections form a torsor over
    Hom(G, A), which is counted by brute force over generators.
    """
    if not module.is_trivial_action:
        raise NonTrivialAction("splitting count implemented for trivial actions")
    if omega.degree != 2 or not omega.group.same_table(G) \
            or not omega.module.compatible_with(module):
        raise ParentMismatch("omega must be a 2-cochain over (G, module)")
    if not is_cocycle(omega):
        raise NotACocycle("omega is not a 2-cocycle")
    if module.group.order == 1:
        return 1
    if is_coboundary(omega) is None:
        return 0
    return count_homs_to_abelian(G, module.group)
