"""Exact integer linear algebra: roots of unity, Smith normal form, congruences.

Matrices are plain numpy integer arrays (rows x cols).  All reductions are
exact and run on one engine, _Reduction, over Z and Z/N.  Over Z the arrays
are int64 while _fits_int64 allows, else Python ints (object dtype).  Mod N
they take the narrowest signed type (int8, int16, int32 or int64) whose
max is at least N + (N//2)^2, the most one sweep can reach; past int64,
_fits_int64 picks Python ints there too.  Roots of unity are stored as
exponents modulo a fixed N and never touch floating point.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import inf, prod

import numpy as np

# the signed widths of a modular sweep, narrowest first, with their max
_WIDTHS = tuple((np.dtype(t), int(np.iinfo(t).max))
                for t in (np.int8, np.int16, np.int32, np.int64))

# rows per slice of the pivot search; any height gives the same pivot
_PIVOT_CHUNK = 64

# lattice points per array pass of CongruenceSolution.enumerate
_ENUM_BLOCK = 1024


@dataclass(frozen=True)
class UnityExponent:
    """An N-th root of unity, stored as an exponent modulo N."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        object.__setattr__(self, "value", self.value % self.modulus)

    @classmethod
    def one(cls, modulus: int) -> "UnityExponent":
        return cls(0, modulus)

    def _check(self, other: "UnityExponent") -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"mixed moduli {self.modulus} and {other.modulus}; lift first"
            )

    def __mul__(self, other: "UnityExponent") -> "UnityExponent":
        self._check(other)
        return UnityExponent(self.value + other.value, self.modulus)

    def inverse(self) -> "UnityExponent":
        return UnityExponent(-self.value, self.modulus)

    def __pow__(self, k: int) -> "UnityExponent":
        return UnityExponent(self.value * k, self.modulus)

    @property
    def is_identity(self) -> bool:
        return self.value == 0

    def lift(self, new_modulus: int) -> "UnityExponent":
        """Rewrite as a root of unity of order dividing new_modulus."""
        if new_modulus % self.modulus:
            raise ValueError(f"{self.modulus} does not divide {new_modulus}")
        return UnityExponent(self.value * (new_modulus // self.modulus), new_modulus)

    def __str__(self) -> str:
        return f"zeta_{self.modulus}^{self.value}"


def _wide(x: np.ndarray) -> np.ndarray:
    """x in int64, or as it is in Python ints: a dot product with it is
    summed there whatever the width of the other factor."""
    return x if x.dtype == object else x.astype(np.int64)


def _magnitude(arr: np.ndarray) -> int:
    """The largest |entry| of an integer array, 0 when it is empty."""
    return int(np.abs(arr).max()) if arr.size else 0


def as_int_matrix(data) -> np.ndarray:
    """Coerce to a 2-D integer array, rejecting anything non-integral.

    An integer array narrower than 64 bits, or already int64, is returned
    as it is, not copied; uint64 becomes int64, or Python ints once an
    entry passes the int64 max.
    """
    arr = np.asarray(data)
    if arr.ndim != 2:
        raise ValueError(f"expected 2-D matrix, got shape {arr.shape}")
    if arr.dtype == object:
        return arr
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"expected integer entries, got dtype {arr.dtype}")
    if arr.dtype.itemsize < 8:
        return arr
    if arr.dtype.kind == "u" and arr.size and arr.max() >> 63:
        return arr.astype(object)
    return arr.astype(np.int64, copy=False)


def _fits_int64(terms: int, factor: int) -> bool:
    """Whether `terms` products of ints up to `factor`, summed, fit int64."""
    return terms * factor * factor < 1 << 63


def _residue_dtype(modulus: int) -> np.dtype:
    """int64 while it holds N, and so every residue mod N; Python ints
    past that."""
    return np.dtype(object if modulus >> 63 else np.int64)


def _sweep_dtype(modulus: int, shape) -> np.dtype:
    """The dtype of a reduction mod N of a matrix of this shape.

    A sweep subtracts one product of two representatives, each at most
    N // 2 in magnitude, from a representative, and _sym then adds
    (N - 1) // 2: no entry passes N + (N//2)^2.  The narrowest signed
    width whose max reaches that holds every sweep.  The Uinv and Vinv
    dot products sum up to max(m, n) such products in int64, so past
    _fits_int64 every array takes Python ints.
    """
    if not _fits_int64(max(shape) + 2, modulus // 2 + 1):
        return np.dtype(object)
    bound = modulus + (modulus // 2) ** 2
    return next(dtype for dtype, top in _WIDTHS if top >= bound)


def _swap(arr: np.ndarray, i: int, j: int) -> None:
    """Swap arr[i] and arr[j] in place through basic slices: a column
    swap passes a .T view, which walks each column once."""
    tmp = arr[i].copy()
    arr[i] = arr[j]
    arr[j] = tmp


def _keys(block: np.ndarray):
    """The pivot-search keys of block, |x| - 1, and the key of a zero.

    At a fixed width the keys are viewed unsigned, so a zero's key wraps
    to that type's max; in Python ints a zero's key is +inf.  Either way
    one argmin finds the first smallest nonzero magnitude.
    """
    keys = np.abs(block)
    keys -= 1
    if keys.dtype == object:
        keys[keys == -1] = inf
        return keys, inf
    return keys.view(f"u{keys.itemsize}"), (1 << 8 * keys.itemsize) - 1


def _residues(x, modulus: int, dtype: np.dtype) -> np.ndarray:
    """x mod N as a new C-contiguous array of the given dtype, entries in
    [0, N), whatever the layout of x.

    The remainder is taken in an integer type holding both x and N and
    cast buffer by buffer into the result, its one allocation.  Where no
    integer type holds both, it is taken in Python ints.
    """
    x = np.asarray(x)
    if x.dtype == dtype:
        # one remainder in x's own type, such as an int64 b already reduced
        return np.remainder(x, modulus if dtype == object
                            else dtype.type(modulus), order="C")
    loop = np.promote_types(x.dtype, dtype)
    if loop.kind not in "iu":
        # object, or uint64 beside a signed type, which promotes to float64
        out = x.astype(object, order="C")
        out %= modulus
        return out.astype(dtype, copy=False)
    out = np.empty(x.shape, dtype)
    np.remainder(x, loop.type(modulus), out=out, casting="unsafe")
    return out


class _Reduction:
    """In-place diagonalization workspace with optional transform tracking.

    Row operations accumulate Uinv and the carried columns (updated in
    place when already in the working dtype), column operations V and
    Vinv; want_u carries the identity, so the carried columns become U.
    With ``mod`` set, every array is kept reduced to symmetric
    representatives mod N; the transforms then only make sense modulo N,
    which is all the congruence solvers need.

    Mod N, a and carry may hold any integers: each is reduced into one new
    array of _sweep_dtype's width, the narrowest signed type that holds a
    sweep, or Python ints past int64.  With overwrite set, an a that
    _sym_holds for is taken as it is and reduced in place instead, so the
    caller's array becomes the workspace.  Over Z, a sweep adds at most
    max(m, n) + 2 products of entries of magnitude w to an entry (Uinv and
    Vinv take dot products): the arrays are int64 while _fits_int64 allows
    that, else Python ints, and _guard widens every array in place once w
    outgrows the bound; the exact int64 steps before make that equal to a
    reduction in Python ints throughout.

    Vinv's row operations apply unchanged to any n-row block: mod N, an
    n x w image takes want_vinv's place, so the reduction starts from it
    in place of the identity and carries Vinv @ image without forming Vinv.

    Every operation on Uinv and V moves whole columns, so both are kept
    column-major: their columns are contiguous, and V's column sweep is a
    row sweep of the C-contiguous V.T (see _axpy).  The matrix and every
    other array are C-contiguous, and _guard's widening keeps each layout.
    """

    def __init__(self, a, mod=None, want_u=False, want_uinv=False,
                 want_v=False, want_vinv=False, carry=None, image=None,
                 overwrite=False):
        self.mod = mod
        m, n = np.shape(a)
        self._terms = max(m, n) + 2
        if mod is None:
            fits = _fits_int64(self._terms, _magnitude(np.asarray(a)) + 1)
            dtype = np.dtype(np.int64 if fits else object)
            self.a = np.array(a, dtype=dtype, order="C")
            if carry is not None:
                carry = np.ascontiguousarray(carry, dtype)
        else:
            dtype = _sweep_dtype(mod, (m, n))
            # _sym's scalars, at the width: numpy range-checks a Python int
            # against a narrow array on every operation.  Mod 2^k the
            # residue is the low k bits, a mask that is exact in two's
            # complement and in Python ints alike
            scalar = int if dtype == object else dtype.type
            self._half = scalar((mod - 1) // 2)
            if mod & (mod - 1):
                self._reduce, self._by = np.remainder, scalar(mod)
            else:
                self._reduce, self._by = np.bitwise_and, scalar(mod - 1)
            owned = overwrite and self._sym_holds(a, dtype)
            self.a = a if owned else _residues(a, mod, dtype)
            carry, image = (None if x is None else _residues(x, mod, dtype)
                            for x in (carry, image))
        self.uinv = np.eye(m, dtype=dtype, order="F") if want_uinv else None
        self.v = np.eye(n, dtype=dtype, order="F") if want_v else None
        self.vinv = np.eye(n, dtype=dtype) if want_vinv else image
        self.carry = np.eye(m, dtype=dtype) if want_u else carry
        self._reduce_all()

    def _tracked(self) -> dict:
        names = ("a", "uinv", "v", "vinv", "carry")
        return {k: v for k in names if (v := getattr(self, k)) is not None}

    # -- representative handling ------------------------------------------

    def _sym(self, arr):
        if self.mod is None or arr is None or arr.size == 0:
            return arr
        # representatives in [-(N-1)//2, N//2]: N/2 sits on the positive side
        # so making a pivot positive is stable under re-reduction
        arr += self._half
        self._reduce(arr, self._by, out=arr)
        arr -= self._half
        return arr

    def _sym_holds(self, a, dtype) -> bool:
        """Whether _sym alone reduces a where it lies: a is writeable and
        C-contiguous at the width, and each entry x keeps x + (N-1)//2
        within it, or the reduction is a mask, which a wrap past the width
        cannot change, or the width is Python ints, which never wrap."""
        if not (isinstance(a, np.ndarray) and a.dtype == dtype
                and a.flags.c_contiguous and a.flags.writeable):
            return False
        if dtype == object or self._reduce is np.bitwise_and or not a.size:
            return True
        return int(a.max()) <= np.iinfo(dtype).max - self._half

    def _reduce_all(self):
        for arr in self._tracked().values():
            self._sym(arr)

    def _guard(self):
        if self.mod is not None or self.a.dtype == object:
            return
        tracked = self._tracked()
        if not _fits_int64(self._terms,
                           max(map(_magnitude, tracked.values())) + 1):
            for name, arr in tracked.items():
                setattr(self, name, arr.astype(object))

    # -- elementary operations --------------------------------------------

    def swap_rows(self, i, j):
        if i == j:
            return
        _swap(self.a, i, j)
        if self.uinv is not None:
            _swap(self.uinv.T, i, j)
        if self.carry is not None:
            _swap(self.carry, i, j)

    def swap_cols(self, i, j):
        if i == j:
            return
        _swap(self.a.T, i, j)
        if self.v is not None:
            _swap(self.v.T, i, j)
        if self.vinv is not None:
            _swap(self.vinv, i, j)

    def add_cols(self, j, q, p):
        """col j -= q * col p."""
        self.a[:, j] -= q * self.a[:, p]
        self._sym(self.a[:, j])
        if self.v is not None:
            self.v[:, j] -= q * self.v[:, p]
            self._sym(self.v[:, j])
        if self.vinv is not None:
            self.vinv[p] += q * self.vinv[j]
            self._sym(self.vinv[p])

    def _add_dot(self, dst, dot):
        """dst += dot, re-reduced.  The dot was summed in int64 (or Python
        ints) by _wide; the sum is reduced there and only then stored, as
        an int64 array added in place into a narrow one would wrap under
        numpy's same_kind casting."""
        dst[...] = self._sym(dot + dst)

    def _axpy(self, arr, rows, q, src, c0=0):
        """arr[rows, c0:] -= q ⊗ src, re-reduced, touching only columns where
        src != 0: every other entry would subtract zero, and all arrays are
        kept reduced, so re-reducing it would change nothing.

        arr is C-contiguous, so the cells are gathered and scattered
        through flat row-major indices into its ravelled view, a view and
        not a copy: two 1-D passes, where a 2-D fancy index walks rows
        and columns apart.
        """
        cols = src.nonzero()[0]
        flat = np.add.outer(rows * arr.shape[1] + c0, cols)
        cells = arr.ravel()
        block = cells[flat]
        block -= np.multiply.outer(q, src[cols])
        cells[flat] = self._sym(block)

    def bulk_row_clear(self, t, rows, q):
        """rows -= q ⊗ row t, one vectorized elimination sweep.

        rows are the rows below t whose quotient q is nonzero, and in them
        only the columns where row t is nonzero are touched (see _axpy).
        Only called mid-pivot, when rows below t are zero left of column
        t, so the matrix update stays inside the active block.
        """
        self._axpy(self.a, rows, q, self.a[t, t:], t)
        if self.uinv is not None:
            self._add_dot(self.uinv[:, t], self.uinv[:, rows].dot(_wide(q)))
        if self.carry is not None:
            self._axpy(self.carry, rows, q, self.carry[t])

    def bulk_col_clear(self, t, cols, q):
        """cols -= col t ⊗ q, touching only row t of the matrix.

        Only called mid-pivot, when column t is zero off the pivot, with
        cols the columns past t whose nearest quotient q of row t by the
        pivot is nonzero: the matrix changes only in row t, which keeps the
        remainders.  After a unit pivot the quotients are the entries
        themselves, so zeros are written without a sweep.  V and Vinv
        change only in those columns (rows), and V only in the rows where
        its column t is nonzero (see _axpy).
        """
        row = self.a[t]
        piv = row.item(t)
        row[cols] = 0 if piv == 1 else self._sym(row[cols] - piv * q)
        if self.v is not None:
            self._axpy(self.v.T, cols, q, self.v[:, t])
        if self.vinv is not None:
            self._add_dot(self.vinv[t], _wide(q).dot(self.vinv[cols]))

    def negate_row(self, i):
        self.a[i] = -self.a[i]
        self._sym(self.a[i])
        if self.uinv is not None:
            self.uinv[:, i] = -self.uinv[:, i]
            self._sym(self.uinv[:, i])
        if self.carry is not None:
            self.carry[i] = -self.carry[i]
            self._sym(self.carry[i])

    # -- diagonalization ---------------------------------------------------

    def _pick_pivot(self, t):
        """First smallest nonzero |entry| of the trailing block, row-major.

        The search scans _PIVOT_CHUNK rows at a time.  Each chunk's argmin
        is its first smallest key, and a later chunk replaces the best only
        with a strictly smaller key, so the chunk height cannot change the
        pivot.  The best starts at the key of a zero, so a zero never wins.
        A unit's key is 0, so the scan stops at the first chunk holding a
        unit, and a search whose first unit lies d rows down reads about d
        rows.  None when the block is zero.
        """
        m, n = self.a.shape
        best = where = None
        for r0 in range(t, m, _PIVOT_CHUNK):
            keys, zero = _keys(self.a[r0:r0 + _PIVOT_CHUNK, t:])
            k = int(keys.argmin())
            key = keys.item(k)
            if key < (zero if where is None else best):
                best, where = key, (r0 + k // (n - t), t + k % (n - t))
                if key == 0:
                    break
        return where

    def _min_nonzero(self, vec):
        return int(_keys(vec)[0].argmin())

    def _clear_pivot(self, t):
        """Zero out row t and column t beyond the pivot, growing gcds as needed.

        A unit pivot divides every entry: the nearest quotients are the
        column and the row themselves, and each sweep leaves exact zeros,
        so it skips the division and the re-check.
        """
        while True:
            self._guard()
            piv = int(self.a[t, t])
            if piv < 0:
                self.negate_row(t)
                piv = -piv
            unit = piv == 1
            col = self.a[t + 1:, t]
            at = col.nonzero()[0]
            if at.size:
                rows, q = self._quotients(col, at, piv)
                rows += t + 1
                self.bulk_row_clear(t, rows, q)
                if not unit and np.count_nonzero(col):
                    self.swap_rows(t, t + 1 + self._min_nonzero(col))
                    continue
            row = self.a[t, t + 1:]
            at = row.nonzero()[0]
            if at.size:
                cols, q = self._quotients(row, at, piv)
                cols += t + 1
                self.bulk_col_clear(t, cols, q)
                if not unit and np.count_nonzero(row):
                    self.swap_cols(t, t + 1 + self._min_nonzero(row))
                    continue
            break

    @staticmethod
    def _quotients(vec, at, piv):
        """The nearest quotients by the pivot of vec's nonzero entries at
        offsets at, kept where nonzero, with their offsets: for a unit
        pivot, the entries themselves.  Residues end up at most piv/2."""
        q = vec[at]
        if piv == 1:
            return at, q
        q += piv // 2
        q //= piv
        keep = q.nonzero()[0]
        return at[keep], q[keep]

    def diagonalize(self, start=0):
        """Pivot at start, start + 1, ... until the trailing block is zero.

        _clear_pivot leaves each pivot positive: it negates the pivot row
        before each pass, and no sweep touches the pivot.  It also guards
        the width before each pass, so one guard after the last pivot
        leaves every array wide enough for whatever comes next.
        """
        m, n = self.a.shape
        for t in range(start, min(m, n)):
            loc = self._pick_pivot(t)
            if loc is None:
                break
            self.swap_rows(t, loc[0])
            self.swap_cols(t, loc[1])
            self._clear_pivot(t)
        self._guard()
        return self.diagonal()

    def diagonal(self):
        m, n = self.a.shape
        return [int(self.a[t, t]) for t in range(min(m, n))]

    def enforce_chain(self):
        """Make d_i | d_{i+1} along the diagonal (exact mode).

        The pivot loop leaves the zeros of the diagonal at its tail.  At
        the first d_i that does not divide d_{i+1}, column i + 1 is added
        into column i, and the loop resumes at i, which leaves a smaller
        d_i there.
        """
        while True:
            d = self.diagonal()
            bad = next((i for i in range(len(d) - 1)
                        if d[i] and d[i + 1] % d[i]), None)
            if bad is None:
                return
            self.add_cols(bad, -1, bad + 1)
            self.diagonalize(bad)


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == diag(diagonal), with U, V unimodular.

    Uinv and Vinv are the exact integer inverses of U and V.
    """

    diagonal: tuple[int, ...]
    U: np.ndarray
    V: np.ndarray
    Uinv: np.ndarray
    Vinv: np.ndarray

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d != 0)

    def verify(self, A) -> bool:
        A = as_int_matrix(A)
        m, n = A.shape
        D = np.zeros((m, n), dtype=object)
        for i, d in enumerate(self.diagonal):
            D[i, i] = d
        if not np.array_equal(self.U.astype(object) @ A.astype(object) @ self.V.astype(object), D):
            return False
        if not np.array_equal(self.U.astype(object) @ self.Uinv.astype(object),
                              np.eye(m, dtype=object)):
            return False
        return np.array_equal(self.V.astype(object) @ self.Vinv.astype(object),
                              np.eye(n, dtype=object))


def smith_normal_form(A) -> SmithDecomposition:
    """Exact Smith normal form over Z with both transforms and their inverses.

    Diagonal entries are nonnegative and satisfy d_1 | d_2 | ... ; pivoting
    always takes a smallest-magnitude nonzero entry (earliest position on
    ties), so the reduction is deterministic.
    """
    A = as_int_matrix(A)
    red = _smith(A, want_u=True, want_uinv=True, want_v=True, want_vinv=True)
    return SmithDecomposition(tuple(red.diagonal()), red.carry, red.v,
                              red.uinv, red.vinv)


def _smith(A, **want) -> _Reduction:
    """A reduced to Smith form over Z, tracking the transforms asked for."""
    red = _Reduction(A, **want)
    red.diagonalize()
    red.enforce_chain()
    return red


@dataclass(frozen=True)
class CongruenceSolution:
    """All solutions of A x = b (mod N): particular + kernel generators.

    The solution set is exactly ``particular + sum_j t_j * gen_j`` with
    t_j ranging over range(order_j); distinct tuples give distinct vectors.
    """

    modulus: int
    particular: tuple[int, ...]
    generators: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def count(self) -> int:
        return prod((order for _, order in self.generators), start=1)

    def enumerate(self):
        """Every solution as a tuple of residues, in the order of
        itertools.product over the generators' ranges.

        One itertools.product stream runs over those ranges, with a
        trailing 1 for the particular solution, and is cut into blocks of
        _ENUM_BLOCK coefficient rows; each block multiplies the generator
        rows in one _matvec_mod.
        """
        N = self.modulus
        k = len(self.generators)
        rows = [g for g, _ in self.generators] + [self.particular]
        basis = np.array(rows, dtype=_residue_dtype(N)).reshape(k + 1, -1) % N
        coefs = itertools.product(
            *(range(order) for _, order in self.generators), (1,))
        while block := list(itertools.islice(coefs, _ENUM_BLOCK)):
            for x in _matvec_mod(np.array(block, dtype=np.int64), basis,
                                 N).tolist():
                yield tuple(x)


def _matvec_mod(M: np.ndarray, v: np.ndarray, modulus: int) -> np.ndarray:
    """M @ v reduced mod N, for entries in [0, N): in int64 while every dot
    product fits, in Python ints beyond, and returned in _residue_dtype."""
    if _fits_int64(M.shape[1], modulus - 1):
        return M @ v % modulus
    out = M.astype(object) @ v.astype(object) % modulus
    return out.astype(_residue_dtype(modulus), copy=False)


class _Lattice:
    """The solutions of D y = c (mod N), pulled back through x = V y.

    D is the diagonal of a reduction U A V = D mod N and V its column
    transform; this is the tail both solvers share, and cohomology_group
    reads its kernel off it too.  The pivots are the leading nonzero
    entries of D: each constrains one y_j, and it solves when gcd(d_j, N)
    divides c_j.  Column j, with d_j zero past the pivots, leaves y_j free
    up to multiples of its step s_j = N / gcd(d_j, N); when s_j < N it
    carries the kernel generator V[:, j] s_j of order N / s_j.  All of it
    depends on A alone, so it is read off once here, in _residue_dtype:
    exact in Python ints once N passes int64.  V comes reduced mod N.  Its
    pivot columns are converted to dtype, by default _residue_dtype too,
    when particular first needs them.
    """

    def __init__(self, d, V: np.ndarray, modulus: int, dtype=None):
        d = [x % modulus for x in d]
        rank = next((i for i, x in enumerate(d) if not x), len(d))
        wide = _residue_dtype(modulus)
        g = np.gcd(np.array(d[:rank] + [0] * (V.shape[1] - rank),
                            dtype=wide), modulus)
        self.modulus = modulus
        self.rank = rank
        self.step = modulus // g
        # the columns that carry a kernel generator, as a mask
        self.kernel = g > 1
        self.orders = g[self.kernel]
        # v s = (v mod N/s) s (mod N), and the right side stays below N
        self.basis = V[:, self.kernel] % self.orders * self.step[self.kernel]
        self._g = g[:rank]
        self._inv = np.array([pow(x // gi, -1, modulus // gi)
                              for x, gi in zip(d, self._g.tolist())],
                             dtype=wide)
        # only the pivot columns enter a particular solution
        self._pivot_columns = V[:, :rank], wide if dtype is None else dtype

    @functools.cached_property
    def _v(self) -> np.ndarray:
        """V's pivot columns in their dtype, a copy: V itself is let go."""
        columns, dtype = self._pivot_columns
        del self._pivot_columns
        return columns.astype(dtype)

    @functools.cached_property
    def generators(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The kernel generators as (vector, order) pairs, in column order."""
        return tuple(zip(map(tuple, self.basis.T.tolist()),
                         self.orders.tolist()))

    def particular(self, c: np.ndarray) -> np.ndarray | None:
        """x0 = V y0 with y0 solving the pivot rows D y = c, or None.

        c holds the right-hand side's pivot rows, reduced mod N.
        """
        if (c % self._g).any():
            return None
        y0 = c // self._g  # below N, and so is inv
        if not _fits_int64(1, self.modulus):
            y0 = y0.astype(object)
        y0 = y0 * self._inv % self.step[:self.rank]
        return _matvec_mod(self._v, y0, self.modulus)

    def solution(self, x0: np.ndarray) -> CongruenceSolution:
        return CongruenceSolution(self.modulus, tuple(x0.tolist()),
                                  self.generators)


def solve_congruences(A, b, modulus: int) -> CongruenceSolution | None:
    """Solve A x = b over Z/modulus, or return None when infeasible.

    The right-hand side rides along the elimination, so no row transform
    is kept: the cheap choice for one tall system.  CongruenceFactor
    solves many right-hand sides against one matrix.
    """
    A = as_int_matrix(A)
    m = A.shape[0]
    b = np.asarray(b)
    if b.shape != (m,):
        raise ValueError(f"rhs shape {b.shape} does not match {m} rows")
    if modulus < 1:
        raise ValueError("modulus must be positive")
    red = _Reduction(A, mod=modulus, want_v=True, carry=b[:, None])
    lattice = _Lattice(red.diagonalize(), red.v % modulus, modulus)
    c = red.carry[:, 0] % modulus
    # rows past the pivots read 0 = c_i
    if c[lattice.rank:].any():
        return None
    x0 = lattice.particular(c[:lattice.rank])
    return None if x0 is None else lattice.solution(x0)


class CongruenceFactor:
    """A x = b over Z/modulus for one fixed A, factored for any b.

    One reduction U A V = D with U carried as a row transform; only the
    pivot rows of U are kept.  solve(b) reads c = U b on those rows and
    builds the lattice exactly as solve_congruences does, so both return
    equal solutions.  The dropped rows of U would only test feasibility:
    solve tests instead that the particular solution satisfies
    A x0 = b (mod N), which holds exactly when the system is feasible.
    The kept arrays are stored in the smallest unsigned type holding N.
    """

    def __init__(self, A, modulus: int):
        if modulus < 1:
            raise ValueError("modulus must be positive")
        compact = np.min_scalar_type(modulus)
        A = np.asarray(A)
        # an A already reduced into the compact type is kept, not copied
        if (A.ndim != 2 or A.dtype != compact
                or (A.size and A.max() >= modulus)):
            A = _residues(as_int_matrix(A), modulus, compact)
        red = _Reduction(A, mod=modulus, want_u=True, want_v=True)
        self._lattice = _Lattice(red.diagonalize(), red.v % modulus, modulus,
                                 compact)
        self._a = A
        self._u = (red.carry[:self._lattice.rank] % modulus).astype(compact)

    def solve(self, b) -> CongruenceSolution | None:
        """Every x with A x = b (mod N), or None when there is none."""
        N = self._lattice.modulus
        b = np.asarray(b)
        if b.shape != (self._a.shape[0],):
            raise ValueError(
                f"rhs shape {b.shape} does not match {self._a.shape[0]} rows")
        b = _residues(b, N, _residue_dtype(N))
        x0 = self._lattice.particular(_matvec_mod(self._u, b, N))
        if x0 is None or (_matvec_mod(self._a, x0, N) != b).any():
            return None
        return self._lattice.solution(x0)


def diagonalize_mod(A, modulus: int, image=None, overwrite=False):
    """Diagonal form of A over Z/modulus with column transform and its inverse.

    Returns (diagonal, V, Vinv) such that x solves A x = 0 (mod N) exactly
    when x = V y with d_j y_j = 0 (mod N).  No divisibility chain is enforced;
    only gcd(d_j, N) matters downstream.  Given an n x w image, the third
    value is Vinv @ image (mod N) instead, and Vinv itself is never built.

    V and the third value come back at the width _sweep_dtype picks.  A is
    not changed: the reduction works on one copy at that width.  With
    overwrite=True, as scipy's overwrite_a, an A that is C-contiguous at
    that width is reduced where it lies when its entries let _sym reduce
    them in place (see _Reduction._sym_holds), and holds the reduced
    matrix afterwards; any other A is copied as without it.
    """
    red = _Reduction(as_int_matrix(A), mod=modulus, want_v=True,
                     want_vinv=image is None, image=image, overwrite=overwrite)
    d = red.diagonalize()
    return [x % modulus for x in d], red.v % modulus, red.vinv % modulus
