"""Exact arithmetic: unity exponents, Smith form, congruence solving.

Oracles here are deliberately naive: Laplace determinants, brute-force
enumeration of (Z/N)^n, and direct matrix reconstruction, so the fast
implementations are checked against something independently simple.
"""

import dataclasses
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from crossbraid import exact
from crossbraid.exact import (
    CongruenceFactor,
    CongruenceSolution,
    UnityExponent,
    as_int_matrix,
    diagonalize_mod,
    smith_normal_form,
    solve_congruences,
)


def laplace_det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * laplace_det(minor)
    return total


def brute_congruence(A, b, N):
    """All x in (Z/N)^n with A x = b mod N, as a set of tuples, summed in
    Python ints."""
    A = np.array(A, dtype=object)
    b = [int(v) for v in b]
    m, n = A.shape
    out = set()
    for x in itertools.product(range(N), repeat=n):
        if all((int(A[i] @ x) - b[i]) % N == 0 for i in range(m)):
            out.add(x)
    return out


class TestUnityExponent:
    def test_arithmetic(self):
        u = UnityExponent(3, 8)
        v = UnityExponent(7, 8)
        assert (u * v).value == 2
        assert u.inverse().value == 5
        assert (u * u.inverse()).is_identity
        assert (u ** 3).value == 1
        assert (u ** -1) == u.inverse()
        assert UnityExponent.one(5).value == 0

    def test_normalization(self):
        assert UnityExponent(13, 4).value == 1
        assert UnityExponent(-1, 4).value == 3

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ValueError):
            UnityExponent(1, 4) * UnityExponent(1, 8)
        with pytest.raises(ValueError):
            UnityExponent(0, 0)

    def test_lift(self):
        u = UnityExponent(3, 4)
        w = u.lift(12)
        assert (w.value, w.modulus) == (9, 12)
        with pytest.raises(ValueError):
            u.lift(6)

    def test_str(self):
        assert str(UnityExponent(3, 8)) == "zeta_8^3"


class TestSmithNormalForm:
    def test_known_small(self):
        assert smith_normal_form([[2, 0], [0, 3]]).invariant_factors == (1, 6)
        assert smith_normal_form([[1, 0], [0, 0]]).invariant_factors == (1,)
        assert smith_normal_form(np.zeros((3, 3), dtype=int)).invariant_factors == ()

    def test_random_reconstruction(self):
        rng = random.Random(5)
        for _ in range(200):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            A = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(m)]
            snf = smith_normal_form(A)
            assert snf.verify(A)
            facts = snf.invariant_factors
            assert all(d > 0 for d in facts)
            assert all(facts[i + 1] % facts[i] == 0 for i in range(len(facts) - 1))
            # zeros only at the tail
            seen_zero = False
            for d in snf.diagonal:
                if d == 0:
                    seen_zero = True
                else:
                    assert not seen_zero

    def test_determinant_preserved(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 4)
            A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            snf = smith_normal_form(A)
            prod = 1
            for d in snf.diagonal:
                prod *= d
            assert prod == abs(laplace_det(A)) or prod == 0 == laplace_det(A)

    def test_large_entries_fall_back_exactly(self):
        rng = random.Random(13)
        A = [[rng.randint(-10**14, 10**14) for _ in range(5)] for _ in range(5)]
        snf = smith_normal_form(A)
        assert snf.verify(A)

    def test_deterministic(self):
        A = [[6, 4, 2], [4, 2, 8], [2, 8, 6]]
        s1, s2 = smith_normal_form(A), smith_normal_form(A)
        assert s1.diagonal == s2.diagonal
        assert np.array_equal(s1.U, s2.U) and np.array_equal(s1.V, s2.V)

    def test_inverse_transforms(self):
        rng = random.Random(11)
        for _ in range(50):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            A = np.array([[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)])
            snf = smith_normal_form(A)
            D = np.zeros((m, n), dtype=object)
            for i, d in enumerate(snf.diagonal):
                D[i, i] = d
            # A recovered from the diagonal via the inverse transforms
            back = snf.Uinv.astype(object) @ D @ snf.Vinv.astype(object)
            assert np.array_equal(back, A.astype(object))


class TestSolveCongruences:
    def test_pinned_pair_system(self):
        # x+y = 1, x-y = 1 mod 3 has the single solution (1, 0)
        sol = solve_congruences([[1, 1], [1, -1]], [1, 1], 3)
        assert sol.count == 1
        assert set(sol.enumerate()) == {(1, 0)}

    def test_pinned_single(self):
        sol = solve_congruences([[2]], [0], 4)
        assert set(sol.enumerate()) == {(0,), (2,)}
        assert solve_congruences([[2]], [1], 4) is None

    def test_modulus_one(self):
        sol = solve_congruences([[3, 1]], [2], 1)
        assert sol.count == 1 and set(sol.enumerate()) == {(0, 0)}

    def test_no_equations(self):
        sol = solve_congruences(np.zeros((0, 2), dtype=int), [], 3)
        assert sol.count == 9
        assert set(sol.enumerate()) == set(itertools.product(range(3), repeat=2))

    def test_brute_force_sweep(self):
        rng = random.Random(23)
        for _ in range(300):
            N = rng.choice([1, 2, 3, 4, 6, 12])
            m, n = rng.randint(0, 3), rng.randint(1, 4)
            A = np.array([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)],
                         dtype=np.int64).reshape(m, n)
            b = [rng.randint(-6, 6) for _ in range(m)]
            expected = brute_congruence(A, b, N)
            sol = solve_congruences(A, b, N)
            if sol is None:
                assert expected == set()
                continue
            got = list(sol.enumerate())
            assert len(got) == len(set(got)) == sol.count
            assert set(got) == expected

    def test_wide_system(self):
        # six unknowns, the widest system brute comparison stays cheap for
        A = [[1, 2, 3, 4, 5, 6], [0, 1, 0, 1, 0, 1]]
        sol = solve_congruences(A, [3, 2], 4)
        expected = brute_congruence(np.array(A), [3, 2], 4)
        assert set(sol.enumerate()) == expected

    def test_deterministic_enumeration_order(self):
        a = solve_congruences([[2, 4]], [2], 6)
        b = solve_congruences([[2, 4]], [2], 6)
        assert list(a.enumerate()) == list(b.enumerate())


def factor_cases(seed):
    """Seeded systems (A, right-hand sides, N): square, wide and tall, each
    with random right-hand sides (mostly infeasible when A is tall) and
    right-hand sides in the column span (always feasible)."""
    rng = random.Random(seed)
    for N in (2, 6, 9, 12, 32, 36):
        for _ in range(30):
            n = rng.randint(1, 8)
            m = rng.choice([rng.randint(1, n), n + rng.randint(1, 8)])
            A = random_matrix(rng, m, n, -N, N, density=0.5)
            rhs = [np.array([rng.randint(-N, 2 * N) for _ in range(m)])
                   for _ in range(3)]
            for _ in range(2):
                x = np.array([rng.randint(0, N - 1) for _ in range(n)])
                rhs.append(A @ x + N * rng.randint(-2, 2))
            yield A, rhs, N


def counted_solves(monkeypatch, A, bs, N):
    """One factor's solution of each b in turn, each checked against
    solve_congruences, and the want_u of every reduction the factor ran."""
    want = [solve_congruences(A, b, N) for b in bs]
    made = []

    class Counted(exact._Reduction):
        def __init__(self, a, **kwargs):
            made.append(kwargs.get("want_u", False))
            super().__init__(a, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(exact, "_Reduction", Counted)
        factor = CongruenceFactor(A, N)
        got = [factor.solve(b) for b in bs]
    assert got == want, (A.tolist(), [b.tolist() for b in bs], N)
    return got, made


class TestCongruenceFactor:
    """One factor per matrix equals solve_congruences for every b."""

    def test_random_systems_match_solve_congruences(self):
        outcomes = set()
        for A, rhs, N in factor_cases(101):
            factor = CongruenceFactor(A, N)
            for b in rhs:
                want = solve_congruences(A, b, N)
                assert factor.solve(b) == want, (A.tolist(), b.tolist(), N)
                outcomes.add((want is None, A.shape[0] > A.shape[1]))
        # feasible and infeasible, square-or-wide and tall, all seen
        assert outcomes == {(False, False), (False, True),
                            (True, False), (True, True)}

    def test_brute_force_sweep(self):
        rng = random.Random(103)
        for _ in range(200):
            N = rng.choice([1, 2, 3, 4, 6, 12])
            m, n = rng.randint(0, 4), rng.randint(1, 3)
            A = random_matrix(rng, m, n, -6, 6)
            b = [rng.randint(-6, 6) for _ in range(m)]
            sol = CongruenceFactor(A, N).solve(b)
            got = set() if sol is None else set(sol.enumerate())
            assert got == brute_congruence(A, b, N)

    @pytest.mark.parametrize("N", [2, 6, 9, 12, 32, 36])
    def test_zero_row_with_nonzero_offset(self, N):
        rng = random.Random(N)
        A = random_matrix(rng, 4, 3, -N, N)
        x = np.array([rng.randint(0, N - 1) for _ in range(3)])
        A0 = np.vstack([A[:2], np.zeros((1, 3), dtype=np.int64), A[2:]])
        b = np.insert(A @ x, 2, 0)
        factor = CongruenceFactor(A0, N)
        assert factor.solve(b) == solve_congruences(A0, b, N) is not None
        for c in range(1, N):
            b[2] = c
            assert factor.solve(b) is None
            assert solve_congruences(A0, b, N) is None

    @pytest.mark.parametrize("N", [2, 6, 9, 12, 32, 36])
    def test_twin_rows_with_different_offsets(self, N):
        rng = random.Random(N + 1)
        A = random_matrix(rng, 3, 4, -N, N)
        A[0, 0] = 1
        x = np.array([rng.randint(0, N - 1) for _ in range(4)])
        twins = np.vstack([A, A[:1]])
        b = np.append(A @ x, (A @ x)[0])
        factor = CongruenceFactor(twins, N)
        assert factor.solve(b) == solve_congruences(twins, b, N) is not None
        for c in range(1, N):
            b[-1] = (A @ x)[0] + c
            assert factor.solve(b) is None
            assert solve_congruences(twins, b, N) is None

    def test_zero_then_nonzero_then_zero_rhs(self, monkeypatch):
        # the first zero b reduces without U, the first nonzero b reduces
        # again with it, and a later zero b reuses the kernel solution
        outcomes = set()
        for A, rhs, N in factor_cases(107):
            moved = [b for b in rhs if (b % N).any()]
            if not moved:
                continue
            zero = np.zeros(len(A), dtype=np.int64)
            got, made = counted_solves(monkeypatch, A,
                                       [zero, moved[0], N * moved[0]], N)
            assert made == [False, True]
            assert got[2] is got[0]
            outcomes.add(got[1] is None)
        assert outcomes == {False, True}

    def test_nonzero_first_rhs_reduces_once(self, monkeypatch):
        for A, rhs, N in factor_cases(109):
            moved = [b for b in rhs if (b % N).any()]
            if not moved:
                continue
            moved.insert(1, np.zeros(len(A), dtype=np.int64))
            _, made = counted_solves(monkeypatch, A, moved, N)
            assert made == [True]

    def test_edge_shapes(self):
        for A, b, N in (([[3, 1]], [2], 1), (np.zeros((0, 2), int), [], 3),
                        ([[0, 0], [0, 0]], [0, 0], 4),
                        ([[0, 0], [0, 0]], [0, 1], 4)):
            assert CongruenceFactor(A, N).solve(b) == \
                solve_congruences(A, b, N)

    def test_compact_and_signed_input_give_one_solution(self):
        # a uint8 matrix with entries below N is taken as it stands; a
        # signed or unreduced one is reduced first, to the same factor
        A = np.array([[1, 3, 5], [2, 2, 0], [5, 1, 1]], dtype=np.uint8)
        b = np.array([1, 4, 0])
        kept = CongruenceFactor(A, 6)
        signed = CongruenceFactor(A.astype(np.int64) - 6, 6)
        assert kept.solve(b) == signed.solve(b) == solve_congruences(A, b, 6)
        assert CongruenceFactor(A, 5).solve(b) == \
            solve_congruences(A.astype(np.int64), b, 5)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            CongruenceFactor([[1]], 0)
        with pytest.raises(ValueError):
            CongruenceFactor([[1, 2]], 5).solve([1, 2])


class TestDiagonalizeMod:
    def test_transforms_invert(self):
        rng = random.Random(31)
        for _ in range(100):
            N = rng.choice([2, 3, 4, 6, 8])
            m, n = rng.randint(1, 3), rng.randint(1, 4)
            A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            d, V, Vinv = diagonalize_mod(A, N)
            eye = np.eye(n, dtype=np.int64)
            assert np.array_equal((V @ Vinv) % N, eye % N)
            assert np.array_equal((Vinv @ V) % N, eye % N)

    def test_kernel_description(self):
        rng = random.Random(37)
        for _ in range(100):
            N = rng.choice([2, 3, 4, 6])
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            A = np.array([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)],
                         dtype=np.int64)
            d, V, Vinv = diagonalize_mod(A, N)
            described = set()
            for y in itertools.product(range(N), repeat=n):
                if all(d[j] * y[j] % N == 0 for j in range(min(len(d), n))):
                    x = tuple(int(v) % N for v in (V @ np.array(y)))
                    described.add(x)
            assert described == brute_congruence(A, [0] * m, N)


class TestLattice:
    """exact._Lattice's kernel rule: column j has step s_j = N / gcd(d_j, N)
    (d_j zero past the diagonal) and, when s_j < N, the generator
    V[:, j] s_j of order N / s_j."""

    def test_matches_the_per_column_rule(self):
        rng = random.Random(41)
        for _ in range(200):
            N = rng.choice([2, 4, 6, 8, 12, 30])
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            d, V, _ = diagonalize_mod(A, N)
            lattice = exact._Lattice(d, V, N)
            g = [math.gcd(d[j] if j < len(d) else 0, N) for j in range(n)]
            assert lattice.step.tolist() == [N // x for x in g]
            assert lattice.generators == tuple(
                (tuple(int(v) * (N // g[j]) % N for v in V[:, j]), g[j])
                for j in range(n) if g[j] > 1)

    def test_generators_are_exact_past_int64_products(self):
        # (N - 1) * N / 3 overflows int64; ((N - 1) mod 3) * N / 3 does not
        N = 3 * 10**12 + 3
        lattice = exact._Lattice([3], np.array([[N - 1]], dtype=np.int64), N)
        assert lattice.generators == (((2 * (N // 3),), 3),)


def test_as_int_matrix_rejects_non_integer():
    with pytest.raises(ValueError):
        as_int_matrix([[1.5, 2.0]])
    with pytest.raises(ValueError):
        as_int_matrix([1, 2, 3])


def test_as_int_matrix_copies_no_integer_array_up_to_int64():
    for dtype in (np.int8, np.uint8, np.int16, np.uint32, np.int64):
        A = np.arange(6, dtype=dtype).reshape(2, 3)
        assert as_int_matrix(A) is A
    A = np.array([[2**63 - 1, 5]], dtype=np.uint64)
    assert as_int_matrix(A).dtype == np.int64
    assert as_int_matrix(A).tolist() == A.tolist()


class TestUint64Inputs:
    """Matrix entries and right-hand sides past the int64 max reduce as
    the Python ints they are, not wrapped negative."""

    BIG = 2**64 - 1

    def assert_solves(self, A, b, N):
        want = brute_congruence(A, b, N)
        for sol in (solve_congruences(A, b, N),
                    CongruenceFactor(A, N).solve(b)):
            assert (set(sol.enumerate()) if sol else set()) == want
        return want

    def test_rhs_past_int64(self):
        for b in (np.array([self.BIG], dtype=np.uint64), [self.BIG],
                  [2**70 + 5], np.array([-(2**70) - 1], dtype=object)):
            assert self.assert_solves([[3]], b, 10) == {(int(b[0]) * 7 % 10,)}

    def test_matrix_past_int64(self):
        A = np.array([[self.BIG]], dtype=np.uint64)
        assert as_int_matrix(A).tolist() == [[self.BIG]]
        snf = smith_normal_form(A)
        assert snf.invariant_factors == (self.BIG,) and snf.verify(A)
        assert diagonalize_mod(A, 10)[0] == [5]
        for N in (7, 10, 12):
            for r in range(N):
                self.assert_solves(A, [r], N)

    def test_random_systems(self):
        rng = random.Random(157)
        for _ in range(40):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            values = (0, 1, 2**63, self.BIG - rng.randrange(9))
            A = np.array([[rng.choice(values) for _ in range(n)]
                          for _ in range(m)], dtype=np.uint64)
            b = np.array([rng.choice((0, 2**63 + 1, self.BIG))
                          for _ in range(m)], dtype=np.uint64)
            N = rng.choice((2, 6, 10))
            self.assert_solves(A, b, N)
            d, V, _ = diagonalize_mod(A, N)
            described = set()
            for y in itertools.product(range(N), repeat=n):
                if all(d[j] * y[j] % N == 0 for j in range(min(m, n))):
                    described.add(tuple(int(v) % N for v in V @ np.array(y)))
            assert described == brute_congruence(A, [0] * m, N)
            if m == n:
                snf = smith_normal_form(A)
                assert snf.verify(A)
                det = laplace_det(A.tolist())
                assert math.prod(snf.diagonal) == abs(det)


def test_narrow_input_with_a_modulus_past_its_type():
    # the remainder must not be taken in the input's own type
    A = np.array([[3, 4, 200], [5, 6, 7]], dtype=np.uint8)
    b = np.array([1, 2])
    for N in (1000, 70000, 3 * 10**12 + 3):
        want = solve_congruences(A.astype(np.int64), b, N)
        assert solve_congruences(A, b, N) == want
        assert CongruenceFactor(A, N).solve(b) == want
        assert CongruenceFactor(A.astype(np.int8), N).solve(b) == \
            solve_congruences(A.astype(np.int8).astype(np.int64), b, N)
        assert identical(diagonalize_mod(A, N),
                         diagonalize_mod(A.astype(np.int64), N))


def test_congruence_solution_count_matches_generators():
    sol = CongruenceSolution(6, (1, 2), (((2, 0), 3), ((0, 3), 2)))
    assert sol.count == 6
    assert len(set(sol.enumerate())) == 6


# -- identity oracle: the dense sweeps the elimination engine replaced --------

def int64_or_object(x):
    """x in int64 unless it holds Python ints."""
    return x if x.dtype == object else x.astype(np.int64)


def full_quotients(q, at, size):
    """The quotients q at the positions at of a length-size vector, zero
    elsewhere, in q's dtype."""
    full = np.zeros(size, dtype=q.dtype)
    full[at] = q
    return full


class DenseReduction(exact._Reduction):
    """The engine with its original dense sweeps and pivot search.

    Each sweep updates and re-reduces the whole trailing block, and the pivot
    search masks zeros with np.where.  The support-restricted engine must
    reproduce its diagonal, transforms and carried right-hand sides exactly.
    The Uinv and Vinv dot products are summed in int64 here, apart from the
    engine's own helpers, so a narrow sum in the engine cannot hide.  The
    engine hands each sweep only the rows (columns) with nonzero
    quotients; the oracle spreads them over every row (column) past t.
    """

    def bulk_row_clear(self, t, rows, q):
        q = full_quotients(q, rows - t - 1, self.a.shape[0] - t - 1)
        self.a[t + 1:, t:] -= np.outer(q, self.a[t, t:])
        self._sym(self.a[t + 1:, t:])
        if self.uinv is not None:
            col = int64_or_object(self.uinv[:, t])
            col += int64_or_object(self.uinv[:, t + 1:]).dot(q)
            self.uinv[:, t] = self._sym(col)
        if self.carry is not None:
            self.carry[t + 1:] -= np.outer(q, self.carry[t])
            self._sym(self.carry[t + 1:])

    def bulk_col_clear(self, t, cols, q):
        q = full_quotients(q, cols - t - 1, self.a.shape[1] - t - 1)
        self.a[t:, t + 1:] -= np.outer(self.a[t:, t], q)
        self._sym(self.a[t:, t + 1:])
        if self.v is not None:
            self.v[:, t + 1:] -= np.outer(self.v[:, t], q)
            self._sym(self.v[:, t + 1:])
        if self.vinv is not None:
            row = int64_or_object(self.vinv[t])
            row += q.dot(int64_or_object(self.vinv[t + 1:]))
            self.vinv[t] = self._sym(row)

    def _pick_pivot(self, t):
        sub = self.a[t:, t:]
        mags = np.abs(sub)
        nz = mags != 0
        if not nz.any():
            return None
        if sub.dtype == object:
            best, where = None, None
            for i in range(sub.shape[0]):
                for j in range(sub.shape[1]):
                    val = abs(int(sub[i, j]))
                    if val and (best is None or val < best):
                        best, where = val, (i, j)
            i, j = where
        else:
            masked = np.where(nz, mags, np.iinfo(mags.dtype).max)
            flat = int(np.argmin(masked))
            i, j = divmod(flat, sub.shape[1])
        return t + i, t + j


class SkipOneRow(exact._Reduction):
    """A broken sweep that leaves the last row with q != 0 uncleared."""

    def bulk_row_clear(self, t, rows, q):
        if len(rows) > 1:
            rows, q = rows[:-1], q[:-1]
        super().bulk_row_clear(t, rows, q)


def with_engine(engine, fn, *args, **kwargs):
    """fn(*args, **kwargs) with exact._Reduction replaced by engine."""
    saved = exact._Reduction
    exact._Reduction = engine
    try:
        return fn(*args, **kwargs)
    finally:
        exact._Reduction = saved


def identical(x, y) -> bool:
    """Equal values, and for arrays equal dtype and shape too."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
                and x.dtype == y.dtype and x.shape == y.shape
                and np.array_equal(x, y))
    if isinstance(x, (tuple, list)):
        return (type(x) is type(y) and len(x) == len(y)
                and all(identical(a, b) for a, b in zip(x, y)))
    if dataclasses.is_dataclass(x):
        return type(x) is type(y) and all(
            identical(getattr(x, f.name), getattr(y, f.name))
            for f in dataclasses.fields(x))
    return x == y


def assert_matches_dense(fn, *args, **kwargs):
    got = fn(*args, **kwargs)
    ref = with_engine(DenseReduction, fn, *args, **kwargs)
    assert identical(got, ref), f"{fn.__name__} differs from the dense sweeps"
    return got


def random_matrix(rng, m, n, lo, hi, density=1.0):
    return np.array([[rng.randint(lo, hi) if rng.random() < density else 0
                      for _ in range(n)] for _ in range(m)],
                    dtype=np.int64).reshape(m, n)


def reduce_with_carry(engine, A, b, N):
    """The raw workspace of solve_congruences after diagonalization."""
    red = engine(A % N, mod=N, want_v=True, carry=(b % N)[:, None])
    d = red.diagonalize()
    return d, red.a, red.v, red.carry


class TestMatchesDenseSweeps:
    def test_solve_congruences_and_carry(self):
        rng = random.Random(41)
        for N in (2, 6, 9, 12, 400, 10**5, 10**10 + 19):
            for _ in range(40):
                m, n = rng.randint(1, 14), rng.randint(1, 10)
                A = random_matrix(rng, m, n, -N, N, density=0.4)
                b = np.array([rng.randint(-N, N) for _ in range(m)],
                             dtype=np.int64)
                assert_matches_dense(solve_congruences, A, b, N)
                assert_matches_dense(factor_solve, A, b, N)
                got = reduce_with_carry(exact._Reduction, A, b, N)
                ref = reduce_with_carry(DenseReduction, A, b, N)
                assert identical(got, ref)

    def test_diagonalize_mod_random(self):
        rng = random.Random(43)
        for N in (2, 4, 6, 8, 9, 12, 400, 10**5, 10**10 + 19):
            for _ in range(30):
                m, n = rng.randint(1, 16), rng.randint(1, 12)
                A = random_matrix(rng, m, n, -20, 20, density=0.3)
                assert_matches_dense(diagonalize_mod, A, N)

    def test_smith_normal_form_all_transforms(self):
        rng = random.Random(47)
        dtypes = set()
        for _ in range(60):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            A = random_matrix(rng, m, n, -30, 30, density=0.6)
            dtypes.add(assert_matches_dense(smith_normal_form, A).U.dtype)
        assert np.dtype(np.int64) in dtypes

    def test_smith_normal_form_object_fallback(self):
        rng = random.Random(53)
        for bound in (10**14, 2**24):
            for _ in range(8):
                A = random_matrix(rng, 5, 5, -bound, bound)
                snf = assert_matches_dense(smith_normal_form, A)
                assert snf.U.dtype == object, "int64 path did not overflow"

    def test_oracle_catches_a_skipped_row(self):
        rng = random.Random(59)
        A = random_matrix(rng, 12, 8, -6, 6, density=0.5)
        b = np.array([rng.randint(-6, 6) for _ in range(12)], dtype=np.int64)
        ref = reduce_with_carry(DenseReduction, A, b, 12)
        assert identical(reduce_with_carry(exact._Reduction, A, b, 12), ref)
        assert not identical(reduce_with_carry(SkipOneRow, A, b, 12), ref)
        got = with_engine(SkipOneRow, diagonalize_mod, A, 12)
        assert not identical(got, with_engine(DenseReduction, diagonalize_mod,
                                              A, 12))


# -- unit pivots: one sweep each way, no division and no re-check -------------

class CountPivots(exact._Reduction):
    """The engine, recording |pivot| and the width as each pivot's
    clearing starts."""

    def __init__(self, *args, **kwargs):
        self.pivots = []
        super().__init__(*args, **kwargs)

    def _clear_pivot(self, t):
        self.pivots.append((abs(int(self.a[t, t])), self.a.dtype))
        super()._clear_pivot(t)


def unit_runs(rng, N, big=1):
    """Rows of ±1 entries and non-units over rows of non-units alone.  The
    non-units are multiples of 2 or 3 sharing a factor with N, so every
    sweep by a unit row keeps the lower rows non-units, and the units run
    out before a non-unit pivot is picked; big scales the non-units, which
    past 2**31 puts a reduction over Z into Python ints."""
    m, n = rng.randint(14, 22), rng.randint(10, 16)
    head = rng.randint(6, min(m, n) - 3)
    units = rng.choice(((1, -1), (1,), (-1,)))
    steps = [s * big for s in (2, 3, -2, 4, 6, -3)
             if N is None or math.gcd(s, N) > 1]
    rows = []
    for i in range(m):
        values = steps + (list(units) * 3 if i < head else [])
        rows.append([rng.choice(values) if rng.random() < 0.6 else 0
                     for _ in range(n)])
    A = np.array(rows, dtype=object if big > 1 else np.int64)
    return A if N is None else A % N


def reduce_all(engine, A, N=None, carry=None):
    """The whole workspace after diagonalization, every transform tracked;
    without a carry, U is carried."""
    red = engine(A, mod=N, want_u=carry is None, want_uinv=True,
                 want_v=True, want_vinv=True, carry=carry)
    d = red.diagonalize()
    return red, (d, red.a, red.uinv, red.v, red.vinv, red.carry)


def assert_diagonalized(red, A, N):
    """The workspace is diagonal, U A V equals it and the transforms
    invert: in Python ints, reduced mod N when N is set."""
    def reduce(x):
        return x % N if N else x
    a = red.a.astype(object)
    off = a.copy()
    np.fill_diagonal(off, 0)
    assert not off.any(), "an entry off the diagonal"
    U, V = red.carry.astype(object), red.v.astype(object)
    assert np.array_equal(reduce(U @ A.astype(object) @ V), reduce(a))
    for X, Xinv in ((U, red.uinv), (V, red.vinv)):
        eye = np.eye(X.shape[0], dtype=object)
        assert np.array_equal(reduce(X @ Xinv.astype(object)), reduce(eye))


class TestUnitPivots:
    """Long runs of ±1 pivots, mixed with non-unit ones, reduce exactly as
    the dense sweeps do.  The unit path lives in the shared _clear_pivot,
    which the oracle inherits, so every workspace is also checked to be
    diagonal and to satisfy U A V = D."""

    def check(self, A, N, dtype):
        red, got = reduce_all(CountPivots, A, N)
        ref = reduce_all(DenseReduction, A, N)[1]
        assert identical(got, ref)
        assert_diagonalized(red, A, N)
        if N is not None:
            rng = random.Random(int(A.sum()))
            B = np.array([[rng.randrange(N) for _ in range(3)]
                          for _ in range(A.shape[0])], dtype=np.int64)
            assert identical(reduce_all(exact._Reduction, A, N, B)[1],
                             reduce_all(DenseReduction, A, N, B)[1])
        # over Z the transforms may outgrow int64 past the units
        return [p for p, width in red.pivots if width == dtype]

    def assert_mixed(self, runs):
        # a run of at least five unit pivots, and non-unit pivots after it
        assert max(runs["unit"]) >= 5 and runs["non-unit"] >= 10

    def tally(self, runs, pivots):
        length = 0
        for p in pivots:
            length = length + 1 if p == 1 else 0
            runs["unit"].append(length)
        runs["non-unit"] += sum(p > 1 for p in pivots)

    @pytest.mark.parametrize("N", [4, 8, 9, 12])
    def test_mod(self, N):
        rng = random.Random(f"units:{N}")
        runs = {"unit": [0], "non-unit": 0}
        for _ in range(12):
            A = unit_runs(rng, N)
            self.tally(runs, self.check(A, N, np.dtype(np.int8)))
        self.assert_mixed(runs)

    @pytest.mark.parametrize("big,dtype", [(1, np.int64), (2**40, object)],
                             ids=["int64", "object"])
    def test_over_z(self, big, dtype):
        rng = random.Random(f"units:Z:{big}")
        runs = {"unit": [0], "non-unit": 0}
        for _ in range(8):
            A = unit_runs(rng, None, big)
            self.tally(runs, self.check(A, None, np.dtype(dtype)))
            assert_matches_dense(smith_normal_form, A)
        self.assert_mixed(runs)


# -- inputs in any memory order ----------------------------------------------

class TestInputLayout:
    """A transposed or Fortran-ordered input reduces as its C-ordered copy
    does: the sweeps gather through flat row-major indices, so the
    engine's own arrays must be C-contiguous whatever it is given."""

    def inputs(self, seed):
        rng = random.Random(seed)
        for N in (12, 10**10 + 19):
            for _ in range(4):
                m, n = rng.randint(2, 10), rng.randint(2, 10)
                A = random_matrix(rng, m, n, -N, N, density=0.6)
                for X in (A.T, np.asfortranarray(A.T.astype(object))):
                    self.assert_scatters_land(X, N)
                    yield X, np.ascontiguousarray(X), N, rng

    def assert_scatters_land(self, X, N):
        """Every array _axpy scatters into ravels to a view of itself.
        Checked before any reduction runs: a scatter into a copy is lost,
        and a pivot whose column never clears is swapped in forever."""
        red = exact._Reduction(X, mod=N, want_v=True, carry=X.T[:, :1])
        for arr in (red.a, red.carry, red.v.T):
            assert np.shares_memory(arr.ravel(), arr)

    def test_diagonalize_mod(self):
        for X, C, N, _ in self.inputs(127):
            assert not X.flags.c_contiguous
            assert identical(diagonalize_mod(X, N), diagonalize_mod(C, N))

    def test_solvers(self):
        for X, C, N, rng in self.inputs(131):
            x = [rng.randrange(N) for _ in range(X.shape[1])]
            feasible = np.array(mod_product(C, x, N), dtype=object)
            other = np.array([rng.randrange(N) for _ in range(X.shape[0])],
                             dtype=object)
            for b in (feasible, other, np.asfortranarray(feasible)):
                assert identical(solve_congruences(X, b, N),
                                 solve_congruences(C, b, N))
                assert identical(CongruenceFactor(X, N).solve(b),
                                 CongruenceFactor(C, N).solve(b))

    def test_smith_normal_form(self):
        for X, C, _, _ in self.inputs(137):
            assert identical(smith_normal_form(X), smith_normal_form(C))


# -- moduli past the int64 sweeps, checked in Python ints ---------------------

def mod_product(A, x, N):
    """A x mod N in Python ints."""
    return [sum(int(a) * int(v) for a, v in zip(row, x)) % N for row in A]


def large_modulus_system(rng, m, n, N):
    """A with entries 3, 6, N // 3 or uniform mod N, and a feasible b = A x."""
    A = np.array([[rng.choice((3, 6, N // 3, rng.randrange(N)))
                   for _ in range(n)] for _ in range(m)], dtype=np.int64)
    x = [rng.randrange(N) for _ in range(n)]
    return A, np.array(mod_product(A, x, N), dtype=np.int64)


def assert_solves_exactly(A, b, N):
    """solve_congruences and CongruenceFactor agree on a feasible system,
    and the particular solution and every generator check in Python ints;
    V Vinv = I (mod N) for diagonalize_mod."""
    sol = solve_congruences(A, b, N)
    assert sol is not None, "feasible system reported infeasible"
    assert mod_product(A, sol.particular, N) == [int(v) % N for v in b]
    for gen, order in sol.generators:
        assert mod_product(A, gen, N) == [0] * A.shape[0]
        assert all(order * v % N == 0 for v in gen)
    assert CongruenceFactor(A, N).solve(b) == sol
    _, V, Vinv = diagonalize_mod(A, N)
    n = A.shape[1]
    eye = np.eye(n, dtype=object)
    assert np.array_equal(V.astype(object) @ Vinv.astype(object) % N, eye)
    return sol


def factor_solve(A, b, N):
    return CongruenceFactor(A, N).solve(b)


def assert_sweeps_at(A, b, N, dtype):
    """Mod N the reduction of A takes dtype.  Every solver checks in Python
    ints and matches the dense oracle, and diagonalize_mod changes neither
    A nor A given at the width, on which it returns the same."""
    assert exact._Reduction(A, mod=N).a.dtype == dtype
    before = A.copy()
    assert_solves_exactly(A, b, N)
    assert_matches_dense(solve_congruences, A, b, N)
    assert_matches_dense(factor_solve, A, b, N)
    got = assert_matches_dense(diagonalize_mod, A, N)
    assert identical(A, before)
    narrow = (A % N).astype(dtype)
    kept = narrow.copy()
    assert identical(diagonalize_mod(narrow, N), got)
    assert identical(narrow, kept)


class TestLargeModuli:
    """Past (max(m, n) + 2) (N // 2 + 1)^2 >= 2^63 the sweeps take Python
    ints; every answer is checked without numpy arithmetic."""

    @pytest.mark.parametrize("N", [10**10 + 19, 3 * 10**12 + 3])
    @pytest.mark.parametrize("shape", [(3, 3), (12, 9), (5, 40)])
    def test_random_systems(self, N, shape):
        rng = random.Random(f"large:{N}:{shape}")
        for _ in range(5):
            assert_solves_exactly(*large_modulus_system(rng, *shape, N), N)

    def test_width_boundary(self):
        # the largest N whose sweeps fit int64 for a 6 x 5 system, and the
        # next one, which must take Python ints
        m, n = 6, 5
        h = math.isqrt(((1 << 63) - 1) // (max(m, n) + 2))
        rng = random.Random(101)
        for N, dtype in ((2 * h - 1, np.int64), (2 * h, object)):
            for _ in range(3):
                assert_sweeps_at(*large_modulus_system(rng, m, n, N), N,
                                 np.dtype(dtype))


class TestSolversPastInt64:
    """Moduli of 2^63 and more: the lattice's gcds, steps, inverses and
    solutions stay in Python ints, as the reduction does."""

    def assert_both(self, A, b, N):
        sol = solve_congruences(A, b, N)
        assert CongruenceFactor(A, N).solve(b) == sol
        return sol

    def test_one_unit_equation(self):
        for N in (2**63 + 5, 2**64 + 13):
            sol = self.assert_both([[3]], [5], N)
            assert sol.particular == (5 * pow(3, -1, N) % N,)
            assert sol.generators == ()
            assert diagonalize_mod([[3]], N)[0] == [3]

    def test_kernel_generator(self):
        # rank 1: the free column carries a generator of order N
        N = 2**63 + 5
        A = [[1, 2], [2, 4]]
        sol = self.assert_both(A, [5, 10], N)
        assert mod_product(A, sol.particular, N) == [5, 10]
        (gen, order), = sol.generators
        assert order == N and mod_product(A, gen, N) == [0, 0]
        assert gen == (N - 2, 1)
        assert self.assert_both(A, [5, 11], N) is None

    def test_step_past_int64(self):
        # gcd(3, N) = 3 leaves three solutions N / 3 apart, and an odd
        # right side none
        N = 3 * 2**63
        sol = self.assert_both([[3]], [6], N)
        assert sorted(sol.enumerate()) == [(2 + t * N // 3,) for t in range(3)]
        assert self.assert_both([[3]], [5], N) is None


# -- the narrowest width that holds a modular sweep ---------------------------

def extreme_system(rng, m, n, N):
    """Entries 1, -1, N // 2, -(N // 2) or uniform mod N, so unit pivots
    lead and the sweeps reach their largest products; b = A x is feasible."""
    A = np.array([[rng.choice((1, -1, N // 2, -(N // 2), rng.randrange(N)))
                   for _ in range(n)] for _ in range(m)], dtype=np.int64)
    x = [rng.randrange(N) for _ in range(n)]
    return A, np.array(mod_product(A, x, N), dtype=np.int64)


# the largest N each width holds, N + (N//2)^2 <= max, and the next width
NARROW_BOUNDARIES = ((21, np.int8, np.int16), (361, np.int16, np.int32),
                     (92679, np.int32, np.int64))


class TestSweepWidths:
    """Mod N the arrays take the narrowest signed width whose max is at
    least N + (N//2)^2; TestLargeModuli.test_width_boundary covers the
    int64 / Python-int boundary."""

    def test_the_boundaries_follow_the_rule(self):
        for N, narrow, wide in NARROW_BOUNDARIES:
            assert N + (N // 2) ** 2 <= np.iinfo(narrow).max
            assert N + 1 + ((N + 1) // 2) ** 2 > np.iinfo(narrow).max
            assert exact._sweep_dtype(N, (6, 5)) == narrow
            assert exact._sweep_dtype(N + 1, (6, 5)) == wide

    @pytest.mark.parametrize("N,narrow,wide", NARROW_BOUNDARIES,
                             ids=[np.dtype(t).name
                                  for _, t, _ in NARROW_BOUNDARIES])
    def test_both_sides(self, N, narrow, wide):
        rng = random.Random(f"width:{N}")
        for modulus, dtype in ((N, narrow), (N + 1, wide)):
            for shape in ((9, 7), (6, 11)):
                for _ in range(4):
                    A, b = extreme_system(rng, *shape, modulus)
                    assert_sweeps_at(A, b, modulus, np.dtype(dtype))

    def test_extreme_sweeps(self):
        # every entry, quotient and transform entry at N // 2 or
        # -((N - 1) // 2), with a unit pivot: each product in a sweep and
        # each term of the Uinv and Vinv dot products is as large as it
        # gets, and the result must equal Python ints reduced mod N
        for N, narrow, wide in NARROW_BOUNDARIES:
            for modulus in (N, N + 1):
                rng = random.Random(modulus)

                def extremes(m, n):
                    return [[rng.choice((modulus // 2, -((modulus - 1) // 2)))
                             for _ in range(n)] for _ in range(m)]

                def sym(x):
                    half = (modulus - 1) // 2
                    return (x + half) % modulus - half

                A = extremes(9, 8)
                A[0][0] = 1
                red = exact._Reduction(np.array(A), mod=modulus,
                                       want_uinv=True, want_v=True,
                                       want_vinv=True)
                uinv, v, vinv = extremes(9, 9), extremes(8, 8), extremes(8, 8)
                red.uinv[...], red.v[...], red.vinv[...] = uinv, v, vinv
                q = [row[0] for row in A[1:]]
                red.bulk_row_clear(0, np.arange(1, 9), red.a[1:, 0].copy())
                A[1:] = [[sym(x - qi * y) for x, y in zip(row, A[0])]
                         for qi, row in zip(q, A[1:])]
                for row in uinv:
                    row[0] = sym(row[0] + sum(
                        x * qi for x, qi in zip(row[1:], q)))
                assert red.a.tolist() == A and red.uinv.tolist() == uinv
                q = A[0][1:]
                red.bulk_col_clear(0, np.arange(1, 8), red.a[0, 1:].copy())
                A[0][1:] = [sym(x - qi) for x, qi in zip(A[0][1:], q)]
                for row in v:
                    row[1:] = [sym(x - row[0] * qi)
                               for x, qi in zip(row[1:], q)]
                vinv[0] = [sym(x + sum(qi * r[c] for qi, r in zip(q, vinv[1:])))
                           for c, x in enumerate(vinv[0])]
                assert red.a.tolist() == A
                assert red.v.tolist() == v and red.vinv.tolist() == vinv

    def test_pivot_keys_at_each_width(self):
        # a zero chunk of a narrow array must not rank as a pivot, and a
        # narrow vector's zeros must not win the smallest nonzero search
        for N, narrow, _ in NARROW_BOUNDARIES:
            A = np.zeros((3 * CHUNK, 4), dtype=np.int64)
            A[2 * CHUNK + 1, 3] = N // 2
            red = exact._Reduction(A, mod=N)
            assert red.a.dtype == narrow
            assert red._pick_pivot(0) == (2 * CHUNK + 1, 3)
            vec = np.array([0, 0, -(N // 2), 0, 2], dtype=narrow)
            assert red._min_nonzero(vec) == 4


# -- Vinv carried as Vinv @ image, and the mask mod 2^k -----------------------

def assert_carries_image(A, W, N):
    """diagonalize_mod(A, N, image=W) returns the d and V of the call
    without an image, and Vinv @ W (mod N), summed in Python ints, at V's
    width; neither A nor W changes, and the dense sweeps agree."""
    A_kept, W_kept = A.copy(), W.copy()
    d, V, Vinv = diagonalize_mod(A, N)
    got = assert_matches_dense(diagonalize_mod, A, N, image=W)
    assert identical(got[:2], (d, V))
    want = Vinv.astype(object) @ W.astype(object) % N
    assert got[2].dtype == V.dtype and got[2].shape == W.shape
    assert got[2].tolist() == want.tolist()
    assert identical(A, A_kept) and identical(W, W_kept)


class TestImageCarry:
    """Given an n x w image, the reduction starts from it in place of
    the identity and returns Vinv @ image; d and V are unchanged."""

    def test_small_moduli(self):
        rng = random.Random(163)
        for N in (2, 4, 8, 9, 12, 16):
            for _ in range(25):
                m, n = rng.randint(1, 14), rng.randint(1, 10)
                w = rng.randint(0, 6)
                A = random_matrix(rng, m, n, -N, N, density=0.4)
                W = random_matrix(rng, n, w, -3 * N, 3 * N, density=0.5)
                assert_carries_image(A, W, N)

    @pytest.mark.parametrize("N,narrow,wide", NARROW_BOUNDARIES[:2],
                             ids=[np.dtype(t).name
                                  for _, t, _ in NARROW_BOUNDARIES[:2]])
    def test_width_boundaries(self, N, narrow, wide):
        rng = random.Random(f"image:{N}")
        for modulus, dtype in ((N, narrow), (N + 1, wide)):
            for shape in ((9, 7), (6, 11)):
                for _ in range(4):
                    A, _ = extreme_system(rng, *shape, modulus)
                    W, _ = extreme_system(rng, shape[1], 5, modulus)
                    assert exact._Reduction(A, mod=modulus).a.dtype == dtype
                    assert_carries_image(A, W, modulus)

    def test_python_ints(self):
        rng = random.Random(167)
        N = 2**64
        for _ in range(6):
            A, W = (np.array([[rng.choice((3, 6, N // 3, rng.randrange(N)))
                               for _ in range(n)] for _ in range(m)],
                             dtype=object) for m, n in ((5, 4), (4, 3)))
            W[0, 0] = -N - 1
            assert exact._Reduction(A, mod=N).a.dtype == object
            assert_carries_image(A, W, N)

    def test_cohomology_reads_no_vinv(self):
        # cohomology_group asks for Vinv W, so no n x n Vinv is formed
        from crossbraid.cohomology import cohomology_group, mu_module
        from crossbraid.groups import builtin_group
        seen = []

        class Record(exact._Reduction):
            def __init__(self, a, **kwargs):
                super().__init__(a, **kwargs)
                if self.vinv is not None:
                    seen.append((np.shape(a)[1], self.vinv.shape))

        H = with_engine(Record, cohomology_group, builtin_group("D8"), 2,
                        mu_module(4))
        assert H.invariant_factors == (2, 2, 2)
        assert len(seen) == 1
        n, (rows, cols) = seen[0]
        assert rows == n == 49 and 0 < cols <= 7


class TestMask:
    """Mod 2^k, _sym masks the low k bits in place of a remainder.  It
    must equal (x + h) % N - h, h = (N - 1) // 2, on every value of the
    width, even where x + h wraps: 2^k divides the wrap."""

    @pytest.mark.parametrize("width,moduli", [
        (np.int8, (1, 2, 4, 8, 16)), (np.int16, (32, 64, 128, 256))])
    def test_every_value_of_the_width(self, width, moduli):
        # every power of two this width sweeps: the next one is wider
        assert exact._sweep_dtype(2 * moduli[-1], (1, 1)) != width
        info = np.iinfo(width)
        x = np.arange(info.min, info.max + 1, dtype=width)
        for N in moduli:
            red = exact._Reduction(np.zeros((1, 1), dtype=np.int64), mod=N)
            assert red.a.dtype == width
            got = red._sym(x.copy())
            h = (N - 1) // 2
            assert got.tolist() == [(v + h) % N - h for v in x.tolist()]

    def test_python_ints(self):
        N = 2**64
        red = exact._Reduction(np.zeros((1, 1), dtype=np.int64), mod=N)
        assert red.a.dtype == object
        values = [0, 1, -1, N // 2, N // 2 + 1, -(N // 2), N - 1, N,
                  -N - 1, 5 * N + 7, -(2**200) + 3, 2**200 - 3]
        got = red._sym(np.array(values, dtype=object))
        h = (N - 1) // 2
        assert got.tolist() == [(v + h) % N - h for v in values]


# -- overwrite: the reduction takes over an array at its width ---------------

# int8 (2, 6, 9), int32, int64 and Python-int sweeps
OVERWRITE_MODULI = (2, 6, 9, 400, 10**5, 10**10 + 19)


def at_sweep_width(A, N):
    """A as a new C-contiguous array at the width a reduction mod N of its
    shape sweeps in."""
    return np.array(A, dtype=exact._sweep_dtype(N, A.shape), order="C")


def assert_copied(X, N):
    """overwrite=True leaves X as it was, and returns what a call on a
    C-contiguous copy returns."""
    before = X.copy()
    got = diagonalize_mod(X, N, overwrite=True)
    assert identical(X, before)
    assert identical(got, diagonalize_mod(np.ascontiguousarray(before), N))


class TestOverwrite:
    """diagonalize_mod(A, N, overwrite=True) reduces an A that is
    C-contiguous at the sweep width where it lies, and returns the same
    (d, V, Vinv or Vinv W), values and dtypes, as a call that copies A;
    any other A is copied and left as it was."""

    @pytest.mark.parametrize("N", OVERWRITE_MODULI)
    def test_matches_a_copy_and_the_dense_sweeps(self, N):
        rng = random.Random(f"overwrite:{N}")
        for i in range(16):
            m, n = rng.randint(1, 14), rng.randint(1, 10)
            # entries off the symmetric representatives, so the in-place
            # reduction has work to do
            X = at_sweep_width(random_matrix(rng, m, n, -N, N, 0.5), N)
            W = (None if i % 2 else
                 random_matrix(rng, n, rng.randint(0, 4), -N, N, 0.5))
            kept = X.copy()
            want = diagonalize_mod(X, N, image=W)
            assert identical(X, kept), "A changed without overwrite"
            assert identical(want, with_engine(
                DenseReduction, diagonalize_mod, kept, N, image=W))
            got = diagonalize_mod(X, N, image=W, overwrite=True)
            assert identical(got, want)
            # X was the workspace: it holds the diagonal form
            d = np.diag(X).astype(object) % N
            off = X.copy()
            np.fill_diagonal(off, 0)
            assert d.tolist() == want[0] and not off.any()

    def test_other_layouts_types_and_read_only_arrays_are_copied(self):
        rng = random.Random("overwrite:copied")
        for N in OVERWRITE_MODULI:
            for _ in range(6):
                m, n = rng.randint(2, 12), rng.randint(2, 9)
                A = random_matrix(rng, m, n, -N, N, 0.5)
                X = at_sweep_width(A, N)
                other = np.int16 if X.dtype == np.int8 else np.int8
                frozen = X.copy()
                frozen.flags.writeable = False
                for Y in (np.asfortranarray(X), at_sweep_width(A.T, N).T,
                          X[:, ::2], (A % 100).astype(other), frozen):
                    assert not (Y.flags.c_contiguous and Y.flags.writeable
                                and Y.dtype == X.dtype)
                    assert_copied(Y, N)

    def test_entries_that_would_wrap_are_copied(self):
        # x + (N - 1) // 2 past the width's max would wrap before the
        # remainder; a mask is exact through the wrap
        rng = random.Random("overwrite:wrap")
        for N in (6, 9, 21, 400):
            X = at_sweep_width(np.zeros((7, 5), dtype=np.int64), N)
            top = np.iinfo(X.dtype).max
            X[...] = [[rng.choice((top, top - (N - 1) // 2 + 1, -top, 3))
                       for _ in range(5)] for _ in range(7)]
            assert_copied(X, N)
        for N in (2, 16):
            info = np.iinfo(np.int8)
            X = np.array([[rng.randint(info.min, info.max) for _ in range(6)]
                          for _ in range(8)], dtype=np.int8)
            want = diagonalize_mod(X.copy(), N)
            assert identical(diagonalize_mod(X, N, overwrite=True), want)


# -- an independent Smith-form oracle past int64 -------------------------------

class TestSmithAgainstSympy:
    """DenseReduction inherits the engine's width handling, so it cannot
    catch a widening fault; sympy's invariant factors can."""

    def test_invariant_factors(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors
        rng = random.Random(103)
        cases = [np.array([[2**70, 3], [5, 7]], dtype=object)]
        for bound in (2**70, 2**40, 2**24, 50):
            for _ in range(6):
                m, n = rng.randint(1, 5), rng.randint(1, 5)
                cases.append(np.array(
                    [[rng.randint(-bound, bound) if rng.random() < 0.8 else 0
                      for _ in range(n)] for _ in range(m)], dtype=object))
        for A in cases:
            snf = smith_normal_form(A)
            assert snf.verify(A)
            want = invariant_factors(sympy.Matrix(A.tolist()),
                                     domain=sympy.ZZ)
            assert snf.invariant_factors == tuple(
                int(f) for f in want if f != 0)


# -- the pivot search in Python ints against the row-major walk ---------------

def walk_pivot(block):
    """First smallest nonzero |entry| of block, row-major, by the walk the
    Python-int pivot search once was: it stops at the first unit."""
    best, where = None, None
    for (i, j), x in np.ndenumerate(block):
        val = abs(int(x))
        if val and (best is None or val < best):
            best, where = val, (i, j)
            if val == 1:
                break
    return where


class TestObjectPivotSearch:
    """The chunked search in Python ints picks the walk's entry on ties,
    negative entries, entries past int64 and all-zero blocks."""

    VALUES = ((0,), (0, 0, 0, 2, -2, 4), (0, 1, -1, 3, -3),
              (0, 5, -5, 10, 15), (0, 2**70, -(2**70), 2**64 + 3, -3 * 2**64))

    def test_matches_the_walk(self):
        rng = random.Random(139)
        red = exact._Reduction(np.zeros((1, 1), dtype=np.int64))
        seen = {"none": 0, "tie": 0}
        for _ in range(400):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            values = rng.choice(self.VALUES)
            A = np.empty((m, n), dtype=object)
            for i in range(m):
                for j in range(n):
                    A[i, j] = rng.choice(values)
            t = rng.randint(0, min(m, n) - 1)
            red.a = A
            want = walk_pivot(A[t:, t:])
            got = red._pick_pivot(t)
            if want is None:
                seen["none"] += 1
                assert got is None
                continue
            assert got == (t + want[0], t + want[1])
            mags = [abs(int(x)) for x in A[t:, t:].ravel()]
            seen["tie"] += mags.count(min(x for x in mags if x)) > 1
        assert seen["none"] > 10 and seen["tie"] > 100

    def test_later_row_earlier_column_loses_a_tie(self):
        A = np.array([[0, 0, 0], [0, 6, -4], [-4, 4, 0]], dtype=object)
        red = exact._Reduction(np.zeros((1, 1), dtype=np.int64))
        red.a = A
        assert red._pick_pivot(0) == (1, 2) == walk_pivot(A)
        assert red._pick_pivot(2) is None


# -- the chunked pivot search against the dense argmin ------------------------

CHUNK = exact._PIVOT_CHUNK


def tall_matrix(rng, m, n, values, density=0.5):
    """m x n with entries drawn from values at the given density."""
    return np.array([[rng.choice(values) if rng.random() < density else 0
                      for _ in range(n)] for _ in range(m)], dtype=np.int64)


def first_pivots_agree(A, N=None):
    """The opening pivot of both engines, which must be the same entry."""
    got = exact._Reduction(A, mod=N)._pick_pivot(0)
    ref = DenseReduction(A, mod=N)._pick_pivot(0)
    assert got == ref
    return got


def unit_past_first_chunk(rng, N):
    """Even entries above row 2*CHUNK, odd ones below, one -1 among them."""
    m = rng.randint(2 * CHUNK + 10, 300)
    A = tall_matrix(rng, m, rng.randint(4, 9), [-4, -2, 2, 4, 6])
    tail = tall_matrix(rng, m - 2 * CHUNK, A.shape[1], [-3, 2, 3, 5])
    A[2 * CHUNK:] = tail
    A[2 * CHUNK + 3, 1] = -1
    return A % N


def tie_across_boundary(rng, N, boundary=CHUNK):
    """No unit; the only 2s sit in the last row of a chunk and the first
    row of the next, the later one in an earlier column.  Every chunk is
    CHUNK rows high, so the boundaries are the multiples of CHUNK."""
    m = rng.randint(boundary + CHUNK + 1, 300)
    n = rng.randint(4, 9)
    A = tall_matrix(rng, m, n, [4, -4, 6])
    A[boundary - 1, n - 1] = 2
    A[boundary, 0] = -2
    return A % N


def no_unit(rng, N, step):
    """Multiples of step only, the smallest magnitudes in the last rows."""
    m = rng.randint(2 * CHUNK + 1, 300)
    n = rng.randint(4, 9)
    A = tall_matrix(rng, m, n, [2 * step, -2 * step, 3 * step])
    A[-CHUNK // 2:] = tall_matrix(rng, CHUNK // 2, n, [step, -step, 2 * step])
    return A % N


class TestChunkedPivotSearch:
    """Blocks taller than two chunks: every pivot search crosses a chunk
    boundary, and the dense masked argmin must pick the same entries."""

    def cases(self, seed):
        rng = random.Random(seed)
        yield unit_past_first_chunk(rng, 12), 12
        yield unit_past_first_chunk(rng, 9), 9
        yield tie_across_boundary(rng, 12), 12
        yield tie_across_boundary(rng, 12, 2 * CHUNK), 12
        yield tie_across_boundary(rng, 12, 3 * CHUNK), 12
        yield no_unit(rng, 12, 2), 12
        yield no_unit(rng, 12, 3), 12

    def test_opening_pivots(self):
        rng = random.Random(61)
        A = unit_past_first_chunk(rng, 12)
        assert first_pivots_agree(A, 12) == (2 * CHUNK + 3, 1)
        A = tie_across_boundary(rng, 12)
        assert first_pivots_agree(A, 12) == (CHUNK - 1, A.shape[1] - 1)
        for boundary in (2 * CHUNK, 3 * CHUNK):
            A = tie_across_boundary(rng, 12, boundary)
            assert first_pivots_agree(A, 12) == (boundary - 1, A.shape[1] - 1)
        A = no_unit(rng, 12, 2)
        assert first_pivots_agree(A, 12)[0] >= A.shape[0] - CHUNK // 2

    def test_diagonalize_mod(self):
        for A, N in self.cases(67):
            assert_matches_dense(diagonalize_mod, A, N)

    def test_solve_congruences_and_carry(self):
        rng = random.Random(71)
        for A, N in self.cases(73):
            b = np.array([rng.randint(0, N - 1) for _ in range(A.shape[0])],
                         dtype=np.int64)
            assert_matches_dense(solve_congruences, A, b, N)
            # a right-hand side in the column span keeps the system feasible
            x = np.array([rng.randint(0, N - 1) for _ in range(A.shape[1])])
            assert_matches_dense(solve_congruences, A, (A @ x) % N, N)
            got = reduce_with_carry(exact._Reduction, A, b, N)
            ref = reduce_with_carry(DenseReduction, A, b, N)
            assert identical(got, ref)

    def test_smith_normal_form_int64(self):
        for A, _ in self.cases(79):
            first_pivots_agree(A)
            snf = assert_matches_dense(smith_normal_form, A[:, :5])
            assert snf.U.dtype == np.int64

    def test_smith_normal_form_object(self):
        rng = random.Random(83)
        big = 2**33
        for A, _ in list(self.cases(89))[::2]:
            A = (A[:2 * CHUNK + 4, :4] * big).astype(object)
            A[2 * CHUNK + 1, 2] = 1
            snf = assert_matches_dense(smith_normal_form, A)
            assert snf.U.dtype == object, "int64 path did not overflow"
        A = tall_matrix(rng, 2 * CHUNK + 4, 3, [2 * big, -3 * big, 5])
        assert smith_normal_form(A).U.dtype == object
        assert_matches_dense(smith_normal_form, A)


# -- an all-zero trailing block yields no pivot ------------------------------

def rational_rank(A):
    """The rank of A over Q, by Gaussian elimination in Fractions."""
    rows = [[Fraction(int(x)) for x in row] for row in A]
    rank = 0
    for c in range(A.shape[1]):
        p = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestNoZeroPivot:
    """A zero never ranks as a pivot, at any width: a reduction picks
    exactly rank(A) pivots and stops at the first all-zero trailing
    block, which the search leaves without a pivot."""

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                       object])
    def test_zero_block_has_no_pivot(self, dtype):
        red = exact._Reduction(np.zeros((1, 1), dtype=np.int64))
        # nonzero only in row 0 and column 0, across three chunks
        red.a = A = np.zeros((3 * CHUNK + 5, 6), dtype=dtype)
        A[0] = 1
        A[:, 0] = -1
        for t in range(1, 6):
            assert red._pick_pivot(t) is None
        A[2 * CHUNK + 2, 4] = -3
        assert red._pick_pivot(1) == (2 * CHUNK + 2, 4)
        assert red._pick_pivot(5) is None

    def test_pivot_count_is_the_rank(self):
        rng = random.Random(149)
        cases = list(TestChunkedPivotSearch().cases(151))
        for N in (2, 6, 9, 12, 400, 10**5, 10**10 + 19):
            for _ in range(10):
                m, n = rng.randint(1, 14), rng.randint(1, 10)
                cases.append((random_matrix(rng, m, n, -N, N, density=0.3), N))
        short = 0
        for A, N in cases:
            for mod in (N, None):
                red = CountPivots(A, mod=mod)
                d = red.diagonalize()
                ref = DenseReduction(A, mod=mod).diagonalize()
                rank = sum(x != 0 for x in ref)
                if mod is None:
                    assert rank == rational_rank(A)
                assert d == ref
                assert len(red.pivots) == rank
                assert all(p for p, _ in red.pivots), "a zero pivot"
                short += rank < min(A.shape)
        assert short > 20


# -- array enumeration of a solution's lattice points -----------------------

def product_points(sol):
    """The lattice points one at a time in Python ints, in the order of
    itertools.product over the generators' ranges."""
    for ts in itertools.product(*(range(o) for _, o in sol.generators)):
        x = list(sol.particular)
        for t, (gen, _) in zip(ts, sol.generators):
            x = [a + t * g for a, g in zip(x, gen)]
        yield tuple(a % sol.modulus for a in x)


def random_solution(rng, N, n, orders):
    gens = tuple((tuple(rng.randrange(N) for _ in range(n)), order)
                 for order in orders)
    return CongruenceSolution(N, tuple(rng.randrange(N) for _ in range(n)),
                              gens)


class TestEnumerate:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
    def test_matches_product_reference(self, k):
        rng = random.Random(f"enumerate:{k}")
        for _ in range(40):
            N = rng.choice([1, 2, 6, 12, 97, 1000])
            orders = [rng.choice([1, 2, 3, 4, 7]) for _ in range(k)]
            sol = random_solution(rng, N, rng.randrange(0, 6), orders)
            got = list(sol.enumerate())
            assert got == list(product_points(sol))
            assert len(got) == sol.count
            assert all(type(v) is int for x in got for v in x)

    @pytest.mark.parametrize("orders", [
        [exact._ENUM_BLOCK * 3 + 5],           # one generator cut in chunks
        [3, exact._ENUM_BLOCK // 2 + 1, 2],    # a chunked middle generator
        [5, 4, exact._ENUM_BLOCK // 4],        # a tail of exactly one block
        [2] * 13,                              # products across many blocks
    ])
    def test_block_boundaries(self, orders):
        rng = random.Random(str(orders))
        sol = random_solution(rng, 10_007, 3, orders)
        assert list(sol.enumerate()) == list(product_points(sol))

    def test_python_int_fallback(self):
        # k (N - 1)^2 >= 2^63 takes Python ints; with N near 2^60 and
        # coefficients up to a block, int64 products would wrap
        rng = random.Random(20191009)
        for N in (3 * 2**31, 2**60 + 33):
            k = 4
            assert k * (N - 1) ** 2 >= 1 << 63
            sol = random_solution(rng, N, 3, [2, 3, 5, exact._ENUM_BLOCK * 2])
            got = list(itertools.islice(sol.enumerate(), 3 * exact._ENUM_BLOCK))
            want = list(itertools.islice(product_points(sol),
                                         3 * exact._ENUM_BLOCK))
            assert got == want

    def test_memory_stays_bounded(self):
        rng = random.Random(7)
        sol = random_solution(rng, 1_000_003, 4, [10, 100, 100])
        assert sol.count == 10**5
        tracemalloc.start()
        try:
            seen = sum(1 for _ in sol.enumerate())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert seen == 10**5
        # every point kept at once would take some 20 MB
        assert peak < 1024 * 1024, peak
