"""Cohomology engine vs independent brute-force oracles."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

import crossbraid as cb
from crossbraid.cohomology import (
    CoefficientModule,
    Cochain,
    cohomology_group,
    count_splittings,
    differential,
    is_coboundary,
    is_cocycle,
    mu_module,
    pushforward,
    random_cochain,
    trivial_module,
)
from crossbraid.cohomology import _bar_matrix, _bar_system
from crossbraid.exact import diagonalize_mod
from crossbraid.groups import all_subgroups

from test_exact import assert_matches_dense, identical

C2 = cb.cyclic(2)
C3 = cb.cyclic(3)
C4 = cb.cyclic(4)
V4 = cb.builtin_group("C2xC2")
S3 = cb.builtin_group("S3")


def mul(G, a, b):
    """a b as a Python int, read off the table."""
    return int(G.table[a, b])


def power(G, a, k):
    """a^k by repeated multiplication; negative k through the inverse."""
    if k < 0:
        a, k = int(G.inverse[a]), -k
    x = 0
    for _ in range(k):
        x = mul(G, x, a)
    return x


def inversion_module(A, G, parity=None):
    """G acts on abelian A through +/-1; parity picks the inverting elements.

    The default (id mod 2) is a homomorphism to C2 for cyclic groups given by
    addition tables; other groups must pass their own parity map.
    """
    if parity is None:
        parity = lambda g: g % 2
    act = [tuple(A.inverse[a] for a in A.elements) if parity(g) % 2
           else tuple(A.elements) for g in G.elements]
    return CoefficientModule(A, G, act)


# -- oracle: dict-based differential written straight from the formula -------

def naive_differential(G, module, table, n):
    """table: dict mapping n-tuples to A ids; returns the (n+1)-table."""
    A = module.group
    out = {}
    for gs in itertools.product(G.elements, repeat=n + 1):
        val = module.act(gs[0], table[gs[1:]])
        sign = -1
        for i in range(1, n + 1):
            merged = gs[:i - 1] + (mul(G, gs[i - 1], gs[i]),) + gs[i + 1:]
            v = table[merged]
            val = mul(A, val, A.inverse[v] if sign < 0 else v)
            sign = -sign
        v = table[gs[:n]]
        out[gs] = mul(A, val, A.inverse[v] if sign < 0 else v)
    return out


def as_dict(c):
    return {gs: c.value(*gs) for gs in
            itertools.product(c.group.elements, repeat=c.degree)}


def brute_classes(G, module, n):
    """All normalized n-cocycle tables, grouped by coboundary cosets.

    Returns (cocycles, coboundaries) as sets of full-table tuples in the
    dense index order used by Cochain.
    """
    A = module.group
    s = G.order
    slots = [gs for gs in itertools.product(G.elements, repeat=n) if 0 not in gs]
    all_tuples = list(itertools.product(G.elements, repeat=n))

    def dense(assign):
        table = dict.fromkeys(all_tuples, 0)
        table.update(zip(slots, assign))
        return table

    cocycles = set()
    for assign in itertools.product(A.elements, repeat=len(slots)):
        table = dense(assign)
        d = naive_differential(G, module, table, n)
        if all(v == 0 for v in d.values()):
            cocycles.add(tuple(table[t] for t in all_tuples))
    prev_slots = [gs for gs in itertools.product(G.elements, repeat=n - 1)
                  if 0 not in gs]
    prev_all = list(itertools.product(G.elements, repeat=n - 1))
    coboundaries = set()
    for assign in itertools.product(A.elements, repeat=len(prev_slots)):
        table = dict.fromkeys(prev_all, 0)
        table.update(zip(prev_slots, assign))
        d = naive_differential(G, module, table, n - 1)
        coboundaries.add(tuple(d[t] for t in all_tuples))
    return cocycles, coboundaries


BRUTE_CONFIGS = [
    (C2, "C2", 1), (C2, "C3", 1), (C2, "C4", 1),
    (C3, "C2", 1), (C3, "C3", 1), (C3, "C4", 1),
    (C4, "C2", 1), (C4, "C3", 1), (C4, "C4", 1),
    (V4, "C2", 1), (V4, "C3", 1), (V4, "C4", 1),
    (C2, "C2", 2), (C2, "C3", 2), (C2, "C4", 2),
    (C3, "C2", 2), (C3, "C3", 2), (C3, "C4", 2),
    (C4, "C2", 2), (V4, "C2", 2),
    (C2, "C2", 3), (C2, "C3", 3), (C2, "C4", 3),
    (C3, "C2", 3), (C3, "C3", 3),
]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("G,As,n", BRUTE_CONFIGS,
                             ids=[f"{g.name}-{a}-H{n}" for g, a, n in BRUTE_CONFIGS])
    def test_order_and_class_reps(self, G, As, n):
        module = trivial_module(cb.builtin_group(As))
        Z, B = brute_classes(G, module, n)
        assert len(Z) % len(B) == 0
        H = cohomology_group(G, n, module)
        assert H.order == len(Z) // len(B)
        # every listed class is a genuine cocycle and no two are cohomologous
        reps = [H.class_representative(i) for i in range(H.order)]
        seen = set()
        for rep in reps:
            assert rep.table in Z
            coset = frozenset(
                tuple(mul(module.group, x, b) for x, b in zip(rep.table, bt))
                for bt in B)
            assert coset not in seen
            seen.add(coset)

    @pytest.mark.parametrize("G,A,n", [
        (C2, C4, 1), (C2, C4, 2), (C2, C3, 1), (C2, C3, 2),
    ], ids=["C4inv-H1", "C4inv-H2", "C3inv-H1", "C3inv-H2"])
    def test_nontrivial_action_orders(self, G, A, n):
        module = inversion_module(A, G)
        Z, B = brute_classes(G, module, n)
        H = cohomology_group(G, n, module)
        assert H.order == len(Z) // len(B)

    def test_pinned_inversion_values(self):
        Minv = inversion_module(C4, C2)
        assert cohomology_group(C2, 1, Minv).invariant_factors == (2,)
        assert cohomology_group(C2, 2, Minv).invariant_factors == (2,)
        M3 = inversion_module(C3, C2)
        assert cohomology_group(C2, 1, M3).invariant_factors == ()
        assert cohomology_group(C2, 2, M3).invariant_factors == ()


class TestPinnedValues:
    def test_small_trivial_action(self):
        assert cohomology_group(C2, 1, trivial_module(C2)).invariant_factors == (2,)
        assert cohomology_group(C2, 2, trivial_module(C2)).invariant_factors == (2,)
        assert cohomology_group(C2, 3, mu_module(4)).invariant_factors == (2,)
        assert cohomology_group(C4, 2, trivial_module(C4)).invariant_factors == (4,)
        assert cohomology_group(V4, 2, trivial_module(C2)).order == 8

    def test_h3_battery(self):
        expected = {"C2": 2, "C3": 3, "C4": 4, "C6": 6, "C2xC2": 16, "S3": 6}
        for name, order in expected.items():
            G = cb.builtin_group(name)
            H = cohomology_group(G, 3, mu_module(G.order))
            assert H.order == order, name

    def test_h1_is_hom_group(self):
        for G in (C2, C3, C4, V4, S3, cb.builtin_group("Q8")):
            for A in (C2, C3, C4):
                H = cohomology_group(G, 1, trivial_module(A))
                assert H.order == cb.count_homs_to_abelian(G, A)

    def test_h0_is_invariants(self):
        assert cohomology_group(C2, 0, trivial_module(C4)).order == 4
        assert cohomology_group(C2, 0, inversion_module(C4, C2)).invariant_factors == (2,)
        assert cohomology_group(C2, 0, inversion_module(C3, C2)).order == 1

    def test_schur_multiplier_style_values(self):
        assert cohomology_group(S3, 2, trivial_module(C2)).order == 2
        assert cohomology_group(S3, 1, trivial_module(C3)).order == 1


class TestDifferential:
    def test_matches_naive_on_random(self):
        rng = random.Random(31)
        configs = [(C2, trivial_module(C4)), (C3, trivial_module(C3)),
                   (S3, trivial_module(C2)), (C2, inversion_module(C4, C2)),
                   (C4, inversion_module(C3, C4)),
                   (S3, inversion_module(C3, S3,
                                         parity=lambda g: S3.element_orders[g] == 2))]
        for G, module in configs:
            for n in range(0, 3):
                for _ in range(5):
                    c = random_cochain(G, module, n, rng, normalized=False)
                    got = differential(c)
                    want = naive_differential(G, module, as_dict(c), n)
                    assert as_dict(got) == want

    def test_dd_is_zero(self):
        rng = random.Random(77)
        configs = [(C2, trivial_module(C2)), (C4, trivial_module(C4)),
                   (S3, trivial_module(C3)), (V4, trivial_module(C4)),
                   (C2, inversion_module(C4, C2)),
                   (S3, inversion_module(C3, S3,
                                         parity=lambda g: S3.element_orders[g] == 2))]
        for G, module in configs:
            for n in (0, 1, 2):
                for _ in range(6):
                    c = random_cochain(G, module, n, rng, normalized=False)
                    assert differential(differential(c)).is_zero

    def test_constant_identity_maps_to_zero(self):
        for n in (0, 1, 2, 3):
            z = Cochain.zero(S3, trivial_module(C4), n)
            assert differential(z).is_zero

    def test_degree_one_formula_instance(self):
        # (d c)(1,1) = action(1)(a) + a for normalized degree-1 c on C2
        M = trivial_module(C4)
        c = Cochain(1, C2, M, (0, 1), normalized=True)
        assert differential(c).value(1, 1) == 2
        Minv = inversion_module(C4, C2)
        c = Cochain(1, C2, Minv, (0, 1), normalized=True)
        assert differential(c).value(1, 1) == 0

    def test_degree_cap(self):
        c = Cochain.zero(C2, trivial_module(C2), 4)
        with pytest.raises(cb.DegreeTooHigh):
            differential(c)

    @pytest.mark.parametrize("order, degree", [(65, 3), (257, 2)])
    def test_cell_limit_is_read_before_any_gather(self, order, degree):
        # the degree-3 check at the order-64 subgroup cap is the largest
        # admitted: 64^4 cells
        c = Cochain.zero(cb.cyclic(order), mu_module(2), degree)
        tracemalloc.start()
        try:
            for check in (differential, is_cocycle):
                with pytest.raises(cb.BudgetExceeded) as err:
                    check(c)
                assert f"{order ** (degree + 1)} cells" in str(err.value)
                assert str(64 ** 4) in str(err.value)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16, peak

    def test_normalization_preserved(self):
        rng = random.Random(5)
        c = random_cochain(S3, trivial_module(C4), 2, rng, normalized=True)
        assert differential(c).is_normalized


class TestCoboundary:
    def test_differentials_are_coboundaries_with_exact_witness(self):
        rng = random.Random(11)
        configs = [(C2, trivial_module(C4)), (C3, trivial_module(C2)),
                   (C4, trivial_module(C3)), (C2, inversion_module(C4, C2))]
        for G, module in configs:
            for n in (0, 1, 2):
                x = random_cochain(G, module, n, rng, normalized=False)
                c = differential(x)
                w = is_coboundary(c)
                assert w is not None
                assert differential(w) == c

    def test_nontrivial_three_cocycle_on_c2(self):
        # the only normalized 2-cochain values on C2 are c(1,1); neither of
        # the two candidates hits the nontrivial cocycle
        M = mu_module(2)
        omega = Cochain.from_function(
            C2, M, 3, lambda g, h, k: 1 if g == h == k == 1 else 0,
            normalized=True)
        assert is_cocycle(omega)
        assert is_coboundary(omega) is None

    def test_nontrivial_two_cocycle_on_c2(self):
        M = mu_module(2)
        omega = Cochain.from_function(
            C2, M, 2, lambda g, h: 1 if g == h == 1 else 0, normalized=True)
        assert is_cocycle(omega)
        assert is_coboundary(omega) is None

    def test_non_cocycle_detected(self):
        # on C3 the lone entry c(1,1)=1 breaks the cocycle identity at (1,1,2)
        M = mu_module(3)
        c = Cochain.from_function(
            C3, M, 2, lambda g, h: 1 if g == h == 1 else 0, normalized=True)
        assert not is_cocycle(c)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            is_coboundary(Cochain.zero(C2, trivial_module(C2), 0))


class TestCohomologyGroupStructure:
    def test_representative_orders(self):
        H = cohomology_group(C4, 2, trivial_module(C4))
        assert H.invariant_factors == (4,)
        rep = H.representatives[0]
        assert is_coboundary(rep) is None
        assert is_coboundary(rep.scale(2)) is None
        assert is_coboundary(rep.scale(4)) is not None

    def test_class_enumeration_is_exhaustive(self):
        H = cohomology_group(V4, 2, trivial_module(C2))
        reps = list(H.classes())
        assert len(reps) == 8
        assert all(is_cocycle(r) for r in reps)
        assert len({r.table for r in reps}) == 8

    def test_class_index_bounds(self):
        H = cohomology_group(C2, 2, trivial_module(C2))
        with pytest.raises(ValueError):
            H.class_representative(2)
        assert H.class_representative(0).is_zero

    def test_budget(self):
        with pytest.raises(cb.BudgetExceeded):
            cohomology_group(S3, 3, mu_module(6), budget=10)

    def test_degree_cap(self):
        with pytest.raises(cb.DegreeTooHigh):
            cohomology_group(C2, 4, mu_module(2))

    def test_action_group_mismatch(self):
        with pytest.raises(cb.ParentMismatch):
            cohomology_group(C4, 1, inversion_module(C3, C2))

    def test_trivial_coefficients(self):
        H = cohomology_group(S3, 2, trivial_module(cb.trivial_group()))
        assert H.order == 1 and H.representatives == ()

    def test_escaping_image_vector_is_caught(self, monkeypatch):
        # rolled rows of the carried Vinv W, as a wrong column inverse
        # would give, put coboundaries off the steps of the cocycle
        # lattice, which the escape check must see
        from crossbraid import cohomology
        real = cohomology.diagonalize_mod

        calls = []

        def rolled(A, modulus, image=None, overwrite=False):
            calls.append(overwrite)
            d, V, Y = real(A, modulus, image=image, overwrite=overwrite)
            return d, V, np.roll(Y, 1, axis=0)

        assert cohomology_group(C4, 2, mu_module(4)).invariant_factors == (4,)
        monkeypatch.setattr(cohomology, "diagonalize_mod", rolled)
        with pytest.raises(cb.NotACocycle,
                           match="escapes the cocycle kernel"):
            cohomology_group(C4, 2, mu_module(4))
        # the stacked system is handed over to be reduced in place
        assert calls == [True]

    def test_deterministic(self):
        a = cohomology_group(V4, 2, trivial_module(C4))
        b = cohomology_group(V4, 2, trivial_module(C4))
        assert a.invariant_factors == b.invariant_factors
        assert [r.table for r in a.representatives] == \
               [r.table for r in b.representatives]


class TestModuleAndCochainValidation:
    def test_module_rejects_nonabelian(self):
        with pytest.raises(cb.NotAbelian):
            trivial_module(S3)

    def test_module_rejects_bad_action(self):
        with pytest.raises(cb.NotAHomomorphism):
            CoefficientModule(C4, C2, [(0, 1, 2, 3), (0, 0, 0, 0)])
        with pytest.raises(cb.NotAHomomorphism):
            # transposition of 1 and 2 is a bijection but not an automorphism
            CoefficientModule(C4, C2, [(0, 1, 2, 3), (0, 2, 1, 3)])
        with pytest.raises(cb.NotAHomomorphism):
            # nontrivial map at the identity
            CoefficientModule(C4, C2, [(0, 3, 2, 1), (0, 1, 2, 3)])
        with pytest.raises(ValueError):
            CoefficientModule(C4, C2)

    def test_module_rejects_non_multiplicative_action(self):
        # order-4 automorphism cycle on C2xC2 cannot come from C2
        A = V4
        aut = (0, 2, 3, 1)
        with pytest.raises(cb.NotAHomomorphism):
            CoefficientModule(A, C2, [tuple(range(4)), aut])

    def test_cochain_validation(self):
        M = trivial_module(C2)
        with pytest.raises(ValueError):
            Cochain(2, C2, M, (0, 0, 0))
        with pytest.raises(ValueError):
            Cochain(1, C2, M, (0, 5))
        with pytest.raises(ValueError):
            Cochain(1, C2, M, (1, 0), normalized=True)

    def test_cochain_arithmetic(self):
        M = trivial_module(C4)
        a = Cochain(1, C2, M, (0, 1), normalized=True)
        b = Cochain(1, C2, M, (0, 3), normalized=True)
        assert (a + b).is_zero
        assert (a - a).is_zero
        assert (-a).table == (0, 3)
        assert a.scale(3).table == (0, 3)
        with pytest.raises(cb.ParentMismatch):
            a + Cochain(1, C2, trivial_module(C2), (0, 1))

    def test_value_arity(self):
        M = trivial_module(C2)
        c = Cochain.zero(C2, M, 2)
        with pytest.raises(ValueError):
            c.value(1)


class TestPushforward:
    def test_identity_and_zero_maps(self):
        rng = random.Random(3)
        M = trivial_module(C4)
        c = random_cochain(S3, M, 2, rng)
        ident = cb.GroupHom(C4, C4, (0, 1, 2, 3))
        assert pushforward(c, ident).table == c.table
        zero = cb.GroupHom(C4, cb.trivial_group(), (0, 0, 0, 0))
        assert pushforward(c, zero).is_zero

    def test_projection_kills_supported_factor(self):
        prodAB = cb.product_group(C2, C3)
        M = trivial_module(prodAB)
        # cochain supported in the C2 factor; project onto the C3 factor
        rng = random.Random(9)
        c = Cochain.from_function(C4, M, 2,
                                  lambda g, h: 3 * rng.randrange(2))
        proj = cb.GroupHom(prodAB, C3, tuple(x % 3 for x in range(6)))
        assert pushforward(c, proj).is_zero

    def test_cocycle_property_preserved(self):
        H = cohomology_group(C4, 2, trivial_module(C4))
        rep = H.representatives[0]
        red = cb.GroupHom(C4, C2, (0, 1, 0, 1))
        assert is_cocycle(pushforward(rep, red))

    def test_domain_mismatch(self):
        c = Cochain.zero(C2, trivial_module(C2), 1)
        f = cb.GroupHom(C4, C2, (0, 1, 0, 1))
        with pytest.raises(cb.NotAHomomorphism):
            pushforward(c, f)

    def test_equivariance_required(self):
        Minv = inversion_module(C4, C2)
        c = Cochain(1, C2, Minv, (0, 1))
        ident = cb.GroupHom(C4, C4, (0, 1, 2, 3))
        with pytest.raises(cb.NotAHomomorphism):
            pushforward(c, ident, target=trivial_module(C4))

    def test_equivariant_target_accepted(self):
        Minv = inversion_module(C4, C2)
        c = Cochain(1, C2, Minv, (0, 1))
        doubling = cb.GroupHom(C4, C4, (0, 2, 0, 2))
        out = pushforward(c, doubling, target=trivial_module(C4))
        assert out.table == (0, 2)


def brute_section_count(G, A, omega):
    """Count homomorphic sections of the central extension A x_omega G -> G."""
    E_elems = list(itertools.product(A.elements, G.elements))
    idx = {x: i for i, x in enumerate(E_elems)}

    def emul(x, y):
        (a, g), (b, h) = x, y
        return (mul(A, mul(A, a, b), omega.value(g, h)), mul(G, g, h))

    count = 0
    others = [g for g in G.elements if g]
    for choice in itertools.product(A.elements, repeat=len(others)):
        sec = {0: (0, 0)}
        sec.update({g: (x, g) for g, x in zip(others, choice)})
        if all(emul(sec[g], sec[h]) == sec[mul(G, g, h)]
               for g in G.elements for h in G.elements):
            count += 1
    return count


class TestCountSplittings:
    def test_c2_by_c2(self):
        M = trivial_module(C2)
        H = cohomology_group(C2, 2, M)
        nontrivial = H.representatives[0]
        assert count_splittings(M, C2, nontrivial) == 0
        assert count_splittings(M, C2, Cochain.zero(C2, M, 2)) == 2

    def test_trivial_coefficients(self):
        M = trivial_module(cb.trivial_group())
        assert count_splittings(M, S3, Cochain.zero(S3, M, 2)) == 1

    def test_matches_brute_sections(self):
        for G in (C2, C3, V4):
            for A in (C2, C3):
                M = trivial_module(A)
                H = cohomology_group(G, 2, M)
                for omega in H.classes():
                    assert count_splittings(M, G, omega) == \
                        brute_section_count(G, A, omega)

    def test_invariant_under_coboundary_shift(self):
        rng = random.Random(21)
        M = trivial_module(C2)
        H = cohomology_group(V4, 2, M)
        for omega in (H.class_representative(0), H.class_representative(5)):
            base = count_splittings(M, V4, omega)
            for _ in range(3):
                chi = random_cochain(V4, M, 1, rng)
                shifted = omega + differential(chi)
                assert count_splittings(M, V4, shifted) == base

    def test_rejects_nontrivial_action(self):
        Minv = inversion_module(C4, C2)
        with pytest.raises(cb.NonTrivialAction):
            count_splittings(Minv, C2, Cochain.zero(C2, Minv, 2))

    def test_rejects_non_cocycle(self):
        M = trivial_module(C3)
        bad = Cochain.from_function(C3, M, 2,
                                    lambda g, h: 1 if g == h == 1 else 0)
        with pytest.raises(cb.NotACocycle):
            count_splittings(M, C3, bad)


# -- identity oracle: the per-tuple bar matrix and the dense sweeps ------------

def loop_bar_matrix(G, module, n, normalized):
    """The per-tuple construction that _bar_matrix replaced."""
    s, k, e = G.order, module.rank, module.exponent
    rng = range(1, s) if normalized else range(s)
    ins = list(itertools.product(rng, repeat=n))
    outs = list(itertools.product(rng, repeat=n + 1))
    pos = {t: i for i, t in enumerate(ins)}
    D = np.zeros((len(outs) * k, len(ins) * k), dtype=np.int64)
    eye = np.eye(k, dtype=np.int64)
    for o, h in enumerate(outs):
        row = o * k

        def put(t, blk):
            col = pos[t] * k
            D[row:row + k, col:col + k] += blk

        put(h[1:], module.scaled_action(h[0]))
        sign = -1
        for i in range(1, n + 1):
            m = mul(G, h[i - 1], h[i])
            if not (normalized and m == 0):
                put(h[:i - 1] + (m,) + h[i + 1:], sign * eye)
            sign = -sign
        put(h[:n], sign * eye)
    return D % e, ins, outs


ORDER_LE_6 = ("C1", "C2", "C3", "C4", "C5", "C6", "C2xC2", "S3")
ORDER_LE_8 = ORDER_LE_6 + ("C7", "C8", "C2xC4", "C2xC2xC2", "D8", "Q8")
BAR_CASES = [(name, 3) for name in ORDER_LE_6] + [(name, 2) for name in ORDER_LE_8]


def bar_modules(G):
    """mu_|G|, plus mu_|G| inverted by the elements outside an index-2
    subgroup when G has one."""
    A = cb.cyclic(G.order)
    yield "mu", trivial_module(A)
    for H in all_subgroups(G):
        if H.index == 2:
            inside = set(H.elements)
            yield "inversion", inversion_module(A, G, lambda g: g not in inside)
            return


class TestMatchesReferenceEngine:
    @pytest.mark.parametrize("name,n", BAR_CASES,
                             ids=[f"{name}-d{n}" for name, n in BAR_CASES])
    def test_bar_matrix_and_diagonalization(self, name, n):
        G = cb.builtin_group(name)
        for tag, module in bar_modules(G):
            for normalized in (True, False):
                for degree in range(n + 1):
                    got = _bar_matrix(G, module, degree, normalized)
                    ref = loop_bar_matrix(G, module, degree, normalized)
                    assert identical(got, ref), (tag, normalized, degree)
                D = got[0]
                assert_matches_dense(diagonalize_mod, D, module.exponent)

    def test_bar_system_stacks_the_constraint_rows(self):
        # coefficients of mixed orders, so some coordinates are constrained
        for name, coeff in (("C2xC2", "C2xC4"), ("S3", "C2xC6")):
            G = cb.builtin_group(name)
            module = trivial_module(cb.builtin_group(coeff))
            e = module.exponent
            for n in (1, 2):
                for normalized in (True, False):
                    system, ins = _bar_system(G, module, n, normalized)
                    D, want_ins, _ = loop_bar_matrix(G, module, n, normalized)
                    cols = D.shape[1]
                    orders = list(module.orders) * (cols // module.rank)
                    cons = [[orders[j] if j == c else 0 for j in range(cols)]
                            for c in range(cols) if orders[c] < e]
                    assert cons, (name, coeff)
                    assert system.dtype == np.int8
                    assert ins == want_ins
                    assert system.tolist() == D.tolist() + cons

    @pytest.mark.parametrize("name,coeff", [("S3", "C6"), ("C2xC2", "C2xC4")])
    def test_bar_system_cost_is_read_off_the_shape(self, name, coeff,
                                                   monkeypatch):
        # the array, V and an image block of one column per input of
        # d_{n-1}, all at the width, against one fixed limit
        G = cb.builtin_group(name)
        module = trivial_module(cb.builtin_group(coeff))
        cases = [(n, normalized, _bar_system(G, module, n, normalized)[0])
                 for n in (1, 2, 3) for normalized in (True, False)]
        for n, normalized, system in cases:
            rows, cols = system.shape
            image = cols // (G.order - normalized)
            cost = (rows + cols + image) * cols * system.itemsize
            monkeypatch.setattr(cb.cohomology, "BAR_SYSTEM_BYTES", cost)
            _bar_system(G, module, n, normalized)
            monkeypatch.setattr(cb.cohomology, "BAR_SYSTEM_BYTES", cost - 1)
            with pytest.raises(cb.BudgetExceeded, match=f"takes {cost} bytes"):
                _bar_system(G, module, n, normalized)

    def test_bar_system_limit_admits_order_16(self):
        # d_3 of an order-16 group on the normalized subcomplex, at int8:
        # the largest system the reaches build
        rows, cols = 15 ** 4, 15 ** 3
        cost = (rows + cols + 15 ** 2) * cols
        assert cost <= cb.cohomology.BAR_SYSTEM_BYTES

    def test_inversion_modules_exist(self):
        tags = {name: [t for t, _ in bar_modules(cb.builtin_group(name))]
                for name in ORDER_LE_8}
        assert tags["S3"] == tags["D8"] == tags["C2xC2"] == ["mu", "inversion"]
        assert tags["C5"] == tags["C7"] == ["mu"]


# -- array-backed cochains: every check still fires, the loop stays the oracle --

NOT_AN_ID = [-1, 4, 2 ** 63, 2 ** 70, 1.7, "1"]


class TestCochainChecks:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_rejects_wrong_length(self, n):
        M = trivial_module(C4)
        for size in (3 ** n - 1, 3 ** n + 1):
            with pytest.raises(ValueError):
                Cochain(n, C3, M, (0,) * size)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("bad", NOT_AN_ID,
                             ids=["negative", "order", "2^63", "2^70",
                                  "fraction", "string"])
    def test_rejects_entry_that_is_no_coefficient_id(self, n, bad):
        M = trivial_module(C4)
        table = [0] * 3 ** n
        table[-1] = bad     # the last tuple, (2, ..., 2), is not degenerate
        givens = [table, tuple(table), np.array(table)]
        if isinstance(bad, int) and 0 <= bad < 2 ** 64:
            givens.append(np.array(table, dtype=np.uint64))
        if not isinstance(bad, int):
            # as in (0.0, 1.7): integral floats beside the bad entry
            givens.append([0.0] * (3 ** n - 1) + [bad])
        for given in givens:
            with pytest.raises(ValueError):
                Cochain(n, C3, M, given)

    @pytest.mark.parametrize("s", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_degenerate_slots_match_the_digit_formula(self, s, n):
        flat = np.arange(s ** n)
        hit = np.zeros(s ** n, dtype=bool)
        for j in range(n):
            hit |= flat // s ** j % s == 0
        slots = cb.cohomology._degenerate_slots(s, n)
        assert slots.dtype == np.flatnonzero(hit).dtype
        assert slots.tolist() == np.flatnonzero(hit).tolist()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rejects_nonzero_degenerate_entry_flagged_normalized(self, n):
        M = trivial_module(C4)
        zero = Cochain.zero(C3, M, n)
        for gs in itertools.product(range(3), repeat=n):
            table = [0] * 3 ** n
            table[zero.index(gs)] = 1
            if 0 in gs:
                with pytest.raises(ValueError):
                    Cochain(n, C3, M, table, normalized=True)
                assert not Cochain(n, C3, M, table).is_normalized
            else:
                assert Cochain(n, C3, M, table, normalized=True).is_normalized

    @pytest.mark.parametrize("order, degree", [(257, 3), (5, 11)])
    def test_zero_cochain_cell_limit_is_read_before_any_table(self, order,
                                                             degree):
        # 256^3 = 64^4 cells is the largest zero table admitted
        G, M = cb.cyclic(order), mu_module(2)
        tracemalloc.start()
        try:
            with pytest.raises(cb.BudgetExceeded) as err:
                Cochain.zero(G, M, degree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"{order ** degree} cells" in str(err.value)
        assert str(64 ** 4) in str(err.value)
        assert peak < 2 ** 16, peak

    def test_degree_zero_has_no_degenerate_entry(self):
        c = Cochain(0, C3, trivial_module(C4), (3,), normalized=True)
        assert c.is_normalized and not c.is_zero

    def test_table_is_a_tuple_of_ints_whatever_it_was_given_as(self):
        M = trivial_module(C4)
        for given in ([0, 1, 2], (0, 1, 2), np.array([0, 1, 2]),
                      np.array([0, 1, 2], dtype=np.uint8)):
            c = Cochain(1, C3, M, given)
            assert c.table == (0, 1, 2)
            assert all(type(x) is int for x in c.table)
            assert hash(c) == hash(Cochain(1, C3, M, (0, 1, 2)))

    def test_caller_array_is_copied(self):
        given = np.array([0, 1, 2])
        c = Cochain(1, C3, trivial_module(C4), given)
        given[1] = 3
        assert c.table == (0, 1, 2)

    def test_arithmetic_matches_entrywise_tables(self):
        rng = random.Random(8)
        for A in (C4, V4, cb.builtin_group("C2xC4")):
            M = trivial_module(A)
            for n in (0, 1, 2):
                a = random_cochain(S3, M, n, rng, normalized=False)
                b = random_cochain(S3, M, n, rng, normalized=False)
                assert (a + b).table == tuple(
                    mul(A, x, y) for x, y in zip(a.table, b.table))
                assert (-a).table == tuple(int(A.inverse[x]) for x in a.table)
                assert (a - b).table == tuple(
                    mul(A, x, int(A.inverse[y])) for x, y in zip(a.table, b.table))
                for k in (-3, 0, 1, 2, 5):
                    assert a.scale(k).table == tuple(power(A, x, k)
                                                     for x in a.table)


LOOP_GROUPS = ("C4", "S3", "D8")


class TestDifferentialAgainstLoop:
    @pytest.mark.parametrize("name", LOOP_GROUPS)
    def test_random_cochains_and_their_coboundaries(self, name):
        G = cb.builtin_group(name)
        rng = random.Random(41)
        tags = []
        for tag, module in bar_modules(G):
            tags.append(tag)
            for n in range(4):
                for normalized in (True, False):
                    c = random_cochain(G, module, n, rng, normalized)
                    want = naive_differential(G, module, as_dict(c), n)
                    assert as_dict(differential(c)) == want, (tag, n)
                    assert is_cocycle(c) == (not any(want.values()))
                    if n < 3:
                        b = differential(c)
                        after = naive_differential(G, module, as_dict(b), n + 1)
                        assert not any(after.values())
                        assert is_cocycle(b)
        assert tags == ["mu", "inversion"]

    @pytest.mark.parametrize("name", ["C3", "C4", "C6", "C2xC2", "S3", "D8",
                                      "Q8"])
    def test_flipping_one_entry_breaks_a_stored_cocycle(self, name):
        H = cb.load_h3_fixture(name)
        assert H.representatives
        for rep in H.representatives:
            assert is_cocycle(rep)
            table = list(rep.table)
            i = rep.index((1, 1, 1))
            table[i] = (table[i] + 1) % rep.module.group.order
            flipped = Cochain(3, rep.group, rep.module, table, normalized=True)
            assert not is_cocycle(flipped)
            assert any(naive_differential(rep.group, rep.module,
                                          as_dict(flipped), 3).values())
