"""Release gate: the ten headline checks, each timed against its budget.

Every test here pins an externally meaningful number or a cross-oracle
equality; nothing may be loosened.  Budgets are wall-clock seconds.
"""

import io
import itertools
import json
import math
import random
import time
import tracemalloc

import numpy as np

import crossbraid as cb
from crossbraid.braidings import (
    GradingSpec,
    check_theorem_conditions,
    enumerate_pointed,
    enumerate_rep,
    gradings_of_rep,
)
from crossbraid.cli import run
from crossbraid.cohomology import (
    Cochain,
    cohomology_group,
    differential,
    is_cocycle,
    mu_module,
    random_cochain,
    trivial_module,
)
from crossbraid.groups import (
    Subgroup,
    conjugacy_classes,
    count_homs_to_abelian,
    is_isomorphic,
    product_group,
    quotient,
    subgroup_as_group,
)
from crossbraid.obstructions import fibered_enrichment_extends, zesting_lift_exists
from crossbraid.subcats import centralizer_subcat, enumerate_subcats, fpdim
from crossbraid.twisted_center import (
    TwistedGroupData,
    beta_restricted_cocycle,
    invertibles_of_center,
    simple_census,
)

from test_cohomology import BRUTE_CONFIGS, brute_classes, inversion_module

BATTERY = ("C2", "C3", "C4", "C6", "C2xC2", "S3", "D8", "Q8")

ORDER_LE_8 = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8",
              "C2xC2", "C2xC4", "C2xC2xC2", "S3", "D8", "Q8")

ORDER_LE_16 = ("C2", "C3", "C4", "C5", "C6", "C8", "C2xC2", "C2xC4",
               "C2xC2xC2", "C3xC3", "C12", "C2xC6", "C16", "C4xC4",
               "C2xC8", "S3", "D8", "Q8", "D12", "D16")


class Budget:
    """Asserts the block finished inside its wall-clock allowance."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.limit, \
                f"took {elapsed:.2f}s against a {self.limit}s budget"
        return False


class MemoryBudget:
    """Asserts the block's tracemalloc peak stayed under its allowance."""

    def __init__(self, megabytes):
        self.limit = megabytes * 2**20

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        if exc_type is None:
            assert peak < self.limit, \
                f"traced peak {peak / 2**20:.0f} MB against a " \
                f"{self.limit / 2**20:.0f} MB budget"
        return False


def go_json(*argv):
    buf = io.StringIO()
    code = run(list(argv), out=buf)
    return code, json.loads(buf.getvalue())


def witness_set(certs):
    return {(c.witness.L.elements, c.witness.M.elements, c.witness.B.table)
            for c in certs}


def test_criterion_01_unique_braiding_per_twist():
    with Budget(10):
        for name in ("C2", "C4", "S3", "D8", "Q8"):
            classes = cb.load_h3_fixture(name, verify=False).class_count
            for k in range(classes):
                code, doc = go_json("crossed-pointed", "--group", name,
                                    "--omega", f"repr:{k}",
                                    "--grading", "full")
                assert code == 0
                assert doc["count"] == 1, f"{name} repr:{k}"


def test_criterion_02_noncentral_kernel_rejected():
    with Budget(1):
        code, doc = go_json("crossed-pointed", "--group", "S3",
                            "--grading", "quotient-by:0,3,4")
        assert code == 2
        assert doc["count"] == 0
        assert doc["certificates"] == []
        assert doc["reason"] == "kernel-not-central"


def _brute_bicharacter_count(n):
    """Pairings on Z_n additive in both slots, counted by exhaustion over
    row tuples (each row itself found by exhaustion over all functions)."""
    rng = range(n)
    homs = [r for r in itertools.product(rng, repeat=n)
            if all(r[(x + y) % n] == (r[x] + r[y]) % n
                   for x in rng for y in rng)]
    count = 0
    for rows in itertools.product(homs, repeat=n):
        if all(rows[(x + y) % n][z] == (rows[x][z] + rows[y][z]) % n
               for x in rng for y in rng for z in rng):
            count += 1
    return count


def test_criterion_03_rep_braiding_counts_on_cyclic_groups():
    with Budget(10):
        for n in (2, 3, 4, 6):
            G = cb.cyclic(n)
            certs = enumerate_rep(G, Subgroup(G, (0,)))
            assert len(certs) == n
            assert _brute_bicharacter_count(n) == n


def test_criterion_04_theorem_filter_matches_both_enumerators():
    with Budget(60):
        for name in ORDER_LE_8:
            G = cb.builtin_group(name)
            data = TwistedGroupData.trivial(G)
            subs = enumerate_subcats(data)
            for N in cb.normal_subgroups(G):
                _, pi = quotient(G, N)
                grading = GradingSpec.pointed(pi)
                filtered = {(s.L.elements, s.M.elements, s.B.table)
                            for s in subs
                            if check_theorem_conditions(data, grading, s)}
                assert witness_set(enumerate_pointed(data, pi)) == filtered, \
                    f"pointed mismatch on {name} / {N.elements}"
            for grading in gradings_of_rep(G):
                filtered = {(s.L.elements, s.M.elements, s.B.table)
                            for s in subs
                            if check_theorem_conditions(data, grading, s)}
                direct = witness_set(enumerate_rep(G, grading.central))
                assert direct == filtered, \
                    f"rep mismatch on {name} / {grading.central.elements}"


def test_criterion_05_fpdim_duality_and_double_centralizer():
    with Budget(30):
        for name in BATTERY:
            G = cb.builtin_group(name)
            square = G.order ** 2
            H = cb.load_h3_fixture(name, verify=False)
            twists = (TwistedGroupData.trivial(G),
                      TwistedGroupData(G, H.class_representative(1)))
            for data in twists:
                for s in enumerate_subcats(data):
                    dual = centralizer_subcat(s)
                    assert fpdim(s) * fpdim(dual) == square
                    assert centralizer_subcat(dual) == s


def test_criterion_06_beta_restrictions_are_cocycles():
    with Budget(30):
        for name in BATTERY:
            H = cb.load_h3_fixture(name)
            for k in range(H.class_count):
                data = TwistedGroupData(H.group, H.class_representative(k))
                for a, _ in conjugacy_classes(H.group):
                    assert is_cocycle(beta_restricted_cocycle(data, a))


def test_criterion_07_center_census_pins():
    with Budget(1):
        for name, simples, square in (("S3", 8, 36), ("C2", 4, 4)):
            G = cb.builtin_group(name)
            census = simple_census(TwistedGroupData.trivial(G))
            assert census.total_simples == simples
            assert census.fpdim_square_total == square
            # untwisted oracle: irreps of each stabilizer are its classes
            for label in census.labels:
                C = cb.centralizer(G, label.representative)
                Cgrp, _ = subgroup_as_group(C)
                assert label.irrep_count == len(conjugacy_classes(Cgrp))


def test_criterion_08_fibered_extension_verdicts():
    with Budget(30):
        C4 = cb.cyclic(4)
        report = fibered_enrichment_extends(C4, Subgroup(C4, (0, 2)))
        assert not report.extends
        V4 = cb.builtin_group("C2xC2")
        report = fibered_enrichment_extends(V4, Subgroup(V4, (0, 1)))
        assert report.extends
        assert report.torsor_count == 2
        assert report.torsor_count == count_homs_to_abelian(cb.cyclic(2),
                                                            cb.cyclic(2))
        S3 = cb.builtin_group("S3")
        report = fibered_enrichment_extends(S3, Subgroup(S3, (0, 3, 4)))
        assert not report.extends
        groups = [cb.builtin_group(name) for name in ORDER_LE_16]
        groups += [product_group(cb.builtin_group(a), cb.cyclic(2))
                   for a in ("S3", "D8", "Q8")]
        for E in groups:
            for N in cb.normal_subgroups(E):
                Q, _ = quotient(E, N)
                Ngrp, _ = subgroup_as_group(N)
                expected = is_isomorphic(E, product_group(Ngrp, Q))
                assert fibered_enrichment_extends(E, N).extends == expected


def test_criterion_09_zesting_lift_verdicts():
    with Budget(5):
        S3 = cb.builtin_group("S3")
        C2 = cb.cyclic(2)
        inv = invertibles_of_center(S3)
        H2 = cohomology_group(C2, 2, trivial_module(inv.group))
        assert H2.order == 2
        for k in range(H2.order):
            assert zesting_lift_exists(S3, C2, H2.class_representative(k))
        invc2 = invertibles_of_center(C2)
        w = Cochain(2, C2, trivial_module(invc2.group), (0, 0, 0, 1),
                    normalized=True)
        assert not zesting_lift_exists(C2, C2, w)


def test_criterion_10_cohomology_engine_against_brute_force():
    with Budget(60):
        for G, As, n in BRUTE_CONFIGS:
            module = trivial_module(cb.builtin_group(As))
            Z, B = brute_classes(G, module, n)
            assert cohomology_group(G, n, module).order == len(Z) // len(B)
        C2 = cb.cyclic(2)
        C4 = cb.cyclic(4)
        for n in (1, 2):
            module = inversion_module(C4, C2)
            Z, B = brute_classes(C2, module, n)
            assert cohomology_group(C2, n, module).order == len(Z) // len(B)
        rng = random.Random(17)
        seen = set()
        for G, As, _ in BRUTE_CONFIGS:
            if (G.name, As) in seen:
                continue
            seen.add((G.name, As))
            module = trivial_module(cb.builtin_group(As))
            for degree in (1, 2):
                for _ in range(100):
                    c = random_cochain(G, module, degree, rng)
                    assert differential(differential(c)).is_zero


# -- reach: H^3 past the brute-force sizes, against a closed form -------------

def invariant_factors(orders):
    """Invariant factors, ascending, of the direct sum of Z/o over orders."""
    powers = {}
    for o in orders:
        p = 2
        while o > 1:
            q = 1
            while o % p == 0:
                o //= p
                q *= p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    width = max((len(v) for v in powers.values()), default=0)
    factors = [1] * width
    for qs in powers.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            factors[i] *= q
    return tuple(sorted(factors))


def abelian_cohomology(cyclic_orders, n, m):
    """H^n(Z/a_1 x ... x Z/a_r, Z/m) for 1 <= n <= 3, trivial action.

    Kunneth gives the integral homology of a product of cyclic groups:
    H_0 = Z, H_1 = sum of Z/a_i, H_2 = sum over pairs of Z/gcd, and
    H_3 = sum of Z/a_i, over pairs of Z/gcd and over triples of Z/gcd.  The
    universal coefficient theorem then gives H^n = Hom(H_n, Z/m) +
    Ext(H_{n-1}, Z/m); Hom(Z/a, Z/m) and Ext(Z/a, Z/m) are both Z/gcd(a, m),
    and Ext(Z, Z/m) = 0.
    """
    a = list(cyclic_orders)
    pairs = [math.gcd(x, y) for x, y in itertools.combinations(a, 2)]
    triples = [math.gcd(*t) for t in itertools.combinations(a, 3)]
    torsion = {0: [], 1: a, 2: pairs, 3: a + pairs + triples}
    return invariant_factors(
        math.gcd(x, m) for x in torsion[n] + torsion[n - 1])


def split_h3(schur, h3_qz, k):
    """H^3(G, Z/k) from the split universal coefficient sequence,
    (M(G) (x) Z/k) + H^3(G, Q/Z)[k], with the Schur multiplier M(G) and
    H^3(G, Q/Z) given as sums of Z/a over the orders a: both Z/a (x) Z/k
    and the k-torsion Z/a[k] are Z/gcd(a, k)."""
    return invariant_factors(math.gcd(a, k) for a in schur + h3_qz)


def dihedral_h3(order, k):
    """H^3(D_2m, Z/k), trivial action, for the dihedral group of order 2m.

    M = 0 and H^3(D_2m, Q/Z) = Z/2m for m odd; M = Z/2 and
    H^3(D_2m, Q/Z) = Z/m + Z/2 + Z/2 for m even (M. de Wild Propitius,
    PhD thesis, Amsterdam 1995; D. Handel, Tohoku Math. J. 45, 1993).
    """
    m = order // 2
    if m % 2:
        return split_h3([], [2 * m], k)
    return split_h3([2], [m, 2, 2], k)


def dicyclic_h3(order, k):
    """H^3(Q_4n, Z/k), trivial action, for the dicyclic group of order 4n:
    its cohomology is periodic of period 4, so M = 0 and
    H^3(Q_4n, Q/Z) = Z/4n (Cartan and Eilenberg, Homological Algebra,
    ch. XII)."""
    return split_h3([], [order], k)


def dicyclic(n):
    """The dicyclic group of order 4n, <a, x | a^2n = 1, x^2 = a^n,
    x a x^-1 = a^-1>, from its table.  Id 2n k + i is a^i x^k; x a^j is
    a^-j x, so a^i x times a^j x^l is a^(i-j) x^(1+l), with x^2 = a^n."""
    k, i = np.divmod(np.arange(4 * n), 2 * n)
    k1, i1, k2, i2 = k[:, None], i[:, None], k[None, :], i[None, :]
    power = np.where(k1 == 0, i1 + i2, i1 - i2 + n * k2) % (2 * n)
    table = 2 * n * (k1 ^ k2) + power
    return cb.FiniteGroup(table, name=f"Dic{n}")


def test_closed_form_h3_of_nonabelian_groups():
    # Dic2 is Q8, so the table construction the order-16 reach uses for
    # Q16 = Dic4 is checked against the builtin
    assert is_isomorphic(dicyclic(2), cb.builtin_group("Q8"))
    cases = [("S3", 6, dihedral_h3(6, 6))]
    cases += [("D8", k, dihedral_h3(8, k)) for k in (2, 4, 8)]
    cases += [("D10", 10, dihedral_h3(10, 10)), ("Q8", 8, dicyclic_h3(8, 8))]
    assert [want for *_, want in cases] == [
        (6,), (2, 2, 2, 2), (2, 2, 2, 4), (2, 2, 2, 4), (10,), (8,)]
    with Budget(15):
        for name, k, want in cases:
            H = cohomology_group(cb.builtin_group(name), 3, mu_module(k))
            assert H.invariant_factors == want, (name, k)


def test_mixed_order_coefficients_are_additive():
    # H^n(G, -) is additive, so H^n(G, C2 x C4) = H^n(G, C2) + H^n(G, C4).
    # C2 x C4 is the one module here whose orders differ, so only it puts
    # constraint rows into the bar system
    module = trivial_module(cb.builtin_group("C2xC4"))
    with Budget(20):
        for name in ("C2", "C3", "C4", "C2xC2", "S3"):
            G = cb.builtin_group(name)
            for n in (1, 2, 3):
                parts = [cohomology_group(G, n, mu_module(m)).invariant_factors
                         for m in (2, 4)]
                got = cohomology_group(G, n, module).invariant_factors
                assert got == invariant_factors(parts[0] + parts[1]), (name, n)


def test_closed_form_matches_engine_on_small_groups():
    with Budget(20):
        for name, orders in (("C4", (4,)), ("C6", (6,)), ("C2xC2", (2, 2)),
                             ("C2xC4", (2, 4)), ("C2xC2xC2", (2, 2, 2))):
            G = cb.builtin_group(name)
            for m in (2, 3, 4, 6):
                for n in (1, 2, 3) if G.order <= 4 else (1, 2):
                    expected = abelian_cohomology(orders, n, m)
                    got = cohomology_group(G, n, mu_module(m)).invariant_factors
                    assert got == expected, (name, n, m)


def test_reach_h3_of_c9():
    # H^n(C_m, Z/m) = Z/m
    assert abelian_cohomology((9,), 3, 9) == (9,)
    with Budget(12):
        H = cohomology_group(cb.cyclic(9), 3, mu_module(9))
    assert H.invariant_factors == (9,)


def test_reach_h3_of_c3xc3():
    # Hom(H_3, Z/9) + Ext(H_2, Z/9) = (Z/3)^3 + Z/3
    assert abelian_cohomology((3, 3), 3, 9) == (3, 3, 3, 3)
    with Budget(12):
        H = cohomology_group(cb.builtin_group("C3xC3"), 3, mu_module(9))
    assert H.invariant_factors == (3, 3, 3, 3)


def test_reach_h3_of_c10():
    # H^n(C_m, Z/m) = Z/m
    assert abelian_cohomology((10,), 3, 10) == (10,)
    with Budget(12):
        H = cohomology_group(cb.cyclic(10), 3, mu_module(10))
    assert H.invariant_factors == (10,)


def test_reach_h3_of_c2xc6():
    # Hom(H_3, Z/6) + Ext(H_2, Z/6) = (Z/2)^2 + Z/6 + Z/2.  d_3 is
    # 14641 x 1331: 19 MB at the int8 width of mod 6 sweeps, 156 MB in int64
    assert abelian_cohomology((2, 6), 3, 6) == (2, 2, 2, 6)
    with Budget(15), MemoryBudget(150):
        H = cohomology_group(cb.builtin_group("C2xC6"), 3, mu_module(6))
    assert H.invariant_factors == (2, 2, 2, 6)


def test_reach_h3_of_d12():
    # the same d_3 shape as C2xC6, swept mod 12: (Z/2 (x) Z/12) + Z/6 +
    # Z/2 + Z/2 by the dihedral closed form
    assert dihedral_h3(12, 12) == (2, 2, 2, 6)
    with Budget(20), MemoryBudget(150):
        H = cohomology_group(cb.builtin_group("D12"), 3, mu_module(12))
    assert H.invariant_factors == (2, 2, 2, 6)


def test_closed_form_matches_engine_in_degree_3_on_order_8():
    with Budget(20):
        for name, orders in (("C8", (8,)), ("C2xC4", (2, 4)),
                             ("C2xC2xC2", (2, 2, 2))):
            G = cb.builtin_group(name)
            for m in (2, 3, 4, 6):
                expected = abelian_cohomology(orders, 3, m)
                got = cohomology_group(G, 3, mu_module(m)).invariant_factors
                assert got == expected, (name, m)


# -- reach: untwisted abelian centers and pointed braidings, in closed form ---

def gaussian_binomial(n, k, p):
    """[n k]_p, the number of k-dimensional subspaces of (Z/p)^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def conjugate(partition):
    """The conjugate partition: its i-th part counts the parts above i."""
    return [sum(1 for x in partition if x > i)
            for i in range(max(partition, default=0))]


def subgroups_of_type(lam, mu, p):
    """Birkhoff's count of the subgroups of type mu in the abelian p-group
    of type lam (see Butler, "Subgroup lattices and symmetric functions",
    Mem. AMS 1994): the product over i of p^(mu'_{i+1} (lam'_i - mu'_i))
    [lam'_i - mu'_{i+1}, mu'_i - mu'_{i+1}]_p, with ' the conjugate
    partition."""
    lc, mc = conjugate(lam), conjugate(mu)
    mc += [0] * (len(lc) + 1 - len(mc))
    count = 1
    for i, top in enumerate(lc):
        count *= p ** (mc[i + 1] * (top - mc[i])) * gaussian_binomial(
            top - mc[i + 1], mc[i] - mc[i + 1], p)
    return count


def subgroup_count(cyclic_orders):
    """The number of subgroups of Z/a_1 x ... x Z/a_r: a product over its
    Sylow parts, each summed over the types that fit inside its own."""
    types = {}
    for a in cyclic_orders:
        p = 2
        while a > 1:
            e = 0
            while a % p == 0:
                a //= p
                e += 1
            if e:
                types.setdefault(p, []).append(e)
            p += 1
    total = 1
    for p, lam in types.items():
        lam = sorted(lam, reverse=True)
        total *= sum(subgroups_of_type(lam, mu, p)
                     for mu in itertools.product(*(range(e + 1) for e in lam))
                     if list(mu) == sorted(mu, reverse=True))
    return total


def untwisted_subcats(name):
    return len(enumerate_subcats(TwistedGroupData.trivial(
        cb.builtin_group(name))))


def test_subgroup_count_matches_lattice_search():
    # the Galois numbers of (Z/2)^6 and (Z/3)^4 and Birkhoff's count of
    # types (2,2,2,2) and (2,2,1,1,1,1), then against all_subgroups
    assert sum(gaussian_binomial(6, k, 2) for k in range(7)) == 2825
    assert sum(gaussian_binomial(4, k, 3) for k in range(5)) == 212
    assert subgroup_count((2,) * 6) == 2825
    assert subgroup_count((3,) * 4) == 212
    assert subgroup_count((4,) * 4) == 1983
    assert subgroup_count((2, 2, 4) * 2) == 12015
    for orders in ((4, 4), (2, 2, 4), (2, 2, 2, 2), (3, 9), (2, 8), (6, 6),
                   (2, 4, 4), (2, 2, 2, 2, 2), (4, 8), (3, 3, 3), (5, 10)):
        G = product_group(*(cb.cyclic(a) for a in orders))
        assert subgroup_count(orders) == len(cb.all_subgroups(G)), orders


def test_untwisted_abelian_subcats_are_subgroups_of_a_x_a():
    # Z(Vec_A) is pointed by A + dual(A), so its fusion subcategories
    # S(L, M, B) are the subgroups of A x A (Naidu and Nikshych, CMP 2008)
    with Budget(10):
        for name, orders in (("C2", (2,)), ("C3", (3,)), ("C4", (4,)),
                             ("C6", (6,)), ("C2xC2", (2, 2)), ("C8", (8,)),
                             ("C2xC4", (2, 4))):
            A = cb.builtin_group(name)
            want = len(cb.all_subgroups(product_group(A, A)))
            assert want == subgroup_count(orders * 2)
            assert untwisted_subcats(name) == want, name


def test_reach_subcats_of_untwisted_abelian_centers():
    # past all_subgroups: Galois numbers, then Birkhoff's count
    with Budget(15):
        for name, orders, want in (("C2xC2xC2", (2, 2, 2), 2825),
                                   ("C3xC3", (3, 3), 212),
                                   ("C4xC4", (4, 4), 1983),
                                   ("C2xC2xC4", (2, 2, 4), 12015)):
            assert subgroup_count(orders * 2) == want
            assert untwisted_subcats(name) == want, name


def test_untwisted_pointed_braidings_are_homs_to_the_dual():
    # with K = ker pi central, a G-invariant bicharacter on K x G is a
    # homomorphism K -> dual(G^ab)
    pairs = 0
    with Budget(15):
        for name in ORDER_LE_16 + ("C2xC2xC4",):
            G = cb.builtin_group(name)
            data = TwistedGroupData.trivial(G)
            dual = cb.dual_group(quotient(G, cb.derived_subgroup(G))[0]).group
            inside = set(cb.center(G).elements)
            for K in cb.normal_subgroups(G):
                if not set(K.elements) <= inside:
                    continue
                _, pi = quotient(G, K)
                want = count_homs_to_abelian(subgroup_as_group(K)[0], dual)
                assert len(enumerate_pointed(data, pi)) == want, \
                    (name, K.elements)
                pairs += 1
    assert pairs > 100


def cyclic_twist(n, k):
    """The cochain document of omega_k(x, y, z) = k x floor((y + z) / n)
    mod n on C_n, whose element ids are the residues mod n."""
    return {"degree": 3, "modulus": n, "entries": {
        f"{x},{y},{z}": k * x % n
        for x in range(n) for y in range(n) for z in range(n)
        if y + z >= n and k * x % n}}


def test_subcats_of_twisted_cyclic_centers(tmp_path):
    # Z(Vec_{C_n}^{omega_k}) is pointed, by Z/(n^2/g) x Z/g with
    # g = gcd(n, 2k): the flux relation m^n = e^(2k) (de Wild Propitius,
    # thesis, Amsterdam 1995); its subcategories are the subgroups
    path = tmp_path / "omega.json"
    cases = 0
    with Budget(5):
        for n in (2, 3, 4, 5, 6, 8, 9, 12):
            for k in range(n):
                path.write_text(json.dumps(cyclic_twist(n, k)))
                code, doc = go_json("subcats", "--group", f"C{n}",
                                    "--omega", str(path))
                g = math.gcd(n, 2 * k)
                assert code == 0, doc
                assert doc["count"] == subgroup_count((n * n // g, g)), (n, k)
                cases += 1
    assert cases == 49


def test_subcats_of_coprime_products():
    # with gcd(|G1|, |G2|) = 1 every normal subgroup of G1 x G2 is a
    # product (Goursat's lemma) and a pairing between parts of coprime
    # order is trivial, so the untwisted counts multiply: non-abelian
    # groups of order 24 to 42, where no other oracle reaches
    with Budget(5):
        for name, n, want in (("S3", 5, 64), ("D8", 3, 270), ("Q8", 3, 270),
                              ("S3", 7, 80), ("D10", 3, 60)):
            assert untwisted_subcats(name) * subgroup_count((n, n)) == want
            G = product_group(cb.builtin_group(name), cb.cyclic(n))
            got = len(enumerate_subcats(TwistedGroupData.trivial(G)))
            assert got == want, (name, n)
