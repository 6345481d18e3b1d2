"""Twisted-center counting: beta cocycles, census identities, invertibles."""

import itertools
import random
import tracemalloc

import pytest

import crossbraid as cb
from crossbraid import cli
from crossbraid.twisted_center import (
    TwistedGroupData,
    beta,
    beta_restricted_cocycle,
    invertibles_of_center,
    simple_census,
)
from crossbraid.cohomology import Cochain, differential, mu_module, random_cochain
from crossbraid.serialize import H3_BATTERY, load_h3_fixture

C2 = cb.cyclic(2)
C4 = cb.cyclic(4)
S3 = cb.builtin_group("S3")


def all_classes(name):
    H = load_h3_fixture(name, verify=False)
    return H.group, [H.class_representative(i) for i in range(H.order)]


def stored_data():
    """A datum for every stored twist of every battery group."""
    for name in H3_BATTERY:
        G, classes = all_classes(name)
        for omega in classes:
            yield TwistedGroupData(G, omega)


def bumped(omega, cell):
    """omega with the entry at cell raised by one: a new cochain, built
    from a copy of omega's table."""
    table = list(omega.table)
    i = omega.index(cell)
    table[i] = (table[i] + 1) % omega.module.group.order
    return Cochain(omega.degree, omega.group, omega.module, table)


def corrupted_twists(seed):
    """Stored twists with one omega entry bumped, held unverified, the way
    selftest --corrupt-omega breaks a twist; a seeded sample of cells."""
    rng = random.Random(seed)
    for name in ("C3", "C4", "S3", "C2xC2"):
        H = cb.load_h3_fixture(name, verify=False)
        G = H.group
        for index in range(2):
            for _ in range(8):
                cell = tuple(rng.randrange(1, G.order) for _ in range(3))
                omega = bumped(H.class_representative(index), cell)
                yield TwistedGroupData._unverified(G, omega)


# -- scalar oracles: beta and the census loop the library once ran ---------

def scalar_beta(data, a, g, h):
    """Exponent of beta_a(g,h) = w(a,g,h) w(g,h,(gh)^-1 a gh) / w(g, g^-1 a g, h),
    evaluated one scalar at a time from the twist's cells."""
    T, inv, w = data.group.table, data.group.inverse, data.omega.value

    def conj(x, y):  # x y x^-1
        return T[T[x, y], inv[x]]

    gh = T[g, h]
    return int(w(a, g, h) + w(g, h, conj(inv[gh], a))
               - w(g, conj(inv[g], a), h)) % data.modulus


def scalar_is_regular(data, a, x, centralizer_elems):
    """Whether beta_a(x, h) = beta_a(h, x) for every h commuting with x."""
    T = data.group.table
    for h in centralizer_elems:
        if T[h, x] != T[x, h]:
            continue
        if scalar_beta(data, a, x, h) != scalar_beta(data, a, h, x):
            return False
    return True


def scalar_irrep_counts(data):
    """The census's irrep_count per class, by the scalar regularity loop."""
    G = data.group
    counts = []
    for a, _ in cb.conjugacy_classes(G):
        C = cb.centralizer(G, a)
        Cgrp, emb = cb.subgroup_as_group(C)
        counts.append(sum(scalar_is_regular(data, a, emb[x], C.elements)
                          for x, _ in cb.conjugacy_classes(Cgrp)))
    return counts


class TestTwistedGroupData:
    def test_trivial_twist(self):
        data = TwistedGroupData.trivial(S3)
        assert data.modulus == 1
        assert data.omega.is_zero

    def test_rejects_non_cocycle(self):
        bad = Cochain.from_function(
            cb.cyclic(3), mu_module(3), 3,
            lambda g, h, k: 1 if (g, h, k) == (1, 1, 1) else 0,
            normalized=True)
        if cb.is_cocycle(bad):  # pragma: no cover - guard for fixture drift
            pytest.skip("chosen table happens to be a cocycle")
        with pytest.raises(cb.NotACocycle):
            TwistedGroupData(cb.cyclic(3), bad)

    def test_zero_twist_skips_the_cocycle_sweep(self, monkeypatch):
        # the zero twist needs no identity check; a nonzero one still gets it
        def sweep(c):
            raise AssertionError("cocycle sweep on a zero twist")

        monkeypatch.setattr("crossbraid.twisted_center.is_cocycle", sweep)
        for modulus in (1, 4):
            assert TwistedGroupData.trivial(S3, modulus).omega.is_zero
        zero = Cochain.zero(C4, mu_module(2), 3)
        assert TwistedGroupData(C4, zero).omega is zero
        monkeypatch.undo()
        bad = Cochain.from_function(
            cb.cyclic(3), mu_module(3), 3,
            lambda g, h, k: 1 if (g, h, k) == (1, 1, 1) else 0,
            normalized=True)
        assert not bad.is_zero and not cb.is_cocycle(bad)
        with pytest.raises(cb.NotACocycle):
            TwistedGroupData(cb.cyclic(3), bad)

    @pytest.mark.parametrize("order", [64, 128])
    def test_zero_twist_copies_no_cube(self, order):
        # omega is held once: the checks build the degenerate-slot mask,
        # |G|^3 bytes, and no int64 table over G^3
        G = cb.cyclic(order)
        omega = Cochain.zero(G, mu_module(2), 3)
        cb.cohomology._degenerate_slots.cache_clear()
        tracemalloc.start()
        try:
            data = TwistedGroupData(G, omega)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.omega is omega
        assert peak < 2 * order ** 3

    def test_beta_table_holds_one_temporary(self):
        # beside the result, one (s, s, s) array and tables over G x G
        G = cb.cyclic(64)
        data = TwistedGroupData.trivial(G, 2)
        tracemalloc.start()
        try:
            table = data.beta_table
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.nbytes == 8 * 64 ** 3
        assert peak <= 2 * table.nbytes + 16 * table[0].nbytes

    def test_selftest_corruption_is_another_twist(self):
        def c4_class_1(corrupt):
            cfg = cli.RunConfig(verb="selftest", corrupt_omega=corrupt)
            return next(data for name, k, data in cli._battery_twists(cfg)
                        if (name, k) == ("C4", 1))
        intact, broken = c4_class_1(False), c4_class_1(True)
        assert intact.same_twist(c4_class_1(False))
        assert not broken.same_twist(intact)
        assert not intact.same_twist(broken)
        assert broken.omega.value(1, 1, 1) == \
            (intact.omega.value(1, 1, 1) + 1) % 4

    def test_rejects_unnormalized(self):
        c = Cochain.from_function(C2, mu_module(2), 3, lambda g, h, k: 1)
        with pytest.raises(cb.NotACocycle):
            TwistedGroupData(C2, c)

    def test_rejects_wrong_degree(self):
        with pytest.raises(cb.NotACocycle):
            TwistedGroupData(C2, Cochain.zero(C2, mu_module(2), 2))

    def test_rejects_non_cyclic_coefficients(self):
        V4 = cb.builtin_group("C2xC2")
        c = Cochain.zero(C2, cb.trivial_module(V4), 3)
        with pytest.raises(cb.NotACocycle):
            TwistedGroupData(C2, c)

    def test_rejects_group_mismatch(self):
        with pytest.raises(cb.ParentMismatch):
            TwistedGroupData(C4, Cochain.zero(C2, mu_module(2), 3))


class TestBeta:
    def test_trivial_omega_gives_trivial_beta(self):
        data = TwistedGroupData.trivial(S3, modulus=6)
        for a in S3.elements:
            for g in S3.elements:
                for h in S3.elements:
                    assert beta(data, a, g, h).is_identity

    def test_hand_evaluated_c2_value(self):
        # omega(1,1,1) = -1: beta_1(1,1) = w(1,1,1) w(1,1,1) / w(1,1,1) = -1
        H = load_h3_fixture("C2")
        omega = H.representatives[0]
        assert omega.value(1, 1, 1) == 1
        data = TwistedGroupData(C2, omega)
        got = beta(data, 1, 1, 1)
        assert got == cb.UnityExponent(1, 2)

    def test_identity_slots_are_trivial(self):
        for name in ("C4", "S3"):
            G, classes = all_classes(name)
            for omega in classes:
                data = TwistedGroupData(G, omega)
                bt = data.beta_table
                assert not bt[0].any()
                assert not bt[:, 0].any()
                assert not bt[:, :, 0].any()

    def test_beta_table_matches_scalar_formula(self):
        # every stored twist and every corrupted one, entry by entry
        count = 0
        for data in itertools.chain(stored_data(), corrupted_twists(7)):
            s = data.group.order
            want = [scalar_beta(data, a, g, h)
                    for a, g, h in itertools.product(range(s), repeat=3)]
            assert data.beta_table.ravel().tolist() == want
            count += 1
        assert count == 77 + 64

    def test_beta_reads_the_table(self):
        data = next(corrupted_twists(3))
        for a, g, h in itertools.product(data.group.elements, repeat=3):
            assert beta(data, a, g, h).value == scalar_beta(data, a, g, h)

    def test_beta_table_is_read_only(self):
        data = TwistedGroupData.trivial(S3)
        with pytest.raises(ValueError):
            data.beta_table[1, 1, 1] = 1

    def test_element_validation(self):
        data = TwistedGroupData.trivial(C2)
        with pytest.raises(cb.InvalidElement):
            beta(data, 5, 0, 0)


class TestBetaRestrictedCocycle:
    @pytest.mark.parametrize("name", H3_BATTERY)
    def test_all_stored_classes_restrict_to_cocycles(self, name):
        G, classes = all_classes(name)
        for omega in classes:
            data = TwistedGroupData(G, omega)
            for a, _members in cb.conjugacy_classes(G):
                c = beta_restricted_cocycle(data, a)
                assert c.degree == 2
                assert c.group.order == cb.centralizer(G, a).order
                assert cb.is_cocycle(c)

    def test_trivial_omega_gives_trivial_restriction(self):
        data = TwistedGroupData.trivial(S3)
        for a in S3.elements:
            assert beta_restricted_cocycle(data, a).is_zero

    def test_corrupted_omega_detected(self):
        H = load_h3_fixture("C4")
        data = TwistedGroupData._unverified(
            C4, bumped(H.class_representative(1), (1, 1, 1)))
        with pytest.raises(cb.BetaNotCocycle):
            beta_restricted_cocycle(data, 1)


class TestSimpleCensus:
    def test_s3_trivial(self):
        census = simple_census(TwistedGroupData.trivial(S3))
        assert [l.irrep_count for l in census.labels] == [3, 2, 3]
        assert census.total_simples == 8
        assert census.fpdim_square_total == 36

    def test_c2_trivial(self):
        census = simple_census(TwistedGroupData.trivial(C2))
        assert census.total_simples == 4
        assert census.fpdim_square_total == 4

    def test_cyclic_twists_keep_full_census(self):
        # doubles of cyclic groups have |G|^2 simples for every twist
        for name in ("C2", "C3", "C4", "C6"):
            G, classes = all_classes(name)
            for omega in classes:
                census = simple_census(TwistedGroupData(G, omega))
                assert census.total_simples == G.order ** 2

    def test_fpdim_identity_across_battery(self):
        for name in H3_BATTERY:
            G, classes = all_classes(name)
            for omega in classes:
                census = simple_census(TwistedGroupData(G, omega))
                assert census.fpdim_square_total == G.order ** 2

    def test_trivial_omega_counts_centralizer_classes(self):
        for name in H3_BATTERY:
            G = cb.builtin_group(name)
            census = simple_census(TwistedGroupData.trivial(G))
            for label in census.labels:
                C = cb.centralizer(G, label.representative)
                Cgrp, _ = cb.subgroup_as_group(C)
                assert label.irrep_count == len(cb.conjugacy_classes(Cgrp))
                assert label.dim_square_sum == C.order

    def test_census_invariant_under_coboundary_twist(self):
        rng = random.Random(17)
        for name in ("S3", "D8", "Q8"):
            G, _ = all_classes(name)
            H = load_h3_fixture(name, verify=False)
            omega = H.class_representative(1)
            base = simple_census(TwistedGroupData(G, omega))
            for _ in range(3):
                chi = random_cochain(G, omega.module, 2, rng, normalized=True)
                shifted = omega + differential(chi)
                census = simple_census(TwistedGroupData(G, shifted))
                assert [l.irrep_count for l in census.labels] == \
                       [l.irrep_count for l in base.labels]

    def test_irrep_counts_match_scalar_loop(self):
        # every stored twist and every corrupted one, class by class
        for data in itertools.chain(stored_data(), corrupted_twists(11)):
            census = simple_census(data)
            assert [l.irrep_count for l in census.labels] == \
                scalar_irrep_counts(data), data

    def test_nonabelian_trivial_counts(self):
        for name, total in (("D8", 22), ("Q8", 22)):
            G = cb.builtin_group(name)
            assert simple_census(TwistedGroupData.trivial(G)).total_simples == total


class TestInvertiblesOfCenter:
    def test_s3(self):
        inv = invertibles_of_center(S3)
        assert inv.group.order == 2
        assert inv.character_part.order == 2
        assert inv.center_part.order == 1
        assert all(x == 0 for x in inv.projection.images)

    def test_c2(self):
        inv = invertibles_of_center(C2)
        assert inv.group.order == 4
        assert inv.projection.images == (0, 1, 0, 1)

    def test_q8(self):
        inv = invertibles_of_center(cb.builtin_group("Q8"))
        assert inv.group.order == 8
        assert inv.character_part.order == 4
        assert inv.character_part.exponent == 2
        assert inv.center_part.order == 2
        assert cb.is_isomorphic(inv.group, cb.builtin_group("C2xC2xC2"))

    def test_d8(self):
        inv = invertibles_of_center(cb.builtin_group("D8"))
        assert inv.character_part.order == 4
        assert inv.center_part.order == 2

    def test_abelian_full_dual(self):
        inv = invertibles_of_center(C4)
        assert inv.group.order == 16
        assert inv.center_part.order == 4
        # projection really is the second factor of the product
        for x in inv.group.elements:
            assert inv.projection(x) == x % inv.center_part.order

    def test_center_embedding(self):
        Q8 = cb.builtin_group("Q8")
        inv = invertibles_of_center(Q8)
        assert inv.center_embedding == cb.center(Q8).elements
