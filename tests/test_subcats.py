"""S(L,M,B) calculus: verification, centralizers, containment, enumeration."""

import itertools
import random

import numpy as np
import pytest

import crossbraid as cb
from crossbraid import subcats
from crossbraid.subcats import (
    PAIRING_FACTORS,
    OmegaBicharacter,
    SubcatData,
    centralizer_subcat,
    contains,
    BicharacterReport,
    enumerate_subcats,
    fpdim,
    pair_subcats,
    solve_pairings,
    verify_bicharacter,
    working_modulus,
)
from crossbraid.exact import solve_congruences
from crossbraid.twisted_center import TwistedGroupData
from test_twisted_center import corrupted_twists, scalar_beta

C2 = cb.cyclic(2)
C3 = cb.cyclic(3)
C4 = cb.cyclic(4)
S3 = cb.builtin_group("S3")


def twist(name, index=0):
    H = cb.load_h3_fixture(name, verify=False)
    return TwistedGroupData(H.group, H.class_representative(index))


def triple(s):
    return (s.L.elements, s.M.elements, s.B.table)


def whole(G):
    return cb.Subgroup(G, G.elements)


def unit(G):
    return cb.Subgroup(G, (0,))


class TestWorkingModulus:
    def test_values(self):
        assert working_modulus(TwistedGroupData.trivial(S3)) == 6
        assert working_modulus(twist("C2", 0)) == 4
        assert working_modulus(twist("D8", 0)) == 32

    def test_lcm_would_be_too_small(self):
        # over the nontrivial C2 twist the square pairing needs 4th roots
        data = twist("C2", 1)
        full = [s for s in enumerate_subcats(data)
                if s.L.order == 2 and s.M.order == 2]
        assert len(full) == 2
        for s in full:
            v = s.B.value(1, 1)
            assert v.modulus == 4
            assert v.value % 2 == 1


class TestOmegaBicharacter:
    def test_reduces_entries(self):
        data = TwistedGroupData.trivial(C2)
        b = OmegaBicharacter(data, whole(C2), whole(C2), (0, 2, -1, 5))
        assert b.table == (0, 0, 1, 1)
        assert b.exponent_at(1, 0) == 1
        assert b.value(1, 1) == cb.UnityExponent(1, 2)
        for bad in ((0.9, "0", 0, 0), (0, 0, 0, "1"), (0, 0, 0, 1.5)):
            with pytest.raises(ValueError, match="not a coefficient id"):
                OmegaBicharacter(data, whole(C2), whole(C2), bad)

    def test_wrong_length(self):
        data = TwistedGroupData.trivial(C2)
        with pytest.raises(ValueError):
            OmegaBicharacter(data, whole(C2), whole(C2), (0, 0, 0))

    def test_foreign_subgroup(self):
        data = TwistedGroupData.trivial(C2)
        with pytest.raises(cb.ParentMismatch):
            OmegaBicharacter(data, whole(C2), whole(C4), (0,) * 8)

    def test_lookup_outside_domain(self):
        data = TwistedGroupData.trivial(C4)
        b = OmegaBicharacter(data, unit(C4), whole(C4), (0, 0, 0, 0))
        with pytest.raises(cb.InvalidElement):
            b.exponent_at(1, 0)

    def test_lattice_tables_equal_public_construction(self):
        # enumerate_subcats builds its tables with no check; the public
        # constructor, given the same entries shifted by multiples of N',
        # must reduce them to an equal value
        for data in (twist("C2", 1), twist("C4", 3), twist("Q8", 2),
                     twist("D8", 5), TwistedGroupData.trivial(S3)):
            mod = working_modulus(data)
            subs = enumerate_subcats(data)
            assert subs
            for s in subs:
                assert all(type(x) is int and 0 <= x < mod for x in s.B.table)
                shifted = tuple(x + mod * (i % 3 - 1)
                                for i, x in enumerate(s.B.table))
                public = OmegaBicharacter(data, s.L, s.M, shifted)
                assert s.B == public and hash(s.B) == hash(public)
                assert [s.B.exponent_at(l, m) for l in s.L.elements
                        for m in s.M.elements] == list(public.table)


class TestVerifyBicharacter:
    def test_trivial_pairing_trivial_twist(self):
        data = TwistedGroupData.trivial(C4)
        b = OmegaBicharacter(data, whole(C4), whole(C4), (0,) * 16)
        report = verify_bicharacter(b)
        assert report
        assert report.axiom is None and report.witness is None

    def test_i_to_the_xy_is_valid(self):
        # B(x,y) = i^{xy} on C4, embedded as exponent 4xy at working
        # modulus 16 (the trivial class stored at coefficient modulus 4)
        data = twist("C4", 0)
        assert working_modulus(data) == 16
        table = tuple(4 * x * y % 16 for x in range(4) for y in range(4))
        b = OmegaBicharacter(data, whole(C4), whole(C4), table)
        assert verify_bicharacter(b)

    def test_i_to_the_x_plus_y_fails_first_axiom(self):
        data = twist("C4", 0)
        table = tuple(4 * (x + y) % 16 for x in range(4) for y in range(4))
        b = OmegaBicharacter(data, whole(C4), whole(C4), table)
        report = verify_bicharacter(b)
        assert not report
        assert report.axiom == 1
        assert report.witness == (1, 0, 0)

    def test_semion_square_over_nontrivial_twist(self):
        # with omega(1,1,1) = -1 the pairing must satisfy B(1,1)^2 = -1
        data = twist("C2", 1)
        good = OmegaBicharacter(data, whole(C2), whole(C2), (0, 0, 0, 1))
        assert verify_bicharacter(good)
        bad = OmegaBicharacter(data, whole(C2), whole(C2), (0, 0, 0, 2))
        report = verify_bicharacter(bad)
        assert report.axiom == 1
        assert report.witness == (1, 1, 1)


def _nonnormal_order2(G):
    for S in cb.all_subgroups(G):
        if S.order == 2 and not cb.is_normal(G, S):
            return S
    raise AssertionError("no such subgroup")


def _klein_normals(G):
    out = []
    for S in cb.normal_subgroups(G):
        if S.order == 4 and all(G.element_orders[x] <= 2 for x in S.elements):
            out.append(S)
    return out


class TestSubcatData:
    def test_rejects_non_normal(self):
        data = TwistedGroupData.trivial(S3)
        L = _nonnormal_order2(S3)
        B = OmegaBicharacter(data, L, unit(S3), (0, 0))
        with pytest.raises(cb.NotNormal):
            SubcatData(data, L, unit(S3), B)

    def test_rejects_non_commuting_pair(self):
        D8 = cb.builtin_group("D8")
        data = TwistedGroupData.trivial(D8)
        V, W = _klein_normals(D8)
        B = OmegaBicharacter(data, V, W, (0,) * 16)
        with pytest.raises(cb.NotCentral):
            SubcatData(data, V, W, B)

    def test_rejects_mismatched_table(self):
        data = TwistedGroupData.trivial(C2)
        B = OmegaBicharacter(data, unit(C2), whole(C2), (0, 0))
        with pytest.raises(cb.ParentMismatch):
            SubcatData(data, whole(C2), whole(C2), B)

    def test_rejects_foreign_twist(self):
        B = OmegaBicharacter(twist("C2", 1), whole(C2), whole(C2), (0, 0, 0, 1))
        with pytest.raises(cb.ParentMismatch):
            SubcatData(TwistedGroupData.trivial(C2), whole(C2), whole(C2), B)

    def test_rejects_failing_axioms(self):
        data = twist("C4", 0)
        table = tuple(4 * (x + y) % 16 for x in range(4) for y in range(4))
        B = OmegaBicharacter(data, whole(C4), whole(C4), table)
        with pytest.raises(ValueError, match="axiom 1"):
            SubcatData(data, whole(C4), whole(C4), B)


class TestFpdim:
    def test_s3_landmarks(self):
        subs = enumerate_subcats(TwistedGroupData.trivial(S3))
        by_shape = {}
        for s in subs:
            by_shape.setdefault((s.L.order, s.M.order), []).append(s)
        assert [fpdim(s) for s in by_shape[(1, 6)]] == [1]    # Vec
        assert [fpdim(s) for s in by_shape[(1, 1)]] == [6]    # Rep(G)
        assert [fpdim(s) for s in by_shape[(6, 1)]] == [36]   # whole center
        assert [fpdim(s) for s in by_shape[(3, 3)]] == [6, 6, 6]


class TestCentralizerSubcat:
    def test_vec_and_full_center_swap(self):
        data = TwistedGroupData.trivial(S3)
        vec = SubcatData(data, unit(S3), whole(S3),
                         OmegaBicharacter(data, unit(S3), whole(S3), (0,) * 6))
        dual = centralizer_subcat(vec)
        assert dual.L.order == 6 and dual.M.order == 1
        assert fpdim(dual) == 36

    def test_rep_is_self_dual(self):
        data = TwistedGroupData.trivial(S3)
        rep = SubcatData(data, unit(S3), unit(S3),
                         OmegaBicharacter(data, unit(S3), unit(S3), (0,)))
        assert triple(centralizer_subcat(rep)) == triple(rep)

    @pytest.mark.parametrize("name,index", [
        ("C4", 0), ("C4", 1), ("S3", 0), ("S3", 1), ("Q8", 0)])
    def test_involution_and_duality(self, name, index):
        data = twist(name, index)
        n2 = data.group.order ** 2
        subs = enumerate_subcats(data)
        keys = {triple(s) for s in subs}
        for s in subs:
            c = centralizer_subcat(s)
            assert triple(c) in keys
            assert fpdim(s) * fpdim(c) == n2
            assert triple(centralizer_subcat(c)) == triple(s)


class TestContains:
    def test_vec_in_everything(self):
        for name, index in (("S3", 0), ("C4", 1), ("C2xC2", 3)):
            data = twist(name, index)
            subs = enumerate_subcats(data)
            vec = next(s for s in subs
                       if s.L.order == 1 and s.M.order == data.group.order)
            assert all(contains(s, vec) for s in subs)

    def test_reflexive(self):
        subs = enumerate_subcats(twist("S3", 0))
        assert all(contains(s, s) for s in subs)

    def test_rep_quotient_chain(self):
        data = TwistedGroupData.trivial(S3)
        subs = enumerate_subcats(data)
        rep = next(s for s in subs if s.L.order == 1 and s.M.order == 1)
        bigger = next(s for s in subs if s.L.order == 3 and s.M.order == 1)
        assert contains(bigger, rep)
        assert not contains(rep, bigger)

    def test_partial_order_and_reversal(self):
        for name, index in (("S3", 0), ("C4", 1)):
            data = twist(name, index)
            subs = enumerate_subcats(data)
            duals = [centralizer_subcat(s) for s in subs]
            rel = [[contains(a, b) for b in subs] for a in subs]
            n = len(subs)
            for i in range(n):
                for j in range(n):
                    if rel[i][j] and rel[j][i]:
                        assert triple(subs[i]) == triple(subs[j])
                    if rel[i][j]:
                        assert contains(duals[j], duals[i])
                    for k in range(n):
                        if rel[i][j] and rel[j][k]:
                            assert rel[i][k]

    def test_foreign_twist_rejected(self):
        a = enumerate_subcats(twist("C2", 0))[0]
        b = enumerate_subcats(twist("C2", 1))[0]
        with pytest.raises(cb.ParentMismatch):
            contains(a, b)


def brute_pair(data, L, M, limit=10_000, reduced=True):
    """Grid search over pairing tables for one pair; None when too large.

    The reduced grid pins the identity row and column to zero, which is
    forced by the axioms at identity slots; the full grid checks that too.
    """
    mod = working_modulus(data)
    nl, nm = L.order, M.order
    free = (nl - 1) * (nm - 1) if reduced else nl * nm
    if mod ** free > limit:
        return None
    found = set()
    for combo in itertools.product(range(mod), repeat=free):
        if reduced:
            table = [0] * (nl * nm)
            t = iter(combo)
            for i in range(1, nl):
                for j in range(1, nm):
                    table[i * nm + j] = next(t)
            table = tuple(table)
        else:
            table = combo
        if verify_bicharacter(OmegaBicharacter(data, L, M, table)):
            found.add(table)
    return found


class TestEnumerate:
    def test_c2_breakdown(self):
        subs = enumerate_subcats(TwistedGroupData.trivial(C2))
        shapes = {}
        for s in subs:
            shapes[(s.L.order, s.M.order)] = shapes.get((s.L.order, s.M.order), 0) + 1
        assert shapes == {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 2}
        assert len(subs) == 5

    def test_always_has_vec_and_rep(self):
        for name in cb.H3_BATTERY:
            for index in (0, 1):
                data = twist(name, index)
                keys = {(s.L.order, s.M.order, s.B.table) for s in
                        enumerate_subcats(data)}
                G = data.group
                mod = working_modulus(data)
                assert (1, G.order, (0,) * G.order) in keys
                assert (1, 1, (0,)) in keys

    def test_pinned_counts(self):
        # C6, D8, Q8, C2xC2 cross-checked by hand against the
        # invariant-pairing counts summed over commuting normal pairs
        expect = {"C3": [6, 3, 3], "C4": [15, 11, 15, 11], "S3": [8, 5]}
        for name, counts in expect.items():
            for index, count in enumerate(counts):
                assert len(enumerate_subcats(twist(name, index))) == count
        assert len(enumerate_subcats(twist("C6", 0))) == 30
        assert len(enumerate_subcats(twist("C2xC2", 0))) == 67
        assert len(enumerate_subcats(twist("D8", 0))) == 45
        assert len(enumerate_subcats(twist("Q8", 0))) == 45

    def test_sorted_unique_deterministic(self):
        data = twist("C2xC2", 1)
        subs = enumerate_subcats(data)
        keys = [(s.L.order, s.M.order, s.L.elements, s.M.elements, s.B.table)
                for s in subs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        again = enumerate_subcats(data)
        assert [triple(s) for s in again] == [triple(s) for s in subs]

    def test_modulus_lift_matches(self):
        # the same twist presented at modulus 1 and at modulus |G| must
        # give the same subcategories up to exponent rescaling
        for name in ("C2", "C3", "S3"):
            G = cb.builtin_group(name)
            low = enumerate_subcats(TwistedGroupData.trivial(G))
            high = enumerate_subcats(twist(name, 0))
            scale = G.order
            lifted = {(s.L.elements, s.M.elements,
                       tuple(x * scale for x in s.B.table)) for s in low}
            assert lifted == {triple(s) for s in high}

    def test_budget(self):
        with pytest.raises(cb.BudgetExceeded):
            enumerate_subcats(twist("C4", 0), budget=3)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("index", [0, 1])
    def test_c2_full_grid(self, index):
        data = twist("C2", index)
        subs = enumerate_subcats(data)
        for L, M in cb.commuting_normal_pairs(data.group):
            got = {s.B.table for s in subs
                   if s.L.elements == L.elements and s.M.elements == M.elements}
            assert brute_pair(data, L, M, reduced=False) == got

    @pytest.mark.parametrize("name,index", [
        ("C3", 0), ("C3", 1), ("C4", 0), ("C4", 1),
        ("C2xC2", 0), ("C2xC2", 1), ("S3", 1)])
    def test_reduced_grid(self, name, index):
        data = twist(name, index)
        subs = enumerate_subcats(data)
        checked = 0
        for L, M in cb.commuting_normal_pairs(data.group):
            expect = brute_pair(data, L, M)
            if expect is None:
                continue
            got = {s.B.table for s in subs
                   if s.L.elements == L.elements and s.M.elements == M.elements}
            assert expect == got
            checked += 1
        assert checked >= 3

    def test_identity_slots_are_forced(self):
        # perturbing a valid table anywhere in the identity row or column
        # must break an axiom, so the reduced grid loses nothing
        for name, index in (("C4", 1), ("S3", 0)):
            data = twist(name, index)
            for s in enumerate_subcats(data):
                nl, nm = s.L.order, s.M.order
                if nl * nm == 1:
                    continue
                spots = [(0, j) for j in range(nm)] + [(i, 0) for i in range(nl)]
                for i, j in spots[:4]:
                    tampered = list(s.B.table)
                    tampered[i * nm + j] += 1
                    cand = OmegaBicharacter(data, s.L, s.M, tuple(tampered))
                    assert not verify_bicharacter(cand)

    @pytest.mark.parametrize("name,index", [("C4", 0), ("C4", 1), ("S3", 0)])
    def test_random_tables_agree(self, name, index):
        data = twist(name, index)
        G = data.group
        mod = working_modulus(data)
        keys = {triple(s) for s in enumerate_subcats(data)}
        rng = random.Random(f"{name}:{index}")
        pairs = cb.commuting_normal_pairs(G)
        for _ in range(150):
            L, M = rng.choice(pairs)
            tab = tuple(rng.randrange(mod) for _ in range(L.order * M.order))
            cand = OmegaBicharacter(data, L, M, tab)
            assert bool(verify_bicharacter(cand)) == \
                ((L.elements, M.elements, tab) in keys)


# -- independent references for the folded congruence system ----------------

def reference_verify(cand):
    """Element-by-element sweep of the three pairing axioms.

    Kept as an oracle for the vectorized verify_bicharacter and the
    folded solve: it reads each axiom straight off its definition.
    """
    data = cand.parent
    G = data.group
    mod = cand.modulus
    lift = mod // data.modulus
    b = cand.exponent_at
    T, inv = G.table, G.inverse

    def beta(a, g, h):
        return scalar_beta(data, a, g, h)

    def conj(g, a):  # g a g^-1
        return T[T[g, a], inv[g]]

    for l in cand.L.elements:
        for m1 in cand.M.elements:
            for m2 in cand.M.elements:
                rhs = (b(l, m1) + b(l, m2) - lift * beta(l, m1, m2)) % mod
                if b(l, T[m1, m2]) != rhs:
                    return BicharacterReport(False, 1, (l, m1, m2))
    for k in cand.L.elements:
        for l in cand.L.elements:
            for m in cand.M.elements:
                rhs = (b(k, m) + b(l, m) + lift * beta(m, k, l)) % mod
                if b(T[k, l], m) != rhs:
                    return BicharacterReport(False, 2, (k, l, m))
    for g in G.elements:
        gi = inv[g]
        for l in cand.L.elements:
            for m in cand.M.elements:
                off = (beta(l, g, m) + beta(l, T[g, m], gi)
                       - beta(l, g, gi))
                rhs = (b(l, conj(g, m)) + lift * off) % mod
                if b(conj(gi, l), m) != rhs:
                    return BicharacterReport(False, 3, (g, l, m))
    return BicharacterReport(True)


def reference_lattice(data, L, M, axioms):
    """Solve only the listed slot axioms (1: right, 2: left), row by row."""
    G = data.group
    mod = working_modulus(data)
    lift = G.exponent
    nm = M.order
    pos_l = {a: i for i, a in enumerate(L.elements)}
    pos_m = {a: i for i, a in enumerate(M.elements)}
    rows, rhs = [], []

    def row(entries, value):
        r = [0] * (L.order * nm)
        for col, coef in entries:
            r[col] += coef
        rows.append(r)
        rhs.append(value % mod)

    if 1 in axioms:
        for l in L.elements:
            i = pos_l[l] * nm
            for m1 in M.elements:
                for m2 in M.elements:
                    row([(i + pos_m[G.table[m1, m2]], 1), (i + pos_m[m1], -1),
                         (i + pos_m[m2], -1)],
                        -lift * scalar_beta(data, l, m1, m2))
    if 2 in axioms:
        for k in L.elements:
            for l in L.elements:
                for m in M.elements:
                    j = pos_m[m]
                    row([(pos_l[G.table[k, l]] * nm + j, 1),
                         (pos_l[k] * nm + j, -1), (pos_l[l] * nm + j, -1)],
                        lift * scalar_beta(data, m, k, l))
    return solve_congruences(np.array(rows, dtype=np.int64),
                             np.array(rhs, dtype=np.int64), mod)


def stored_twists(names=cb.H3_BATTERY):
    for name in names:
        H = cb.load_h3_fixture(name, verify=False)
        for index in range(H.class_count):
            yield name, index, TwistedGroupData(
                H.group, H.class_representative(index))


class TestFoldedSystem:
    @pytest.mark.parametrize("name", cb.H3_BATTERY)
    def test_folded_lattice_is_filtered_two_axiom_lattice(self, name):
        # every stored twist, every commuting normal pair: the one-shot
        # solve finds exactly the slot-axiom solutions the sweep accepts
        pairs = checked = 0
        for _, _, data in stored_twists([name]):
            for L, M in cb.commuting_normal_pairs(data.group):
                two = reference_lattice(data, L, M, axioms=(1, 2))
                expect = set()
                if two is not None:
                    for tab in two.enumerate():
                        if reference_verify(OmegaBicharacter(data, L, M, tab)):
                            expect.add(tab)
                folded = solve_pairings(data, L, M)
                got = set() if folded is None else set(folded.enumerate())
                assert got == expect, (name, L.elements, M.elements)
                if folded is not None:
                    assert folded.count == len(got)
                pairs += 1
                checked += len(expect)
        assert pairs and checked

    def test_random_tables_match_reference(self):
        # uniform tables mostly break the right slot; lattice points of the
        # right-slot or both-slot systems reach the left slot and invariance
        rng = random.Random(20191007)
        seen = set()
        for name, index, data in stored_twists():
            if rng.random() > 0.3:
                continue
            mod = working_modulus(data)
            for L, M in cb.commuting_normal_pairs(data.group):
                n = L.order * M.order
                pools = [None, reference_lattice(data, L, M, axioms=(1,)),
                         reference_lattice(data, L, M, axioms=(1, 2))]
                for pool in pools:
                    for _ in range(3):
                        if pool is None:
                            tab = tuple(rng.randrange(mod) for _ in range(n))
                        else:
                            x = list(pool.particular)
                            for gen, order in pool.generators:
                                t = rng.randrange(order)
                                x = [a + t * g for a, g in zip(x, gen)]
                            tab = tuple(x)
                        cand = OmegaBicharacter(data, L, M, tab)
                        want = reference_verify(cand)
                        assert verify_bicharacter(cand) == want, \
                            (name, index, L.elements, M.elements, tab)
                        seen.add(want.axiom)
        assert seen == {None, 1, 2, 3}

    def test_pair_subcats_need_no_reverification(self):
        data = twist("D8", 5)
        for L, M in cb.commuting_normal_pairs(data.group):
            for s in pair_subcats(data, L, M):
                assert reference_verify(s.B)
                assert SubcatData(data, L, M, s.B) == s

    def test_killed_rows(self):
        # pairings vanishing on L x H are the valid ones with zero H columns
        G = cb.builtin_group("D8")
        data = TwistedGroupData.trivial(G)
        H = cb.center(G)
        for L, M in cb.commuting_normal_pairs(G):
            if not set(H.elements) <= set(M.elements):
                continue
            cols = [j for j, m in enumerate(M.elements) if m in H.elements]
            every = {s.B.table for s in pair_subcats(data, L, M)}
            expect = {t for t in every
                      if all(t[i * M.order + j] == 0
                             for i in range(L.order) for j in cols)}
            got = {s.B.table for s in pair_subcats(data, L, M, killed=H)}
            assert got == expect

    def test_solve_rejects_non_commuting_or_non_normal(self):
        D8 = cb.builtin_group("D8")
        data = TwistedGroupData.trivial(D8)
        V, W = _klein_normals(D8)
        with pytest.raises(cb.NotCentral):
            solve_pairings(data, V, W)
        S = _nonnormal_order2(D8)
        with pytest.raises(cb.NotNormal):
            solve_pairings(data, S, unit(D8))
        with pytest.raises(cb.NotNormal):
            verify_bicharacter(OmegaBicharacter(data, S, unit(D8), (0, 0)))


def every_pairing_row(data, L, M, killed=None):
    """(A, b, N'): one row per axiom instance, reduced, none dropped."""
    G = data.group
    mod = working_modulus(data)
    blocks = list(subcats._axiom_blocks(G, L, M))
    if killed is not None:
        pm = [M.elements.index(h) for h in killed.elements]
        cols = np.arange(L.order)[:, None] * M.order + np.array(pm)
        blocks.append(((L.elements, killed.elements), ((cols, 1),), ()))
    beta = data.beta_table
    offsets = []
    for axes, _terms, offset in blocks:
        total = np.zeros([len(ax) for ax in axes], dtype=np.int64)
        for at, sign in offset:
            total = total + sign * beta[at]
        offsets.append(G.exponent * total)
    b = np.concatenate([offset.ravel() for offset in offsets])
    A = np.zeros((b.size, L.order * M.order), dtype=np.int64)
    start = 0
    for (_axes, terms, _), offset in zip(blocks, offsets):
        rows = np.arange(start, start + offset.size).reshape(offset.shape)
        for cols, coef in terms:
            A[rows, cols] += coef
        start += offset.size
    return A % mod, b % mod, mod


def solve_before_factoring(data, L, M, killed=None):
    """solve_congruences on every pairing row, with repeats dropped as
    (row, offset) pairs in first-seen order.  A row reading 0 = c stays
    in, and twin rows with different offsets both stay in."""
    A, b, mod = every_pairing_row(data, L, M, killed)
    both = np.column_stack([A, b])
    kept = list(dict.fromkeys(map(tuple, both[both.any(axis=1)].tolist())))
    kept = np.array(kept, dtype=np.int64).reshape(-1, A.shape[1] + 1)
    return solve_congruences(kept[:, :-1], kept[:, -1], mod)


def points(sol):
    """A solved lattice as its point set: None, or its sorted points.  Two
    lattices are equal exactly when these are, whatever their bases."""
    return None if sol is None else sorted(sol.enumerate())


def solve_generator_rows(data, L, M, killed=None):
    """solve_congruences on the generator rows per_pair_system builds,
    with the offsets read off the twist's beta table: the oracle for
    twists that are no cocycle, where the full rows may refuse more."""
    system = per_pair_system(data.group, L, M, killed, working_modulus(data))
    mod, shape, dtype, cells = system["key"]
    A = np.frombuffer(cells, dtype=dtype).reshape(shape)
    b = (data.beta_table.ravel()[system["gather"]]
         * system["signs"]).sum(axis=1) * data.group.exponent
    return solve_congruences(A, b % mod, mod)


def build_rows(G, L, M, killed):
    """The pairing rows of a structure, built outside the rows cache."""
    return subcats._PairingRows(G, L, M, killed, G.table.tobytes())


class TestFactoredPairings:
    """solve_pairings solves the generator rows on one shared factor;
    every genuine twist, pair and killed subgroup must get the lattice
    of every pairing row."""

    @pytest.mark.parametrize("name", cb.H3_BATTERY)
    def test_every_stored_twist_and_pair(self, name):
        seen = set()
        for _, _, data in stored_twists([name]):
            for L, M in cb.commuting_normal_pairs(data.group):
                want = points(solve_before_factoring(data, L, M))
                assert points(solve_pairings(data, L, M)) == want, \
                    (name, L.elements, M.elements)
                seen.add(want is None)
        assert False in seen

    def test_every_killed_system_of_enumerate_rep(self, monkeypatch):
        calls = []
        real = subcats.solve_pairings

        def spy(data, L, M, killed=None):
            calls.append((data, L, M, killed))
            return real(data, L, M, killed)

        monkeypatch.setattr(subcats, "solve_pairings", spy)
        for name in cb.H3_BATTERY + ("C8", "C2xC4", "C2xC2xC2"):
            G = cb.builtin_group(name)
            for grading in cb.gradings_of_rep(G):
                cb.enumerate_rep(G, grading.central)
        assert calls and all(k is not None for *_, k in calls)
        for data, L, M, killed in calls:
            assert points(real(data, L, M, killed)) == \
                points(solve_before_factoring(data, L, M, killed))

    @pytest.mark.parametrize("name", ["S3", "D8", "Q8", "D12", "D16",
                                      "C2xC2xC2"])
    def test_every_commuting_pair_of_untwisted_groups(self, name):
        # non-abelian groups of order up to 16, where invariance under
        # the generators of G alone must give invariance under all of G
        data = TwistedGroupData.trivial(cb.builtin_group(name))
        for L, M in cb.commuting_normal_pairs(data.group):
            assert points(solve_pairings(data, L, M)) == \
                points(solve_before_factoring(data, L, M)), \
                (name, L.elements, M.elements)

    def test_corrupted_twists_meet_the_generator_row_oracle(self):
        # twists that are no cocycle: the generator rows may admit what
        # the full rows refuse, so the oracle is the generator rows,
        # solved per pair without the shared factor
        seen = set()
        for data in corrupted_twists(20191008):
            for L, M in cb.commuting_normal_pairs(data.group):
                want = points(solve_generator_rows(data, L, M))
                assert points(solve_pairings(data, L, M)) == want, \
                    (data.group.name, L.elements, M.elements)
                seen.add(want is None)
        assert seen == {False, True}


def conjugation_offsets(data):
    """c[g, l, m] = beta_l(g, m) + beta_l(gm, g^-1) - beta_l(g, g^-1)
    mod N over the whole group: the offset of the invariance row at g."""
    G = data.group
    T, inv, beta = G.table, G.inverse, data.beta_table.astype(np.int64)
    g = np.arange(G.order)[:, None, None]
    l = np.arange(G.order)[None, :, None]
    m = np.arange(G.order)[None, None, :]
    return (beta[l, g, m] + beta[l, T[g, m], inv[g]]
            - beta[l, g, inv[g]]) % data.modulus


def offsets_compose(data, L, M):
    """Whether c_gh(l, m) = c_h(g^-1 l g, m) + c_g(l, h m h^-1) (mod N)
    for all g, h in G, l in L and m in M: the identity that makes the
    invariance rows at the generators of G imply every invariance row."""
    G = data.group
    T, inv = G.table, G.inverse
    c = conjugation_offsets(data)
    g = np.arange(G.order)[:, None, None, None]
    h = np.arange(G.order)[None, :, None, None]
    l = np.array(L.elements)[None, None, :, None]
    m = np.array(M.elements)[None, None, None, :]
    lhs = c[T[g, h], l, m]
    rhs = c[h, T[T[inv[g], l], g], m] + c[g, l, T[T[h, m], inv[h]]]
    return bool(((lhs - rhs) % data.modulus == 0).all())


class TestGeneratorRows:
    """The facts _PairingRows leans on to keep only generator rows."""

    def test_invariance_offsets_compose_for_every_stored_twist(self):
        pairs = 0
        for name, index, data in stored_twists():
            for L, M in cb.commuting_normal_pairs(data.group):
                assert offsets_compose(data, L, M), \
                    (name, index, L.elements, M.elements)
                pairs += 1
        assert pairs == 1508

    def test_invariance_offsets_fail_to_compose_for_corrupted_twists(self):
        # the identity needs a cocycle: a bumped cell breaks it on most
        # corrupted twists, so the check above can fail
        broken = [not all(offsets_compose(data, L, M)
                          for L, M in cb.commuting_normal_pairs(data.group))
                  for data in corrupted_twists(20191008)]
        assert (sum(broken), len(broken)) == (60, 64)

    def test_rows_per_block_are_cut_to_generators(self):
        # one axis of each axiom block runs over a generating set: the
        # C2xC4 system over (G, G) has 8 * 8 * 2 right-slot, 8 * 2 * 8
        # left-slot and 2 * 8 * 8 invariance rows
        A = cb.builtin_group("C2xC4")
        G = whole(A)
        assert G.generators == (1, 4)
        system = build_rows(A, G, G, None).build(4)
        assert system._a.shape == (3 * 8 * 8 * 2, 64)
        # a trivial subgroup takes the identity as its one generator:
        # one row per slot and one per generator of G
        one = build_rows(A, unit(A), unit(A), None).build(4)
        assert one._a.shape == (1 + 1 + 2, 1)


class TestPairingFactorCache:
    def test_key_holds_modulus_and_shape(self):
        # the same cells read under another modulus or shape are another
        # system, and must get their own factor
        cells = np.array([1, 2, 3, 1], dtype=np.uint8).tobytes()
        subcats._pairing_factor.cache_clear()
        for mod, shape in [(6, (2, 2)), (7, (2, 2)), (6, (1, 4)),
                           (6, (4, 1)), (6, (2, 2))]:
            A = np.frombuffer(cells, dtype=np.uint8).reshape(shape)
            factor = subcats._pairing_factor(mod, shape, cells)
            for b in itertools.product(range(mod), repeat=shape[0]):
                if b[0] > 2:
                    break
                assert factor.solve(b) == solve_congruences(A, b, mod), \
                    (mod, shape, b)
        assert subcats._pairing_factor.cache_info().currsize == 4

    def test_never_grows_past_its_bound(self):
        subcats._pairing_factor.cache_clear()
        info = subcats._pairing_factor.cache_info()
        assert info.maxsize == PAIRING_FACTORS
        for v in range(1, PAIRING_FACTORS + 40):
            cells = np.array([v], dtype=np.uint16).tobytes()
            sol = subcats._pairing_factor(1000, (1, 1), cells).solve([v])
            assert sol is not None
            assert subcats._pairing_factor.cache_info().currsize <= \
                PAIRING_FACTORS
        assert subcats._pairing_factor.cache_info().currsize == \
            PAIRING_FACTORS
        # evicting changes no result
        data = twist("D8", 3)
        for L, M in cb.commuting_normal_pairs(data.group):
            assert points(solve_pairings(data, L, M)) == \
                points(solve_before_factoring(data, L, M))


def clear_pairing_caches():
    subcats._ROWS.clear()
    subcats._SUBGROUP_ROWS.clear()
    subcats._pairing_factor.cache_clear()


def held_factors():
    """The live factor of every cached structure at every N' it holds."""
    return {(key, mod): factor
            for key, rows in subcats._ROWS.items()
            for mod, factor in rows.factors.items()}


def by_group(twists):
    """The twists' (data, L, M) jobs, one list per group table in order."""
    groups = {}
    for data in twists:
        jobs = groups.setdefault(data.group.table.tobytes(), [])
        jobs.extend((data, L, M)
                    for L, M in cb.commuting_normal_pairs(data.group))
    return list(groups.values())


class TestPairingSystemCache:
    """solve_pairings keeps rows per (G, L, M, killed) and their factor
    per N'; rows built for one twist must give every later twist its own
    solution."""

    @pytest.mark.parametrize("source", ["stored", "corrupted"])
    def test_cold_then_warm_systems_match_the_oracle(self, source):
        # every row for genuine twists, the generator rows for the others
        twists, oracle = (
            ([data for _, _, data in stored_twists()], solve_before_factoring)
            if source == "stored" else
            (corrupted_twists(20191009), solve_generator_rows))
        reused = 0
        for jobs in by_group(twists):
            want = [points(oracle(*job)) for job in jobs]
            clear_pairing_caches()
            # cold: the first twist of the group builds each system and
            # every later twist solves on it
            for job, w in zip(jobs, want):
                assert points(solve_pairings(*job)) == w, job
            rows, built = dict(subcats._ROWS), held_factors()
            assert len(built) < len(jobs) and len(rows) <= PAIRING_FACTORS
            assert len(rows) <= len(built)
            reused += len(jobs) - len(built)
            # warm: the same rows and factors, no new ones
            for job, w in zip(jobs, want):
                assert points(solve_pairings(*job)) == w, job
            assert subcats._ROWS.keys() == rows.keys()
            assert all(subcats._ROWS[k] is v for k, v in rows.items())
            assert held_factors().keys() == built.keys()
            assert all(held_factors()[k] is v for k, v in built.items())
        assert reused

    def test_never_holds_more_than_its_bound(self):
        clear_pairing_caches()
        # the 16 pairs of C6 have 16 distinct rows (the 25 of C2xC2 only 9)
        G = cb.builtin_group("C6")
        pairs = cb.commuting_normal_pairs(G)
        # one working modulus per k: enough factors to pass the bound
        jobs = [(TwistedGroupData.trivial(G, modulus=k), L, M)
                for k in range(1, PAIRING_FACTORS // len(pairs) + 2)
                for L, M in pairs]
        assert len(jobs) > PAIRING_FACTORS
        for data, L, M in jobs:
            assert points(solve_pairings(data, L, M)) == \
                points(solve_before_factoring(data, L, M))
            held = {id(f) for f in held_factors().values()}
            assert len(held) <= PAIRING_FACTORS
        assert len(held) == PAIRING_FACTORS
        assert len(subcats._ROWS) == len(pairs)
        # the first factors were evicted; rebuilding them changes nothing
        for data, L, M in jobs[:30]:
            assert points(solve_pairings(data, L, M)) == \
                points(solve_before_factoring(data, L, M))
        assert len({id(f) for f in held_factors().values()}) == \
            PAIRING_FACTORS

    def test_rows_and_subgroup_pieces_stay_bounded(self, monkeypatch):
        # the 35 structures and 21 subgroups of C2xC2xC2 and D8 past a
        # bound of 8
        monkeypatch.setattr(subcats, "PAIRING_FACTORS", 8)
        clear_pairing_caches()
        for name in ("C2xC2xC2", "D8"):
            data = TwistedGroupData.trivial(cb.builtin_group(name))
            for L, M in cb.commuting_normal_pairs(data.group):
                assert points(solve_pairings(data, L, M)) == \
                    points(solve_before_factoring(data, L, M))
                assert len(subcats._ROWS) <= 8
                assert len(subcats._SUBGROUP_ROWS) <= 8
        assert len(subcats._ROWS) == len(subcats._SUBGROUP_ROWS) == 8
        # evicted pieces are rebuilt alike
        data = TwistedGroupData.trivial(cb.builtin_group("C2xC2xC2"))
        for L, M in cb.commuting_normal_pairs(data.group):
            assert points(solve_pairings(data, L, M)) == \
                points(solve_before_factoring(data, L, M))

    def test_a_sequence_past_the_old_bound_builds_no_system_twice(
            self, monkeypatch):
        # one pairings benchmark pass needs 591 structures; these three
        # groups need 356, past the former bound of 256
        built, written = [], []

        class Counted(subcats._PairingRows):
            __slots__ = ()

            def __init__(self, G, L, M, killed, table):
                built.append((table, L.elements, M.elements))
                super().__init__(G, L, M, killed, table)

            def build(self, mod):
                written.append((id(self), mod))
                return super().build(mod)

        monkeypatch.setattr(subcats, "_PairingRows", Counted)
        monkeypatch.setattr(subcats, "_ROWS", type(subcats._ROWS)())
        subcats._pairing_factor.cache_clear()
        runs = [TwistedGroupData.trivial(cb.builtin_group(name))
                for name in ("C2xC2xC2", "C2xC4", "C3xC3")]
        counts = [len(enumerate_subcats(data)) for data in runs]
        assert len(built) > 256 and len(written) == len(built)
        assert [len(enumerate_subcats(data)) for data in runs] == counts
        assert len(set(built)) == len(built)
        assert len(set(written)) == len(written)

    def test_untwisted_battery_builds_no_row_transform(self):
        # every offset of the zero twist is 0, so no factor needs U; a
        # genuine twist meets nonzero offsets and builds it
        clear_pairing_caches()
        for name in cb.H3_BATTERY:
            enumerate_subcats(TwistedGroupData.trivial(cb.builtin_group(name)))
        factors = held_factors().values()
        assert factors and all(f._u is None for f in factors)
        enumerate_subcats(twist("D8", 3))
        assert any(f._u is not None for f in held_factors().values())

    def test_two_working_moduli_get_two_systems(self):
        clear_pairing_caches()
        G = cb.builtin_group("C4")
        L = M = whole(G)
        for k in (2, 3, 2):
            data = TwistedGroupData.trivial(G, modulus=k)
            assert points(solve_pairings(data, L, M)) == \
                points(solve_before_factoring(data, L, M))
        # one set of rows, factored at N' = 4k for each k
        (rows,) = subcats._ROWS.values()
        assert sorted(mod for _, mod in held_factors()) == [8, 12]
        assert sorted(rows.factors) == [8, 12]

    def test_structural_errors_raise_on_every_call(self):
        D8 = cb.builtin_group("D8")
        data = TwistedGroupData.trivial(D8)
        V, W = _klein_normals(D8)
        S = _nonnormal_order2(D8)
        H = cb.center(D8)
        clear_pairing_caches()
        for L, M in cb.commuting_normal_pairs(D8):
            solve_pairings(data, L, M)
            solve_pairings(data, L, M, killed=unit(D8))
        held = len(subcats._ROWS)
        for _ in range(2):
            with pytest.raises(cb.NotCentral):
                solve_pairings(data, V, W)
            with pytest.raises(cb.NotNormal):
                solve_pairings(data, S, unit(D8))
            with pytest.raises(cb.InvalidElement):
                solve_pairings(data, unit(D8), unit(D8), killed=H)
        assert len(subcats._ROWS) == held
        # the ids of a held system's subgroups, over another group's table
        Q8 = cb.builtin_group("Q8")
        for L in (unit(Q8), whole(Q8)):
            with pytest.raises(cb.ParentMismatch):
                solve_pairings(data, L, whole(D8))
            with pytest.raises(cb.ParentMismatch):
                solve_pairings(data, whole(D8), L)


def per_pair_system(G, L, M, killed, mod):
    """A pairing system's offset terms and factor key, sliced per pair
    from the full blocks of _axiom_blocks(G, L, M): each axiom block cut
    along one axis to a generating set (m2 in gens(M), l in gens(L), g in
    gens(G), (0,) for a trivial subgroup), the killed unit rows L x K
    after them, and every row kept."""
    def cut(S):
        return [S.elements.index(x) for x in S.generators or (0,)]

    right, left, invariant = subcats._axiom_blocks(G, L, M)
    blocks = [(right, (slice(None), slice(None), cut(M))),
              (left, (slice(None), cut(L))),
              (invariant, (cut(cb.Subgroup(G, G.elements)),))]
    if killed is not None:
        pm = subcats._positions(G, M)[list(killed.elements)]
        cols = np.arange(L.order)[:, None] * M.order + pm
        blocks.append((((L.elements, killed.elements), ((cols, 1),), ()),
                       ()))
    A, gather, signs = [], [], []
    for (axes, terms, offset), at in blocks:
        shape = tuple(map(len, axes))

        def rows(index):
            """An index array over the block, one entry per kept row."""
            return np.broadcast_to(index, shape)[at].ravel()

        size = rows(0).size
        block = np.zeros((size, L.order * M.order), dtype=np.int64)
        for cols, coef in terms:
            block[np.arange(size), rows(cols)] += coef
        # each row's beta offset, padded to three terms with index 0, sign 0
        f = np.zeros((size, 3), dtype=np.int32)
        sg = np.zeros((size, 3), dtype=np.int8)
        for t, ((a, g, h), sign) in enumerate(offset):
            f[:, t] = rows((a * G.order + g) * G.order + h)
            sg[:, t] = sign
        A.append(block)
        gather.append(f)
        signs.append(sg)
    A = (np.concatenate(A) % mod).astype(np.min_scalar_type(mod))
    return {"gather": np.concatenate(gather),
            "signs": np.concatenate(signs),
            "key": (mod, A.shape, A.dtype, A.tobytes())}


def assert_same_system(G, L, M, killed, mod):
    want = per_pair_system(G, L, M, killed, mod)
    got = build_rows(G, L, M, killed)
    where = (G.name, L.elements, M.elements,
             None if killed is None else killed.elements, mod)
    factor = got.build(mod)
    A = factor._a
    assert (factor._modulus, A.shape, A.dtype, A.tobytes()) == \
        want.pop("key"), where
    for name, arr in want.items():
        mine = getattr(got, name)
        assert (mine.dtype, mine.shape, mine.tobytes()) == \
            (arr.dtype, arr.shape, arr.tobytes()), (name, where)


class TestPairingCatalog:
    """Every pairing system _PairingRows builds is byte for byte the
    generator rows per_pair_system slices from the full blocks of
    _axiom_blocks, so the directly built cut is checked independently."""

    GROUPS = cb.H3_BATTERY + ("C8", "C2xC4", "C2xC2xC2", "D16")

    @pytest.mark.parametrize("name", GROUPS)
    def test_every_commuting_pair(self, name):
        G = cb.builtin_group(name)
        # N' = exponent(G) * N: the small ones reduce coefficients -2 and 2
        moduli = {G.exponent * k for k in (1, 2, 3)}
        if name in cb.H3_BATTERY:
            moduli |= {working_modulus(data)
                       for _, _, data in stored_twists([name])}
        for mod in sorted(moduli):
            for L, M in cb.commuting_normal_pairs(G):
                assert_same_system(G, L, M, None, mod)

    def test_every_killed_system_of_enumerate_rep(self, monkeypatch):
        calls = []
        real = subcats.solve_pairings

        def spy(data, L, M, killed=None):
            calls.append((data.group, L, M, killed, working_modulus(data)))
            return real(data, L, M, killed)

        monkeypatch.setattr(subcats, "solve_pairings", spy)
        for name in self.GROUPS:
            G = cb.builtin_group(name)
            for grading in cb.gradings_of_rep(G):
                cb.enumerate_rep(G, grading.central)
        assert calls and all(job[3] is not None for job in calls)
        for job in calls:
            assert_same_system(*job)

    def test_structural_errors_are_raised(self):
        D8 = cb.builtin_group("D8")
        V, W = _klein_normals(D8)
        S = _nonnormal_order2(D8)
        H = cb.center(D8)
        for L, M, killed, error in [(V, W, None, cb.NotCentral),
                                    (S, unit(D8), None, cb.NotNormal),
                                    (unit(D8), S, None, cb.NotNormal),
                                    (unit(D8), unit(D8), H,
                                     cb.InvalidElement)]:
            with pytest.raises(error):
                build_rows(D8, L, M, killed)

    def test_builds_the_trivial_pair_of_an_order_548_group(self):
        # one row per axiom at the one generator of C548: no table of
        # |G|^3 rows stands behind it
        G = cb.cyclic(548)
        rows = build_rows(G, unit(G), unit(G), None)
        factor = rows.build(548)
        assert factor._a.shape == (3, 1)
        sol = factor.solve(rows.offsets(np.zeros((548,) * 3, dtype=np.int8),
                                        548))
        assert sorted(sol.enumerate()) == [(0,)]

    def test_beta_indices_past_int32_widen(self, monkeypatch):
        # the left-slot offsets of (1, C1300) reach m |G|^2 = 1299 * 1300^2,
        # past the int32 maximum
        G = cb.cyclic(1300)
        rows = build_rows(G, unit(G), whole(G), None)
        assert rows.gather.dtype == np.int64
        assert rows.gather.max() == 1299 * 1300 ** 2
