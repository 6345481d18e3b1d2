"""Group core: builders, subgroup machinery, quotients, duals, isomorphism.

The subgroup oracle is a raw subset scan (feasible through order 8), so the
join-closure enumerator is checked against something with no shared logic.
"""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

import crossbraid as cb
from crossbraid.errors import (
    GroupTooLarge,
    InvalidElement,
    NotAbelian,
    NotAGroup,
    NotAHomomorphism,
    NotNormal,
    NotSurjective,
    UnknownBuiltin,
)


def brute_subgroup_sets(G):
    """Every subgroup of G as a frozenset, by scanning all subsets (|G| <= 8)."""
    assert G.order <= 8
    out = set()
    ids = list(range(1, G.order))
    for r in range(G.order):
        for extra in itertools.combinations(ids, r):
            cand = {0, *extra}
            ok = all(G.table[a][b] in cand for a in cand for b in cand)
            if ok:
                out.add(frozenset(cand))
    return out


def relabeled_copy(G, rng):
    """Same group under a random relabeling fixing the identity."""
    perm = [0] + rng.sample(range(1, G.order), G.order - 1)
    table = [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            table[perm[a]][perm[b]] = perm[G.table[a][b]]
    return cb.FiniteGroup(table)


BATTERY = ["C2", "C3", "C4", "C6", "C2xC2", "S3", "D8", "Q8"]
# every builtin group of order at most 16 (D6 is S3)
ORDER_LE_16 = tuple(f"C{n}" for n in range(1, 17)) + (
    "S3", "D8", "D10", "D12", "D14", "D16", "Q8", "C2xC2", "C2xC4", "C2xC6",
    "C3xC3", "C2xC8", "C4xC4", "C2xC2xC2", "C2xC2xC4", "C2xC2xC2xC2")


class TestValidation:
    def test_cyclic_tables_validate(self):
        for n in (1, 2, 5, 8):
            G = cb.FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)])
            assert G.order == n

    def test_rejects_non_square(self):
        with pytest.raises(NotAGroup):
            cb.FiniteGroup([[0, 1], [1]])

    def test_rejects_bad_identity(self):
        with pytest.raises(NotAGroup):
            cb.FiniteGroup([[1, 0], [0, 1]])

    def test_rejects_non_latin(self):
        with pytest.raises(NotAGroup):
            cb.FiniteGroup([[0, 1, 2], [1, 1, 1], [2, 0, 1]])

    def test_rejects_non_associative(self):
        # order-5 Latin square with identity that is not the cyclic group
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(NotAGroup, match="associativity"):
            cb.FiniteGroup(table)

    def test_rejects_out_of_range(self):
        with pytest.raises(NotAGroup):
            cb.FiniteGroup([[0, 1], [1, 7]])

    def test_builders_produce_valid_tables(self):
        for name in BATTERY + ["S4", "D12", "C2xC3xC4"]:
            G = cb.builtin_group(name)
            again = cb.FiniteGroup(G.table)  # runs full validation
            assert again.order == G.order


class TestBuilders:
    def test_cyclic(self):
        C4 = cb.cyclic(4)
        assert C4.table[1][3] == 0 and C4.table[2][3] == 1
        assert C4.is_abelian and C4.exponent == 4

    def test_dihedral_structure(self):
        D8 = cb.dihedral(8)
        assert sorted(D8.element_orders) == [1, 2, 2, 2, 2, 2, 4, 4]
        assert not D8.is_abelian
        with pytest.raises(UnknownBuiltin):
            cb.dihedral(7)

    def test_quaternion_structure(self):
        Q8 = cb.quaternion()
        assert sorted(Q8.element_orders) == [1, 2, 4, 4, 4, 4, 4, 4]
        # i * j = k, j * i = -k
        assert Q8.labels[Q8.table[2, 4]] == "k"
        assert Q8.labels[Q8.table[4, 2]] == "-k"

    def test_symmetric(self):
        S3 = cb.symmetric(3)
        assert S3.order == 6 and not S3.is_abelian
        S4 = cb.symmetric(4)
        assert sorted(len(c) for _, c in cb.conjugacy_classes(S4)) == [1, 3, 6, 6, 8]
        with pytest.raises(UnknownBuiltin):
            cb.symmetric(7)

    def test_product_and_multifactor_names(self):
        G = cb.builtin_group("C2xC2xC2")
        assert G.order == 8 and G.exponent == 2
        assert cb.builtin_group("C2xC3").exponent == 6

    def test_from_generators(self):
        S3 = cb.from_generators(["(0 1)", "(0 1 2)"], 3)
        assert cb.is_isomorphic(S3, cb.symmetric(3))
        D8 = cb.from_generators(["(0 1 2 3)", "(0 2)"], 4)
        assert cb.is_isomorphic(D8, cb.dihedral(8))
        with pytest.raises(NotAGroup):
            cb.from_generators([(0, 0, 1)], 3)

    def test_parse_permutation(self):
        from crossbraid.groups import parse_permutation

        assert parse_permutation("(0 1 2)(3 4)", 5) == (1, 2, 0, 4, 3)
        assert parse_permutation("e", 3) == (0, 1, 2)
        with pytest.raises(ValueError):
            parse_permutation("(0 9)", 3)
        with pytest.raises(ValueError):
            parse_permutation("(0 0)", 3)

    def test_build_group_dispatch(self):
        assert cb.build_group("Q8").order == 8
        assert cb.build_group({"builtin": "S3"}).order == 6
        g = cb.build_group({"generators": ["(0 1)"], "degree": 2})
        assert g.order == 2
        assert cb.build_group({"table": [[0, 1], [1, 0]], "order": 2}).order == 2
        with pytest.raises(NotAGroup):
            cb.build_group({"table": [[0, 1], [1, 0]], "order": 3})
        with pytest.raises(UnknownBuiltin):
            cb.build_group("F17")

    def test_element_ops(self):
        S3 = cb.symmetric(3)
        T, inv = S3.table, S3.inverse
        for a in S3.elements:
            assert T[a, inv[a]] == T[inv[a], a] == 0
            x, k = a, 1
            while x != 0:
                x, k = T[x, a], k + 1
            assert k == S3.element_orders[a]
        with pytest.raises(InvalidElement):
            S3.check_element(6)


class TestSubgroups:
    @pytest.mark.parametrize("name", BATTERY)
    def test_matches_subset_oracle(self, name):
        G = cb.builtin_group(name)
        got = {frozenset(S.elements) for S in cb.all_subgroups(G)}
        assert got == brute_subgroup_sets(G)

    def test_counts(self):
        counts = {"C4": 3, "S3": 6, "Q8": 6, "D8": 10, "C2xC2xC2": 16}
        for name, k in counts.items():
            assert len(cb.all_subgroups(cb.builtin_group(name))) == k

    def test_sorted_and_lagrange(self):
        G = cb.dihedral(8)
        subs = cb.all_subgroups(G)
        keys = [S.sort_key() for S in subs]
        assert keys == sorted(keys)
        assert all(G.order % S.order == 0 for S in subs)

    def test_closed_under_intersection(self):
        for name in ("D8", "Q8", "S3", "C2xC2xC2"):
            G = cb.builtin_group(name)
            found = {S.elements for S in cb.all_subgroups(G)}
            for a, b in itertools.combinations(found, 2):
                meet = tuple(sorted(set(a) & set(b)))
                assert meet in found

    def test_order_bound(self):
        with pytest.raises(GroupTooLarge):
            cb.all_subgroups(cb.symmetric(5))

    def test_subgroup_validation(self):
        S3 = cb.symmetric(3)
        with pytest.raises(NotAGroup):
            cb.Subgroup(S3, (0, 3))  # 3-cycle alone: not closed
        with pytest.raises(NotAGroup):
            cb.Subgroup(S3, (1, 2))  # no identity

    def test_subgroup_rejects_out_of_range_ids(self):
        # range checks run before the closure loops index the table
        D8 = cb.dihedral(8)
        for ids in ((0, 99), (0, 8), (0, 1, 2, 3, 99)):
            with pytest.raises(cb.InvalidElement):
                cb.Subgroup(D8, ids)

    @pytest.mark.parametrize("name", BATTERY)
    def test_generators_are_greedy_and_generate(self, name):
        # each generator is the least element outside what the earlier
        # ones generate, so no generator is redundant; trivial: none
        G = cb.builtin_group(name)
        for S in cb.all_subgroups(G):
            gens = S.generators
            assert cb.closure(G, gens) == S.elements
            for k, g in enumerate(gens):
                have = set(cb.closure(G, gens[:k]))
                assert g == min(set(S.elements) - have), (S.elements, gens)
            assert S.generators is gens
        assert cb.Subgroup(G, (0,)).generators == ()

    def test_normality(self):
        S3 = cb.symmetric(3)
        normals = cb.normal_subgroups(S3)
        assert [S.order for S in normals] == [1, 3, 6]
        Q8 = cb.quaternion()
        assert len(cb.normal_subgroups(Q8)) == len(cb.all_subgroups(Q8)) == 6

    def test_subgroup_as_group(self):
        S3 = cb.symmetric(3)
        A3 = next(S for S in cb.all_subgroups(S3) if S.order == 3)
        H, embed = cb.subgroup_as_group(A3)
        assert H.order == 3
        for i in range(3):
            for j in range(3):
                assert embed[H.table[i][j]] == S3.table[embed[i]][embed[j]]


class TestStructureQueries:
    def test_conjugacy_classes(self):
        assert [(r, len(c)) for r, c in cb.conjugacy_classes(cb.symmetric(3))] == [
            (0, 1), (1, 3), (3, 2)]
        assert sorted(len(c) for _, c in cb.conjugacy_classes(cb.quaternion())) == [
            1, 1, 2, 2, 2]
        C4 = cb.cyclic(4)
        classes = cb.conjugacy_classes(C4)
        assert len(classes) == 4  # abelian: all singletons

    def test_center_and_centralizer(self):
        S3 = cb.symmetric(3)
        assert cb.center(S3).elements == (0,)
        three_cycle = next(a for a in S3.elements if S3.element_orders[a] == 3)
        assert cb.centralizer(S3, three_cycle).order == 3
        assert cb.center(cb.cyclic(4)).order == 4
        assert cb.center(cb.dihedral(8)).order == 2
        assert cb.center(cb.quaternion()).elements == (0, 1)

    def test_derived_subgroup(self):
        assert cb.derived_subgroup(cb.symmetric(3)).order == 3
        assert cb.derived_subgroup(cb.quaternion()).elements == (0, 1)
        assert cb.derived_subgroup(cb.cyclic(6)).order == 1

    def test_closure_minimal(self):
        G = cb.dihedral(8)
        got = cb.closure(G, (4,))
        for sub in brute_subgroup_sets(G):
            if 4 in sub:
                assert set(got) <= sub or not (set(got) > sub)
        assert set(got) == min(
            (s for s in brute_subgroup_sets(G) if 4 in s), key=len)

    def test_commuting_normal_pairs(self):
        S3 = cb.symmetric(3)
        pairs = {(L.elements, M.elements) for L, M in cb.commuting_normal_pairs(S3)}
        one, a3, s3 = (0,), (0, 3, 4), tuple(range(6))
        assert pairs == {(one, one), (one, a3), (one, s3),
                         (a3, one), (a3, a3), (s3, one)}
        assert len(cb.commuting_normal_pairs(cb.quaternion())) == 23
        assert len(cb.commuting_normal_pairs(cb.dihedral(8))) == 23
        # abelian: every ordered pair of subgroups
        assert len(cb.commuting_normal_pairs(cb.cyclic(4))) == 9


class TestQuotient:
    def test_cyclic_quotient(self):
        C4 = cb.cyclic(4)
        N = cb.Subgroup(C4, (0, 2))
        Q, proj = cb.quotient(C4, N)
        assert Q.order == 2
        assert proj.images == (0, 1, 0, 1)

    def test_s3_quotient(self):
        S3 = cb.symmetric(3)
        A3 = next(S for S in cb.all_subgroups(S3) if S.order == 3)
        Q, proj = cb.quotient(S3, A3)
        assert Q.order == 2 and proj.is_surjective
        assert proj.kernel().elements == A3.elements

    def test_not_normal(self):
        S3 = cb.symmetric(3)
        H = next(S for S in cb.all_subgroups(S3) if S.order == 2)
        with pytest.raises(NotNormal):
            cb.quotient(S3, H)

    def test_projection_section_roundtrip(self):
        Q8 = cb.quaternion()
        Q, proj = cb.quotient(Q8, cb.center(Q8))
        sec = proj.min_section()
        assert all(proj(sec[q]) == q for q in Q.elements)
        assert cb.is_isomorphic(Q, cb.builtin_group("C2xC2"))


class TestGroupHom:
    def test_valid_hom(self):
        C4, C2 = cb.cyclic(4), cb.cyclic(2)
        f = cb.GroupHom(C4, C2, (0, 1, 0, 1))
        assert f(3) == 1 and f.is_surjective and not f.is_injective
        assert f.kernel().elements == (0, 2)

    def test_invalid_hom(self):
        C4, C2 = cb.cyclic(4), cb.cyclic(2)
        with pytest.raises(NotAHomomorphism):
            cb.GroupHom(C4, C2, (0, 1, 1, 0))
        with pytest.raises(NotAHomomorphism):
            cb.GroupHom(C4, C2, (1, 0, 1, 0))
        with pytest.raises(NotAHomomorphism):
            cb.GroupHom(C4, C2, (0, 1, 0))

    def test_min_section_requires_surjective(self):
        C4, C2 = cb.cyclic(4), cb.cyclic(2)
        emb = cb.GroupHom(C2, C4, (0, 2))
        with pytest.raises(NotSurjective):
            emb.min_section()


class TestHomEnumeration:
    def brute_homs(self, G, A):
        out = set()
        for images in itertools.product(A.elements, repeat=G.order):
            if images[0] != 0:
                continue
            if all(images[G.table[a][b]] == A.table[images[a]][images[b]]
                   for a in G.elements for b in G.elements):
                out.add(images)
        return out

    def test_against_brute(self):
        for gname, aname in [("C4", "C2"), ("C2xC2", "C4"), ("S3", "C6"), ("C6", "C6")]:
            G, A = cb.builtin_group(gname), cb.builtin_group(aname)
            got = cb.enumerate_homs_to_abelian(G, A)
            assert set(got) == self.brute_homs(G, A)
            assert got == sorted(got)

    def test_counts(self):
        C2 = cb.cyclic(2)
        assert len(cb.enumerate_homs_to_abelian(cb.quaternion(), C2)) == 4
        assert len(cb.enumerate_homs_to_abelian(cb.symmetric(3), cb.cyclic(3))) == 1
        assert len(cb.enumerate_homs_to_abelian(cb.trivial_group(), C2)) == 1

    def test_rejects_nonabelian_target(self):
        with pytest.raises(NotAbelian):
            cb.enumerate_homs_to_abelian(cb.cyclic(2), cb.symmetric(3))
        with pytest.raises(NotAbelian):
            cb.count_homs_to_abelian(cb.cyclic(2), cb.symmetric(3))

    @pytest.mark.parametrize("name", ORDER_LE_16)
    def test_closed_form_count_matches_enumeration(self, name):
        G = cb.builtin_group(name)
        for aname in ("C1", "C2", "C4", "C6", "C2xC2"):
            A = cb.builtin_group(aname)
            assert cb.count_homs_to_abelian(G, A) == \
                len(cb.enumerate_homs_to_abelian(G, A)), aname


class TestAbelianBasis:
    @pytest.mark.parametrize("name,factors", [
        ("C12", (12,)),
        ("C2xC4", (4, 2)),
        ("C2xC2xC2", (2, 2, 2)),
        ("C2xC6", (6, 2)),
        ("C3xC3", (3, 3)),
        ("C8", (8,)),
        ("C2xC2xC4", (4, 2, 2)),
        ("C4xC4", (4, 4)),
    ])
    def test_invariant_factors(self, name, factors):
        A = cb.builtin_group(name)
        basis = cb.abelian_basis(A)
        assert tuple(order for _, order in basis) == factors

    def test_unique_representation(self):
        for name in ("C2xC4", "C2xC6", "C4xC4", "C12"):
            A = cb.builtin_group(name)
            basis = cb.abelian_basis(A)
            seen = set()
            for coeffs in itertools.product(*(range(o) for _, o in basis)):
                x = 0
                for c, (g, _) in zip(coeffs, basis):
                    for _ in range(c):
                        x = A.table[x, g]
                seen.add(x)
            assert len(seen) == A.order

    def test_rejects_nonabelian(self):
        with pytest.raises(NotAbelian):
            cb.abelian_basis(cb.symmetric(3))


class TestDualGroup:
    def test_c4_pairing(self):
        D = cb.dual_group(cb.cyclic(4))
        assert D.modulus == 4
        # characters sorted lexicographically: id k pairs as e(k,a) = k*a mod 4
        assert D.pairing.tolist() == [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 2],
                                      [0, 3, 2, 1]]
        assert D.character(1, 3).value == 3

    def test_dual_is_isomorphic(self):
        for name in ("C2", "C6", "C2xC2", "C2xC4"):
            A = cb.builtin_group(name)
            D = cb.dual_group(A)
            assert D.group.order == A.order
            assert cb.is_isomorphic(D.group, A)

    def test_trivial_character_is_zero(self):
        D = cb.dual_group(cb.builtin_group("C2xC4"))
        assert all(v == 0 for v in D.pairing[0])

    def test_annihilator(self):
        C4 = cb.cyclic(4)
        D = cb.dual_group(C4)
        H = cb.Subgroup(C4, (0, 2))
        ann = cb.annihilator(D, H)
        assert ann.order == C4.order // H.order
        assert all(D.pairing[chi][2] == 0 for chi in ann.elements)

    def test_double_annihilator_recovers_subgroup(self):
        A = cb.builtin_group("C2xC4")
        D = cb.dual_group(A)
        for S in cb.all_subgroups(A):
            ann = cb.annihilator(D, S)
            back = tuple(a for a in A.elements
                         if all(D.pairing[chi][a] == 0 for chi in ann.elements))
            assert back == S.elements

    def test_rejects_nonabelian(self):
        with pytest.raises(NotAbelian):
            cb.dual_group(cb.symmetric(3))


class TestIsomorphism:
    def test_known_pairs(self):
        assert cb.is_isomorphic(cb.dihedral(6), cb.symmetric(3))
        assert not cb.is_isomorphic(cb.cyclic(4), cb.builtin_group("C2xC2"))
        assert not cb.is_isomorphic(cb.quaternion(), cb.dihedral(8))
        assert not cb.is_isomorphic(cb.cyclic(4), cb.cyclic(8))

    def test_order_eight_types_distinct(self):
        names = ["C8", "C2xC4", "C2xC2xC2", "D8", "Q8"]
        groups = [cb.builtin_group(n) for n in names]
        for i, G in enumerate(groups):
            for j, H in enumerate(groups):
                assert cb.is_isomorphic(G, H) == (i == j)

    def test_relabeling_invariance(self):
        rng = random.Random(41)
        for name in ("S3", "D8", "Q8", "C2xC4"):
            G = cb.builtin_group(name)
            for _ in range(3):
                assert cb.is_isomorphic(G, relabeled_copy(G, rng))

    def test_bound(self):
        with pytest.raises(GroupTooLarge):
            cb.is_isomorphic(cb.symmetric(4), cb.symmetric(4))


def test_abelian_class_count_equals_order():
    for name in ("C2", "C6", "C2xC4", "C2xC2xC2"):
        G = cb.builtin_group(name)
        assert len(cb.conjugacy_classes(G)) == G.order


def test_labels_roundtrip():
    S3 = cb.symmetric(3)
    assert S3.label(0) == "e"
    assert all(isinstance(S3.label(a), str) for a in S3.elements)
    D8 = cb.dihedral(8)
    assert D8.label(0) == "r0"


# -- per-entry reference builders -------------------------------------------
# The constructions the library used before its tables became index maps
# into the parent's table; kept here as independent oracles.


def rows(table):
    """An id array as a tuple of row tuples, the form the references build."""
    return tuple(map(tuple, table.tolist()))


def ref_cyclic_table(n):
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def ref_product(*factors):
    sizes = [g.order for g in factors]
    n = int(np.prod(sizes))

    def pack(tup):
        x = 0
        for v, s in zip(tup, sizes):
            x = x * s + v
        return x

    def unpack(x):
        out = []
        for s in reversed(sizes):
            out.append(x % s)
            x //= s
        return tuple(reversed(out))

    table = tuple(
        tuple(pack(tuple(g.table[a][b] for g, a, b in zip(factors, unpack(i), unpack(j))))
              for j in range(n))
        for i in range(n))
    labels = tuple(
        "(" + ",".join(g.labels[v] for g, v in zip(factors, unpack(i))) + ")"
        for i in range(n))
    name = "x".join(g.name or f"?{g.order}" for g in factors)
    return table, labels, name


def ref_quotient(G, N):
    rep_of = [None] * G.order
    reps = []
    for a in G.elements:
        if rep_of[a] is None:
            coset = sorted(G.table[a][x] for x in N.elements)
            for y in coset:
                rep_of[y] = coset[0]
            reps.append(coset[0])
    reps.sort()
    idx = {r: i for i, r in enumerate(reps)}
    table = tuple(tuple(idx[rep_of[G.table[r][s]]] for s in reps) for r in reps)
    labels = tuple(f"[{G.labels[r]}]" for r in reps)
    name = f"{G.name}/{{{','.join(str(x) for x in N.elements)}}}"
    return table, labels, name, tuple(idx[rep_of[a]] for a in G.elements)


def ref_subgroup_as_group(S):
    G, elems = S.parent, S.elements
    idx = {a: i for i, a in enumerate(elems)}
    table = tuple(tuple(idx[G.table[a][b]] for b in elems) for a in elems)
    labels = tuple(G.labels[a] for a in elems)
    name = f"{G.name}[{','.join(str(a) for a in elems)}]"
    return table, labels, name


def ref_dual(A):
    """Pairing and table of the dual, from the brute-force hom search."""
    e = A.exponent
    chars = cb.enumerate_homs_to_abelian(A, cb.cyclic(e))
    idx = {c: i for i, c in enumerate(chars)}
    table = tuple(tuple(idx[tuple((x + y) % e for x, y in zip(c1, c2))]
                        for c2 in chars) for c1 in chars)
    return tuple(chars), table


def ref_closure(G, seed):
    """Closure under products on both sides with every element found."""
    have = {0, *seed}
    frontier = list(have)
    while frontier:
        x = frontier.pop()
        for y in list(have):
            for z in (G.table[x][y], G.table[y][x]):
                if z not in have:
                    have.add(z)
                    frontier.append(z)
    return tuple(sorted(have))


def central_subgroups(G):
    inside = set(cb.center(G).elements)
    return [S for S in cb.all_subgroups(G) if set(S.elements) <= inside]


class TestBuildersAgainstReference:
    def test_cyclic(self):
        for n in range(1, 17):
            G = cb.cyclic(n)
            assert rows(G.table) == ref_cyclic_table(n)
            assert G.name == f"C{n}"
            assert G.table.dtype == np.int64

    @pytest.mark.parametrize("name", ORDER_LE_16)
    def test_quotients_subgroups_and_products(self, name):
        G = cb.builtin_group(name)
        for N in cb.normal_subgroups(G):
            Q, proj = cb.quotient(G, N)
            table, labels, qname, images = ref_quotient(G, N)
            assert (rows(Q.table), Q.labels, Q.name, proj.images) == \
                (table, labels, qname, images)
            Ngrp, emb = cb.subgroup_as_group(N)
            assert (rows(Ngrp.table), Ngrp.labels, Ngrp.name) == \
                ref_subgroup_as_group(N)
            assert emb == N.elements
            P = cb.product_group(Ngrp, Q)
            assert (rows(P.table), P.labels, P.name) == ref_product(Ngrp, Q)
            assert P.same_table(cb.FiniteGroup(P.table))

    def test_multifactor_products(self):
        for names in (("C2", "C3", "C4"), ("S3", "C2", "Q8"), ("C1", "D8")):
            factors = [cb.builtin_group(n) for n in names]
            P = cb.product_group(*factors)
            assert (rows(P.table), P.labels, P.name) == ref_product(*factors)

    @pytest.mark.parametrize("name", ("C1",) + tuple(
        n for n in ORDER_LE_16 if cb.builtin_group(n).is_abelian))
    def test_dual_group(self, name):
        A = cb.builtin_group(name)
        D = cb.dual_group(A)
        assert (rows(D.pairing), rows(D.group.table)) == ref_dual(A)
        assert D.modulus == A.exponent

    def test_closure_from_random_seeds(self):
        rng = random.Random(5)
        for name in ORDER_LE_16 + ("S4",):
            G = cb.builtin_group(name)
            for size in (0, 1, 1, 2, 2, 3):
                seed = rng.sample(range(G.order), min(size, G.order))
                assert cb.closure(G, seed) == ref_closure(G, seed), (name, seed)

    @pytest.mark.parametrize("name", ORDER_LE_16)
    def test_rep_grading_order_is_order_of_h(self, name):
        from crossbraid.braidings import GradingSpec

        G = cb.builtin_group(name)
        for H in central_subgroups(G):
            assert GradingSpec.rep(H).grading_group().order == H.order


# -- loop references for the whole-group array passes ------------------------
# The per-element loops the library ran before its queries became array
# passes over the table; kept here as independent oracles.


def ref_conjugacy_classes(G):
    t, inv = G.table.tolist(), G.inverse.tolist()
    seen = [False] * G.order
    out = []
    for a in G.elements:
        if seen[a]:
            continue
        orbit = sorted({t[t[g][a]][inv[g]] for g in G.elements})
        for x in orbit:
            seen[x] = True
        out.append((a, tuple(orbit)))
    return out


def ref_centralizer(G, a):
    t = G.table.tolist()
    return tuple(g for g in G.elements if t[g][a] == t[a][g])


def ref_center(G):
    t = G.table.tolist()
    return tuple(a for a in G.elements
                 if all(t[a][g] == t[g][a] for g in G.elements))


def ref_is_normal(G, S):
    t, inv = G.table.tolist(), G.inverse.tolist()
    inside = set(S.elements)
    return all(t[t[g][a]][inv[g]] in inside
               for g in G.elements for a in S.elements)


def ref_commuting_normal_pairs(G):
    t = G.table.tolist()
    normals = [S for S in cb.all_subgroups(G) if ref_is_normal(G, S)]
    return [(L.elements, M.elements) for L in normals for M in normals
            if all(t[a][b] == t[b][a] for a in L.elements for b in M.elements)]


def ref_annihilator(D, H):
    pairing = D.pairing.tolist()
    return tuple(chi for chi in D.group.elements
                 if all(pairing[chi][h] == 0 for h in H.elements))


def ref_subgroup_error(G, elems):
    """The message of the closure loop Subgroup once ran, or None."""
    t, inv = G.table.tolist(), G.inverse.tolist()
    inside = set(elems)
    for a in elems:
        if inv[a] not in inside:
            return f"subgroup not closed under inverse at {a}"
        for b in elems:
            if t[a][b] not in inside:
                return f"subgroup not closed under product at ({a},{b})"
    return None


class TestWholeGroupQueriesAgainstLoops:
    @pytest.mark.parametrize("name", ORDER_LE_16 + ("S4",))
    def test_queries_match_loops(self, name):
        G = cb.builtin_group(name)
        assert cb.conjugacy_classes(G) == ref_conjugacy_classes(G)
        assert cb.center(G).elements == ref_center(G)
        for a in G.elements:
            assert cb.centralizer(G, a).elements == ref_centralizer(G, a)
        subs = cb.all_subgroups(G)
        assert [cb.is_normal(G, S) for S in subs] == \
            [ref_is_normal(G, S) for S in subs]
        assert [S.elements for S in cb.normal_subgroups(G)] == \
            [S.elements for S in subs if ref_is_normal(G, S)]
        assert [(L.elements, M.elements)
                for L, M in cb.commuting_normal_pairs(G)] == \
            ref_commuting_normal_pairs(G)
        if G.is_abelian:
            D = cb.dual_group(G)
            for S in subs:
                assert cb.annihilator(D, S).elements == ref_annihilator(D, S)

    @pytest.mark.parametrize("name", ("S3", "D8", "Q8", "C2xC4"))
    def test_subgroup_check_names_the_loop_witness(self, name):
        G = cb.builtin_group(name)
        for r in range(G.order):
            for extra in itertools.combinations(range(1, G.order), r):
                elems = (0, *extra)
                want = ref_subgroup_error(G, elems)
                if want is None:
                    assert cb.Subgroup(G, elems).elements == elems
                else:
                    with pytest.raises(NotAGroup) as err:
                        cb.Subgroup(G, elems)
                    assert str(err.value) == want

    def test_tables_are_read_only(self):
        G = cb.builtin_group("S3")
        D = cb.dual_group(cb.builtin_group("C2xC2"))
        for array in (G.table, G.inverse, G.element_orders, D.pairing):
            with pytest.raises(ValueError):
                array[1] = 0

    def test_caller_array_is_copied(self):
        given = cb.cyclic(3).table.copy()
        G = cb.FiniteGroup(given)
        given[1, 1] = 0
        assert G.table[1, 1] == 2

    def test_nested_lists_keep_their_messages(self):
        cases = [([[0, 1], [1]], "table must be square and nonempty"),
                 ([], "table must be square and nonempty"),
                 ([[0, "x"], [1, 0]], "square nested list of integer ids"),
                 ([0, 1], "square nested list of integer ids"),
                 ([[0, 1], [1, 7]], "table entry out of range")]
        for table, message in cases:
            with pytest.raises(NotAGroup, match=message):
                cb.FiniteGroup(table)

    def test_associativity_blocks_name_the_same_triple(self, monkeypatch):
        # the order-5 loop of test_rejects_non_associative, one row per block
        table = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                 [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
        with pytest.raises(NotAGroup) as whole:
            cb.FiniteGroup(table)
        monkeypatch.setattr(cb.groups, "_ASSOC_BLOCK", 1)
        with pytest.raises(NotAGroup) as rows_:
            cb.FiniteGroup(table)
        assert str(whole.value) == str(rows_.value)
        assert str(whole.value).startswith("associativity fails on (")

    def test_validation_memory_is_quadratic(self):
        # the whole-table check held two n^3 arrays: 2 x 216 MB at n = 300
        table = cb.cyclic(300).table.copy()
        tracemalloc.start()
        try:
            cb.FiniteGroup(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20, peak


class TestOrderBound:
    @pytest.mark.parametrize("name", ["C100000", "C2xC1000", "D4096",
                                      "C1025", "C32xC33"])
    def test_builtin_names_are_bounded_before_any_table(self, name):
        tracemalloc.start()
        try:
            with pytest.raises(GroupTooLarge, match=str(cb.groups.MAX_ORDER)):
                cb.builtin_group(name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak

    def test_bound_admits_its_own_order(self):
        assert cb.builtin_group("C2xC512").order == cb.groups.MAX_ORDER

    def test_table_rows_are_counted_before_conversion(self):
        # rows that are not even lists: only their count is read
        with pytest.raises(GroupTooLarge):
            cb.build_group({"table": [None] * 1025})
        with pytest.raises(GroupTooLarge):
            cb.build_group([None] * 1025)
        with pytest.raises(NotAGroup):
            cb.build_group({"table": [None] * 1024})

    def test_generator_degree_is_bounded(self):
        with pytest.raises(GroupTooLarge):
            cb.build_group({"generators": [], "degree": 3000000})
        with pytest.raises(GroupTooLarge):
            cb.from_generators([], 1025)
        assert cb.from_generators(["(0 1)"], 1024).order == 2
