"""Crossed-braiding certificates: condition checks and both enumerators."""

import pytest

import crossbraid as cb
from crossbraid.braidings import (
    GradingSpec,
    check_theorem_conditions,
    enumerate_pointed,
    enumerate_rep,
    gradings_of_rep,
)
import crossbraid.subcats as subcats
from crossbraid.subcats import (
    OmegaBicharacter,
    SubcatData,
    contains,
    enumerate_subcats,
    verify_bicharacter,
)
from crossbraid.twisted_center import TwistedGroupData

C2 = cb.cyclic(2)
C4 = cb.cyclic(4)
S3 = cb.builtin_group("S3")
V4 = cb.builtin_group("C2xC2")


def twist(name, index=0):
    H = cb.load_h3_fixture(name, verify=False)
    return TwistedGroupData(H.group, H.class_representative(index))


def identity_hom(G):
    return cb.GroupHom(G, G, tuple(G.elements))


def unit(G):
    return cb.Subgroup(G, (0,))


def whole(G):
    return cb.Subgroup(G, tuple(G.elements))


def triple(s):
    return (s.L.elements, s.M.elements, s.B.table)


class TestGradingSpec:
    def test_pointed_defaults_to_min_section(self):
        pi = cb.GroupHom(C4, C2, (0, 1, 0, 1))
        spec = GradingSpec.pointed(pi)
        assert spec.kind == "pointed"
        assert spec.section == (0, 1)
        assert spec.group is C4
        assert spec.grading_group() is C2

    def test_custom_section(self):
        pi = cb.GroupHom(C4, C2, (0, 1, 0, 1))
        spec = GradingSpec.pointed(pi, section=(0, 3))
        assert spec.section == (0, 3)
        with pytest.raises(cb.InvalidGrading):
            GradingSpec.pointed(pi, section=(0, 2))
        with pytest.raises(cb.InvalidGrading):
            GradingSpec.pointed(pi, section=(1, 1))

    def test_pointed_requires_surjective(self):
        pi = cb.GroupHom(C2, C4, (0, 2))
        with pytest.raises(cb.NotSurjective):
            GradingSpec.pointed(pi)

    def test_rep_requires_central(self):
        A3 = next(S for S in cb.normal_subgroups(S3) if S.order == 3)
        with pytest.raises(cb.NotCentral):
            GradingSpec.rep(A3)

    def test_exactly_one_flavor(self):
        with pytest.raises(cb.InvalidGrading):
            GradingSpec()
        with pytest.raises(cb.InvalidGrading):
            GradingSpec(projection=identity_hom(C2), central=unit(C2))

    def test_rep_grading_group_is_dual_of_h(self):
        Q8 = cb.builtin_group("Q8")
        spec = GradingSpec.rep(cb.center(Q8))
        assert spec.kind == "rep"
        assert spec.grading_group().order == 2
        full = GradingSpec.rep(whole(V4))
        assert cb.is_isomorphic(full.grading_group(), V4)


class TestCheckTheoremConditions:
    def test_nondegenerate_square_fails_centralizing(self):
        data = twist("C2", 0)
        grading = GradingSpec.pointed(identity_hom(C2))
        s = next(s for s in enumerate_subcats(data)
                 if s.L.order == 2 and s.M.order == 2 and any(s.B.table))
        checks = check_theorem_conditions(data, grading, s)
        assert not checks.centralizes
        assert not checks.fpdim
        assert checks.transverse
        assert not checks

    def test_vec_like_witness_passes(self):
        data = twist("C2", 0)
        grading = GradingSpec.pointed(identity_hom(C2))
        s = next(s for s in enumerate_subcats(data)
                 if s.L.order == 1 and s.M.order == 2)
        checks = check_theorem_conditions(data, grading, s)
        assert checks.centralizes and checks.fpdim and checks.transverse
        assert bool(checks)

    def test_rep_symmetric_braiding_passes(self):
        data = TwistedGroupData.trivial(S3)
        s = SubcatData(data, unit(S3), unit(S3),
                       OmegaBicharacter(data, unit(S3), unit(S3), (0,)))
        checks = check_theorem_conditions(data, GradingSpec.rep(unit(S3)), s)
        assert bool(checks)

    def test_witness_from_other_twist_rejected(self):
        data = twist("C2", 0)
        other = twist("C2", 1)
        s = enumerate_subcats(other)[0]
        with pytest.raises(cb.ParentMismatch):
            check_theorem_conditions(data, GradingSpec.pointed(identity_hom(C2)), s)

    def test_foreign_grading_rejected(self):
        data = twist("C2", 0)
        s = enumerate_subcats(data)[0]
        with pytest.raises(cb.InvalidGrading):
            check_theorem_conditions(data, GradingSpec.pointed(identity_hom(C4)), s)

    def test_rep_grading_needs_trivial_twist(self):
        data = twist("C2", 1)
        s = enumerate_subcats(data)[0]
        with pytest.raises(cb.InvalidGrading):
            check_theorem_conditions(data, GradingSpec.rep(unit(C2)), s)


class TestEnumeratePointed:
    def test_identity_grading_is_unique_everywhere(self):
        for name in cb.H3_BATTERY:
            H = cb.load_h3_fixture(name, verify=False)
            G = H.group
            ident = identity_hom(G)
            for i in range(H.order):
                data = TwistedGroupData(G, H.class_representative(i))
                certs = enumerate_pointed(data, ident)
                assert len(certs) == 1
                w = certs[0].witness
                assert w.L.order == 1 and w.M.order == G.order
                assert not any(w.B.table)

    def test_c4_to_c2_trivial_twist(self):
        pi = cb.GroupHom(C4, C2, (0, 1, 0, 1))
        certs = enumerate_pointed(TwistedGroupData.trivial(C4), pi)
        assert len(certs) == 2
        tables = [c.witness.B.table for c in certs]
        assert tables == [(0,) * 8, (0, 0, 0, 0, 0, 2, 0, 2)]
        for c in certs:
            assert c.witness.L.elements == (0, 2)
            assert c.witness.M.order == 4
            assert bool(c.checks)

    def test_noncentral_kernel_gives_nothing(self):
        sgn = cb.GroupHom(S3, C2, tuple(
            1 if S3.element_orders[g] == 2 else 0 for g in S3.elements))
        assert enumerate_pointed(TwistedGroupData.trivial(S3), sgn) == []

    def test_section_does_not_affect_checks(self):
        pi = cb.GroupHom(C4, C2, (0, 1, 0, 1))
        data = TwistedGroupData.trivial(C4)
        certs = enumerate_pointed(data, pi)
        other = GradingSpec.pointed(pi, section=(0, 3))
        for c in certs:
            assert bool(check_theorem_conditions(data, other, c.witness))

    def test_foreign_projection_rejected(self):
        with pytest.raises(cb.ParentMismatch):
            enumerate_pointed(TwistedGroupData.trivial(C4), identity_hom(C2))

    def test_non_surjective_rejected(self):
        pi = cb.GroupHom(C2, C4, (0, 2))
        with pytest.raises(cb.NotSurjective):
            enumerate_pointed(TwistedGroupData.trivial(C2), pi)

    def test_d8_to_v4(self):
        D8 = cb.builtin_group("D8")
        Q, proj = cb.quotient(D8, cb.center(D8))
        certs = enumerate_pointed(TwistedGroupData.trivial(D8), proj)
        # B(z, .) ranges over the four linear characters of D8
        assert len(certs) == 4
        for c in certs:
            assert c.witness.L.elements == cb.center(D8).elements


class TestEnumerateRep:
    def test_cyclic_counts_match_bicharacters(self):
        for n in (2, 3, 4, 6):
            G = cb.cyclic(n)
            certs = enumerate_rep(G, unit(G))
            assert len(certs) == n

    def test_c4_shape_split(self):
        certs = enumerate_rep(C4, unit(C4))
        shapes = {}
        for c in certs:
            key = (c.witness.L.order, c.witness.M.order)
            shapes[key] = shapes.get(key, 0) + 1
        assert shapes == {(1, 1): 1, (2, 2): 1, (4, 4): 2}

    def test_s3_contains_symmetric_braiding(self):
        certs = enumerate_rep(S3, unit(S3))
        keys = {triple(c.witness) for c in certs}
        assert ((0,), (0,), (0,)) in keys
        # engine count, hand-checked over the pairs (1,1) and (A3,A3)
        assert len(certs) == 3

    def test_order_eight_counts(self):
        # hand-checked sums over admissible (L, M) pairs
        for name, by_h in (("Q8", {1: 8, 2: 4}), ("D8", {1: 8, 2: 4})):
            G = cb.builtin_group(name)
            for spec in gradings_of_rep(G):
                n = len(enumerate_rep(G, spec.central))
                assert n == by_h[spec.central.order]

    def test_v4_full_grading(self):
        assert len(enumerate_rep(V4, unit(V4))) == 16
        certs = enumerate_rep(V4, whole(V4))
        assert len(certs) == 1
        assert certs[0].witness.L.order == 1
        assert certs[0].witness.M.order == 4

    def test_certificate_structure(self):
        for spec in gradings_of_rep(C4):
            H = spec.central
            for c in enumerate_rep(C4, H):
                w = c.witness
                assert bool(c.checks)
                assert set(H.elements) <= set(w.M.elements)
                assert w.L.order * H.order == w.M.order
                assert all(w.B.exponent_at(l, h) == 0
                           for l in w.L.elements for h in H.elements)

    def test_noncentral_rejected(self):
        A3 = next(S for S in cb.normal_subgroups(S3) if S.order == 3)
        with pytest.raises(cb.NotCentral):
            enumerate_rep(S3, A3)

    def test_foreign_subgroup_rejected(self):
        with pytest.raises(cb.ParentMismatch):
            enumerate_rep(S3, unit(C4))


class TestGradingsOfRep:
    def test_counts(self):
        assert len(gradings_of_rep(S3)) == 1
        assert len(gradings_of_rep(C4)) == 3
        assert len(gradings_of_rep(cb.builtin_group("Q8"))) == 2
        assert len(gradings_of_rep(V4)) == 5

    def test_sorted_and_central(self):
        specs = gradings_of_rep(C4)
        orders = [s.central.order for s in specs]
        assert orders == [1, 2, 4]
        for s in specs:
            assert set(s.central.elements) <= set(cb.center(C4).elements)
        keys = [(s.central.order, s.central.elements)
                for s in gradings_of_rep(V4)]
        assert keys == sorted(keys)


class TestOracleEquivalence:
    """Proposition-style enumeration must equal theorem-condition filtering."""

    @pytest.mark.parametrize("name", ["C2", "C3", "C4", "C6", "C2xC2",
                                      "S3", "D8", "Q8"])
    def test_pointed_against_filter(self, name):
        G = cb.builtin_group(name)
        data = TwistedGroupData.trivial(G)
        subs = enumerate_subcats(data)
        for N in cb.normal_subgroups(G):
            Q, proj = cb.quotient(G, N)
            grading = GradingSpec.pointed(proj)
            direct = {triple(c.witness)
                      for c in enumerate_pointed(data, proj)}
            filtered = {
                triple(s) for s in subs
                if check_theorem_conditions(data, grading, s)}
            assert direct == filtered

    @pytest.mark.parametrize("name", ["C2", "C3", "C4", "C6", "C2xC2",
                                      "S3", "D8", "Q8"])
    def test_rep_against_filter(self, name):
        G = cb.builtin_group(name)
        data = TwistedGroupData.trivial(G)
        subs = enumerate_subcats(data)
        for spec in gradings_of_rep(G):
            direct = {triple(c.witness)
                      for c in enumerate_rep(G, spec.central)}
            filtered = {
                triple(s) for s in subs
                if check_theorem_conditions(data, spec, s)}
            assert direct == filtered


BATTERY = ("C2", "C3", "C4", "C6", "C2xC2", "S3", "D8", "Q8")


def verified_unit(data, L, M):
    """S(L, M, 1) through every construction check, pairing sweep included."""
    table = (0,) * (L.order * M.order)
    return SubcatData(data, L, M, OmegaBicharacter(data, L, M, table))


def nondegenerate(s):
    """Whether every l but the identity pairs nontrivially with some m."""
    return all(any(s.B.exponent_at(l, m) for m in s.M.elements)
               for l in s.L.elements if l != 0)


class TestUnitCopies:
    """The conditions are read off (L, M, B) with no pairing sweep, and
    agree with independent oracles: containment in the verified canonical
    copy, the dimension count and the shape of the pairing."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []

        def counted(cand):
            calls.append(cand)
            return verify_bicharacter(cand)

        monkeypatch.setattr(subcats, "verify_bicharacter", counted)
        return calls

    @pytest.mark.parametrize("name", BATTERY)
    def test_pointed_checks_make_no_sweep_and_keep_their_verdicts(
            self, name, sweeps):
        H = cb.load_h3_fixture(name, verify=False)
        G = H.group
        for k in range(H.class_count):
            data = TwistedGroupData(G, H.class_representative(k))
            subs = enumerate_subcats(data)
            for N in cb.normal_subgroups(G):
                if not set(N.elements) <= set(cb.center(G).elements):
                    continue
                _, proj = cb.quotient(G, N)
                grading = GradingSpec.pointed(proj)
                certs = enumerate_pointed(data, proj)
                got = [check_theorem_conditions(data, grading, s)
                       for s in subs]
                assert sweeps == []
                copy = verified_unit(data, proj.kernel(), unit(G))
                sweeps.clear()
                assert [c.centralizes for c in got] == \
                    [contains(copy, s) for s in subs]
                assert [c.fpdim for c in got] == \
                    [G.order * s.L.order == N.order * s.M.order
                     for s in subs]
                assert [c.transverse for c in got] == \
                    [set(s.M.elements) == set(G.elements) for s in subs]
                assert [triple(c.witness) for c in certs] == \
                    [triple(s) for s, c in zip(subs, got) if c]

    @pytest.mark.parametrize("name", BATTERY)
    def test_rep_checks_make_no_sweep_and_keep_their_verdicts(
            self, name, sweeps):
        G = cb.builtin_group(name)
        data = TwistedGroupData.trivial(G)
        subs = enumerate_subcats(data)
        for spec in gradings_of_rep(G):
            certs = enumerate_rep(G, spec.central)
            got = [check_theorem_conditions(data, spec, s) for s in subs]
            assert sweeps == []
            copy = verified_unit(data, whole(G), spec.central)
            sweeps.clear()
            assert [c.centralizes for c in got] == \
                [contains(copy, s) for s in subs]
            assert [c.fpdim for c in got] == \
                [spec.central.order * s.L.order == s.M.order for s in subs]
            assert [c.transverse for c in got] == \
                [nondegenerate(s) for s in subs]
            assert {triple(c.witness) for c in certs} == \
                {triple(s) for s, c in zip(subs, got) if c}
