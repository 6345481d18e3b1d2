"""Extension splitting, zesting lifts, and the fully faithful obstruction."""

import dataclasses

import pytest

import crossbraid as cb
from crossbraid.cohomology import Cochain, trivial_module
from crossbraid.errors import NotACocycle, NotNormal, ParentMismatch
from crossbraid.groups import (
    Subgroup,
    count_homs_to_abelian,
    is_isomorphic,
    product_group,
    quotient,
    subgroup_as_group,
)
from crossbraid.obstructions import (
    extension_cocycle,
    fibered_enrichment_extends,
    fully_faithful_obstruction,
    zesting_lift_exists,
)

C2 = cb.cyclic(2)
C4 = cb.cyclic(4)
S3 = cb.builtin_group("S3")

ZOO = [
    "C2", "C3", "C4", "C5", "C6", "C8", "C2xC2", "C2xC4", "C2xC2xC2",
    "C3xC3", "C12", "C2xC6", "C16", "C4xC4", "C2xC8", "S3", "D8", "Q8",
    "D12", "D16",
]


def zoo_groups():
    for name in ZOO:
        yield name, cb.builtin_group(name)
    for a, b in [("S3", "C2"), ("D8", "C2"), ("Q8", "C2")]:
        yield f"{a}x{b}", product_group(cb.builtin_group(a),
                                        cb.builtin_group(b))


def first_factor(G):
    return Subgroup(G, (0, 1))


def _class_cochain(ext):
    """The extension class of central data as an untwisted 2-cochain."""
    Ngrp, emb = subgroup_as_group(ext.normal)
    pos = {a: i for i, a in enumerate(emb)}
    module = trivial_module(Ngrp)
    table = tuple(pos[v] for row in ext.cocycle for v in row)
    return module, Cochain(2, ext.base, module, table, normalized=True)


class TestExtensionCocycle:
    def test_split_product_has_trivial_cocycle(self):
        E = cb.builtin_group("C2xC2")
        ext = extension_cocycle(E, first_factor(E))
        assert ext.cocycle == ((0, 0), (0, 0))
        assert ext.section == (0, 2)

    def test_c4_over_half_carries_the_twist(self):
        ext = extension_cocycle(C4, Subgroup(C4, (0, 2)))
        assert ext.base.order == 2
        assert ext.section == (0, 1)
        assert ext.cocycle == ((0, 0), (0, 2))

    def test_s3_over_a3_splits(self):
        A3 = next(s for s in cb.normal_subgroups(S3) if s.order == 3)
        ext = extension_cocycle(S3, A3)
        assert ext.section == (0, 1)
        assert ext.cocycle == ((0, 0), (0, 0))

    def test_identity_slots_vanish(self):
        for _, E in zoo_groups():
            for N in cb.normal_subgroups(E):
                ext = extension_cocycle(E, N)
                G = ext.base
                assert all(ext.cocycle[0][h] == 0 for h in G.elements)
                assert all(ext.cocycle[g][0] == 0 for g in G.elements)

    def test_twisted_cocycle_identity_across_zoo(self):
        # construction re-checks the section identity and the cocycle
        # identity, so surviving it is the assertion
        for _, E in zoo_groups():
            for N in cb.normal_subgroups(E):
                ext = extension_cocycle(E, N)
                inside = set(N.elements)
                assert all(v in inside
                           for row in ext.cocycle for v in row)

    def test_rejects_foreign_subgroup(self):
        with pytest.raises(ParentMismatch):
            extension_cocycle(C4, Subgroup(C2, (0, 1)))

    def test_rejects_non_normal(self):
        with pytest.raises(NotNormal):
            extension_cocycle(S3, Subgroup(S3, (0, 1)))

    def test_tampered_cocycle_rejected(self):
        ext = extension_cocycle(C4, Subgroup(C4, (0, 2)))
        with pytest.raises(ValueError):
            dataclasses.replace(ext, cocycle=((0, 0), (0, 0)))

    def test_tampered_section_rejected(self):
        ext = extension_cocycle(C4, Subgroup(C4, (0, 2)))
        with pytest.raises(ValueError):
            dataclasses.replace(ext, section=(0, 0))
        with pytest.raises(ValueError):
            dataclasses.replace(ext, section=(2, 1))


class TestFiberedEnrichmentExtends:
    def test_product_factor_extends_with_two_enrichments(self):
        E = cb.builtin_group("C2xC2")
        report = fibered_enrichment_extends(E, first_factor(E))
        assert report
        assert report.torsor_count == 2
        assert report.reason == "a direct product complement exists"

    def test_c4_does_not_split_over_half(self):
        report = fibered_enrichment_extends(C4, Subgroup(C4, (0, 2)))
        assert not report
        assert report.reason == "extension class does not vanish"
        assert report.torsor_count is None

    def test_s3_conjugation_blocks(self):
        A3 = next(s for s in cb.normal_subgroups(S3) if s.order == 3)
        report = fibered_enrichment_extends(S3, A3)
        assert not report
        assert report.reason == "conjugation acts nontrivially on N"

    def test_s3_times_c2_sorts_its_order_six_fibers(self):
        E = product_group(S3, C2)
        verdicts = []
        for N in cb.normal_subgroups(E):
            if N.order != 6:
                continue
            Ngrp, _ = subgroup_as_group(N)
            report = fibered_enrichment_extends(E, N)
            verdicts.append((Ngrp.is_abelian, report.extends))
            if report:
                assert report.torsor_count == 1
        assert sorted(verdicts) == [(False, True), (False, True),
                                    (True, False)]

    def test_q8_and_d8_center_classes_obstruct(self):
        for name in ("Q8", "D8"):
            E = cb.builtin_group(name)
            report = fibered_enrichment_extends(E, cb.center(E))
            assert not report
            assert report.reason == "extension class does not vanish"

    def test_trivial_and_full_fibers_always_extend(self):
        for _, E in zoo_groups():
            unit = Subgroup(E, (0,))
            whole = Subgroup(E, tuple(E.elements))
            assert fibered_enrichment_extends(E, unit).torsor_count == 1
            assert fibered_enrichment_extends(E, whole).torsor_count == 1

    def test_matches_direct_product_recognition(self):
        # ground truth: the enrichment extends exactly when the ambient
        # group is (abstractly) the product of the fiber and the base
        for _, E in zoo_groups():
            for N in cb.normal_subgroups(E):
                Q, _ = quotient(E, N)
                Ngrp, _ = subgroup_as_group(N)
                expected = is_isomorphic(E, product_group(Ngrp, Q))
                assert fibered_enrichment_extends(E, N).extends == expected

    def test_torsor_count_is_hom_count_into_center_of_fiber(self):
        for _, E in zoo_groups():
            for N in cb.normal_subgroups(E):
                report = fibered_enrichment_extends(E, N)
                if not report:
                    continue
                Q, _ = quotient(E, N)
                zn = tuple(z for z in N.elements
                           if all(E.table[z, a] == E.table[a, z]
                                  for a in N.elements))
                Zgrp, _ = subgroup_as_group(Subgroup(E, zn))
                assert report.torsor_count == count_homs_to_abelian(Q, Zgrp)

    def test_deterministic(self):
        E = cb.builtin_group("D8")
        Z = cb.center(E)
        assert fibered_enrichment_extends(E, Z) \
            == fibered_enrichment_extends(E, Z)

    def test_rejects_foreign_subgroup(self):
        with pytest.raises(ParentMismatch):
            fibered_enrichment_extends(C4, Subgroup(C2, (0, 1)))

    def test_rejects_non_normal(self):
        with pytest.raises(NotNormal):
            fibered_enrichment_extends(S3, Subgroup(S3, (0, 1)))


class TestZestingLiftExists:
    def test_trivial_center_fiber_always_lifts(self):
        inv = cb.invertibles_of_center(S3)
        module = trivial_module(inv.group)
        for a in inv.group.elements:
            w = Cochain(2, C2, module, (0, 0, 0, a), normalized=True)
            assert zesting_lift_exists(S3, C2, w)

    def test_center_supported_class_blocks(self):
        inv = cb.invertibles_of_center(C2)
        module = trivial_module(inv.group)
        w = Cochain(2, C2, module, (0, 0, 0, 1), normalized=True)
        assert not zesting_lift_exists(C2, C2, w)

    def test_character_supported_class_lifts(self):
        inv = cb.invertibles_of_center(C2)
        module = trivial_module(inv.group)
        w = Cochain(2, C2, module, (0, 0, 0, 2), normalized=True)
        assert zesting_lift_exists(C2, C2, w)

    def test_trivial_class_lifts(self):
        inv = cb.invertibles_of_center(C2)
        module = trivial_module(inv.group)
        w = Cochain(2, C2, module, (0, 0, 0, 0), normalized=True)
        assert zesting_lift_exists(C2, C2, w)

    def test_c4_fiber_separates_center_orders(self):
        inv = cb.invertibles_of_center(C4)
        assert inv.group.order == 16
        module = trivial_module(inv.group)
        # value ids 1, 2 sit in the center part (orders 4 and 2); id 4
        # is a bare character
        for a, liftable in ((1, False), (2, True), (4, True)):
            w = Cochain(2, C2, module, (0, 0, 0, a), normalized=True)
            assert zesting_lift_exists(C4, C2, w) == liftable

    def test_rejects_wrong_degree(self):
        inv = cb.invertibles_of_center(C2)
        module = trivial_module(inv.group)
        w = Cochain(1, C2, module, (0, 1))
        with pytest.raises(NotACocycle):
            zesting_lift_exists(C2, C2, w)

    def test_rejects_foreign_base(self):
        inv = cb.invertibles_of_center(C2)
        module = trivial_module(inv.group)
        w = Cochain(2, C2, module, (0, 0, 0, 1), normalized=True)
        with pytest.raises(ParentMismatch):
            zesting_lift_exists(C2, C4, w)

    def test_rejects_wrong_value_group(self):
        w = Cochain(2, C2, trivial_module(C2), (0, 0, 0, 1), normalized=True)
        with pytest.raises(NotACocycle):
            zesting_lift_exists(C2, C2, w)

    def test_rejects_non_cocycle(self):
        inv = cb.invertibles_of_center(C2)
        module = trivial_module(inv.group)
        table = [0] * 16
        table[4 * 1 + 1] = 1
        w = Cochain(2, C4, module, tuple(table), normalized=True)
        with pytest.raises(NotACocycle):
            zesting_lift_exists(C2, C4, w)


class TestFullyFaithfulObstruction:
    def test_trivial_coefficients(self):
        one = trivial_module(cb.cyclic(1))
        w = Cochain(2, C2, one, (0, 0, 0, 0), normalized=True)
        report = fully_faithful_obstruction(C2, one, w)
        assert report
        assert report.splitting_count == 1

    def test_nontrivial_class_blocks(self):
        module = trivial_module(C2)
        w = Cochain(2, C2, module, (0, 0, 0, 1), normalized=True)
        report = fully_faithful_obstruction(C2, module, w)
        assert not report
        assert report.splitting_count == 0

    def test_trivial_class_counts_splittings(self):
        module = trivial_module(C2)
        w = Cochain(2, C2, module, (0, 0, 0, 0), normalized=True)
        report = fully_faithful_obstruction(C2, module, w)
        assert report.vanishes
        assert report.splitting_count == 2

    def test_central_extension_classes_of_q8_and_d8(self):
        for name in ("Q8", "D8"):
            E = cb.builtin_group(name)
            ext = extension_cocycle(E, cb.center(E))
            module, w = _class_cochain(ext)
            report = fully_faithful_obstruction(ext.base, module, w)
            assert not report.vanishes
            assert report.splitting_count == 0

    def test_split_central_extension_counts_sections(self):
        E = cb.builtin_group("C2xC2xC2")
        ext = extension_cocycle(E, first_factor(E))
        module, w = _class_cochain(ext)
        report = fully_faithful_obstruction(ext.base, module, w)
        assert report.vanishes
        assert report.splitting_count == 4

    def test_one_coboundary_test_per_call(self, monkeypatch):
        from crossbraid import cohomology, obstructions
        calls = []
        real = cohomology.is_coboundary

        def counted(c):
            calls.append(c)
            return real(c)

        for module in (cohomology, obstructions):
            monkeypatch.setattr(module, "is_coboundary", counted)
        for table, vanishes in (((0, 0, 0, 0), True), ((0, 0, 0, 1), False)):
            calls.clear()
            w = Cochain(2, C2, trivial_module(C2), table, normalized=True)
            assert fully_faithful_obstruction(C2, w.module, w).vanishes == vanishes
            assert len(calls) == 1

    def test_agrees_with_fibered_on_central_fibers(self):
        for _, E in zoo_groups():
            central = set(cb.center(E).elements)
            for N in cb.normal_subgroups(E):
                if not set(N.elements) <= central:
                    continue
                ext = extension_cocycle(E, N)
                module, w = _class_cochain(ext)
                report = fully_faithful_obstruction(ext.base, module, w)
                fibered = fibered_enrichment_extends(E, N)
                assert report.vanishes == fibered.extends
                if report.vanishes:
                    assert report.splitting_count == fibered.torsor_count
