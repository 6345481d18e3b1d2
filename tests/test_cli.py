"""End-to-end CLI checks: verbs, exit codes, determinism, file inputs."""

import ast
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import crossbraid as cb
from crossbraid import cli, cohomology, groups, serialize, subcats
from crossbraid.cli import DEFAULT_SEED, RunConfig, run
from crossbraid.cohomology import Cochain, trivial_module


def go(*argv):
    buf = io.StringIO()
    code = run(list(argv), out=buf)
    return code, buf.getvalue()


def go_json(*argv):
    code, text = go(*argv)
    return code, json.loads(text)


class TestPlumbing:
    def test_config_defaults(self):
        cfg = RunConfig(verb="selftest")
        assert cfg.seed == DEFAULT_SEED
        assert cfg.format == "json"

    def test_help_exits_cleanly(self, capsys):
        assert run(["--help"]) == 0
        assert "crossbraid" in capsys.readouterr().out

    def test_unknown_verb_is_malformed(self, capsys):
        assert run(["nonsense"]) == 1
        capsys.readouterr()

    def test_missing_required_flag_is_malformed(self, capsys):
        assert run(["group"]) == 1
        capsys.readouterr()

    def test_unknown_group_is_malformed(self):
        code, doc = go_json("group", "--group", "NoSuchGroup")
        assert code == 1
        assert doc["error"] == "NotAGroup"
        assert "NoSuchGroup" in doc["reason"]

    def test_byte_identical_reports(self):
        first = go("subcats", "--group", "S3", "--omega", "repr:3")
        second = go("subcats", "--group", "S3", "--omega", "repr:3")
        assert first == second

    def test_table_format_renders_every_key(self):
        code, text = go("group", "--group", "C4", "--format", "table")
        assert code == 0
        for key in ("order", "abelian", "center"):
            assert any(line.startswith(key) for line in text.splitlines())


class TestSharedParser:
    """run() builds its parser once per process; no run leaks into the next."""

    # each pair sets an option, then leaves it out
    RERUNS = [
        (("cohomology", "--group", "C4", "--degree", "2", "--modulus", "2"),
         ("cohomology", "--group", "C4", "--degree", "2")),
        (("obstruction", "--group", "C2", "--modulus", "3"),
         ("obstruction", "--group", "C2")),
        (("subcats", "--group", "S3", "--omega", "repr:3"),
         ("subcats", "--group", "S3")),
        (("center-census", "--group", "C4", "--omega", "repr:1"),
         ("crossed-pointed", "--group", "C4")),
        (("subcats", "--group", "C2xC2", "--budget", "1"),
         ("subcats", "--group", "C2xC2")),
        (("cohomology", "--group", "C3", "--budget", "1"),
         ("cohomology", "--group", "C3")),
        (("group", "--group", "C4", "--format", "table"),
         ("group", "--group", "C4")),
        (("selftest", "--corrupt-omega", "--seed", "3"),
         ("selftest",)),
    ]

    @pytest.mark.parametrize("first,second", RERUNS,
                             ids=[" ".join(a[1:]) for a, _ in RERUNS])
    def test_left_out_options_take_their_defaults(self, first, second):
        cli._parser.cache_clear()
        fresh = go(*second)
        go(*first)
        assert go(*second) == fresh
        cli._parser.cache_clear()
        assert go(*second) == fresh

    def test_parser_is_built_once_on_first_run(self):
        cli._parser.cache_clear()
        assert cli._parser.cache_info().currsize == 0
        go("group", "--group", "C2")
        go("subgroups", "--group", "C3")
        info = cli._parser.cache_info()
        assert (info.currsize, info.misses) == (1, 1)

    def test_usage_errors_and_help_after_the_parser_is_built(self, capsys):
        go("group", "--group", "C2")
        for argv in (["group"], ["nonsense"], ["group", "--group"],
                     ["cohomology", "--group", "C2", "--degree", "x"],
                     ["group", "--group", "C2", "--format", "xml"],
                     ["group", "--group", "C2", "--no-such-flag"], []):
            buf = io.StringIO()
            assert run(argv, out=buf) == 1, argv
            assert buf.getvalue() == ""
            assert "usage:" in capsys.readouterr().err
        for argv in (["--help"], ["cohomology", "--help"]):
            buf = io.StringIO()
            assert run(argv, out=buf) == 0
            assert buf.getvalue() == ""
            assert "usage:" in capsys.readouterr().out
        code, doc = go_json("group", "--group", "C2")
        assert code == 0 and doc["order"] == 2


class TestInspectionVerbs:
    def test_group_report(self):
        code, doc = go_json("group", "--group", "Q8")
        assert code == 0
        assert doc["order"] == 8
        assert doc["center"] == [0, 1]
        assert not doc["abelian"]
        assert sum(len(c) for c in doc["conjugacy_classes"]) == 8

    def test_subgroups_report(self):
        code, doc = go_json("subgroups", "--group", "S3")
        assert code == 0
        assert doc["count"] == 6
        normals = [s["elements"] for s in doc["subgroups"] if s["normal"]]
        assert [0, 3, 4] in normals

    def test_cohomology_report(self):
        code, doc = go_json("cohomology", "--group", "C2", "--degree", "3")
        assert code == 0
        assert doc["invariant_factors"] == [2]
        assert len(doc["representatives"]) == 1

    def test_center_census_report(self):
        code, doc = go_json("center-census", "--group", "C2")
        assert code == 0
        assert doc["total_simples"] == 4
        assert doc["fpdim_square_total"] == 4

    def test_gradings_rep_report(self):
        code, doc = go_json("gradings-rep", "--group", "C4")
        assert code == 0
        assert [g["grading_order"] for g in doc["gradings"]] == [1, 2, 4]
        code, doc = go_json("gradings-rep", "--group", "S3")
        assert doc["count"] == 1


class TestEnumerationVerbs:
    def test_subcats_counts(self):
        code, doc = go_json("subcats", "--group", "C2", "--omega", "repr:1")
        assert code == 0
        assert doc["count"] == 5
        code, doc = go_json("subcats", "--group", "C2xC2")
        assert doc["count"] == 67

    def test_subcat_schema(self):
        _, doc = go_json("subcats", "--group", "C2", "--omega", "repr:1")
        top = doc["subcategories"][-1]
        assert set(top) == {"L", "M", "B", "fpdim"}
        assert all(s["fpdim"] * 2 % 2 == 0 for s in doc["subcategories"])

    def test_budget_rejection(self):
        code, doc = go_json("subcats", "--group", "C4", "--budget", "3")
        assert code == 2
        assert doc["error"] == "BudgetExceeded"
        assert "valid pairings" in doc["reason"]

    @pytest.mark.parametrize("argv", [
        ("cohomology", "--group", "C2", "--modulus", "0"),
        ("cohomology", "--group", "C2", "--modulus", "-3"),
        ("obstruction", "--group", "C2", "--modulus", "-3"),
        ("subcats", "--group", "C2", "--budget", "0"),
        ("cohomology", "--group", "C2", "--budget", "0"),
    ])
    def test_nonpositive_modulus_or_budget_is_malformed(self, argv):
        code, doc = go_json(*argv)
        assert code == 1
        assert doc["error"] == "ValueError"
        assert argv[-2] in doc["reason"] and argv[-1] in doc["reason"]

    @pytest.mark.parametrize("verb", ["cohomology", "obstruction"])
    def test_huge_modulus_is_gated_before_any_table(self, verb):
        code, doc = go_json(verb, "--group", "C2", "--modulus", "1000000")
        assert code == 2
        assert doc["error"] == "BudgetExceeded"
        assert str(10 ** 12) in doc["reason"]
        assert str(cb.cohomology.DEFAULT_BUDGET) in doc["reason"]

    def test_modulus_gate_reads_the_budget(self):
        code, doc = go_json("obstruction", "--group", "C2", "--modulus", "4",
                            "--budget", "15")
        assert code == 2
        assert "16" in doc["reason"] and "15" in doc["reason"]
        code, _ = go_json("obstruction", "--group", "C2", "--modulus", "4",
                          "--budget", "16")
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ("obstruction", "--group", "C2"),
        ("zesting", "--fiber", "C2", "--group", "C2"),
        ("center-census", "--group", "C2"),
        ("subcats", "--group", "C2"),
        ("crossed-pointed", "--group", "C2"),
    ], ids=lambda argv: argv[0])
    def test_cochain_file_modulus_is_gated_before_any_table(
            self, argv, tmp_path, monkeypatch):
        calls = []

        def counting_mu_module(n):
            calls.append(n)
            raise AssertionError(f"mu_module({n}) was called")

        monkeypatch.setattr(cli, "mu_module", counting_mu_module)
        monkeypatch.setattr(cb.serialize, "mu_module", counting_mu_module)
        path = tmp_path / "omega.json"
        path.write_text(json.dumps(
            {"degree": 2, "modulus": 1000000, "entries": {}}))
        code, doc = go_json(*argv, "--omega", str(path))
        assert calls == []
        assert code == 2
        assert doc["error"] == "BudgetExceeded"
        assert str(10 ** 12) in doc["reason"]
        assert str(cb.cohomology.DEFAULT_BUDGET) in doc["reason"]

    @pytest.mark.parametrize("text", ["5", '"modulus"', "[2, 3]"])
    def test_cochain_file_that_is_not_an_object(self, text, tmp_path):
        path = tmp_path / "omega.json"
        path.write_text(text)
        for argv in (("obstruction", "--group", "C2"),
                     ("center-census", "--group", "C2")):
            code, doc = go_json(*argv, "--omega", str(path))
            assert code == 1
            assert doc["error"] == "NotACocycle"

    def test_explicit_modulus_is_used(self):
        code, doc = go_json("cohomology", "--group", "C2", "--degree", "2",
                            "--modulus", "4")
        assert code == 0
        assert doc["modulus"] == 4

    def test_pointed_full_grading_unique(self):
        code, doc = go_json("crossed-pointed", "--group", "S3",
                            "--omega", "trivial", "--grading", "full")
        assert code == 0
        assert doc["count"] == 1
        cert = doc["certificates"][0]
        assert set(cert) == {"ambient", "grading", "witness", "checks"}
        assert all(cert["checks"].values())

    def test_pointed_noncentral_kernel_rejected(self):
        code, doc = go_json("crossed-pointed", "--group", "S3",
                            "--grading", "quotient-by:0,3,4")
        assert code == 2
        assert doc["count"] == 0
        assert doc["reason"] == "kernel-not-central"
        assert doc["kernel"] == [0, 3, 4]

    def test_pointed_quotient_grading(self):
        code, doc = go_json("crossed-pointed", "--group", "D8",
                            "--grading", "quotient-by:0,2")
        assert code == 0
        assert doc["count"] == 4

    def test_rep_full_center(self):
        code, doc = go_json("crossed-rep", "--group", "C4",
                            "--center-subgroup", "full")
        assert code == 0
        assert doc["count"] == 1
        witness = doc["certificates"][0]["witness"]
        assert witness["M"] == [0, 1, 2, 3]

    def test_rep_trivial_center_subgroup(self):
        code, doc = go_json("crossed-rep", "--group", "C4",
                            "--center-subgroup", "trivial")
        assert code == 0
        assert doc["count"] == 4

    def test_rep_explicit_ids(self):
        code, doc = go_json("crossed-rep", "--group", "Q8",
                            "--center-subgroup", "0,1")
        assert code == 0
        assert doc["count"] == 4

    def test_rep_noncentral_rejected(self):
        code, doc = go_json("crossed-rep", "--group", "S3",
                            "--center-subgroup", "0,3,4")
        assert code == 2
        assert doc["error"] == "NotCentral"


class TestObstructionVerbs:
    def test_fibered_examples(self):
        code, doc = go_json("fibered", "--extension", "C4", "--normal", "0,2")
        assert code == 0
        assert doc["extends"] is False
        code, doc = go_json("fibered", "--extension", "C2xC2",
                            "--normal", "0,1")
        assert doc["extends"] is True
        assert doc["torsor_count"] == 2
        code, doc = go_json("fibered", "--extension", "S3",
                            "--normal", "0,3,4")
        assert doc["extends"] is False
        assert "conjugation" in doc["reason"]

    def test_fibered_out_of_range_normal_is_malformed(self):
        code, doc = go_json("fibered", "--extension", "D8", "--normal", "0,99")
        assert code == 1
        assert doc["error"] == "InvalidElement"
        assert "99" in doc["reason"]

    def test_fibered_non_normal_rejected(self):
        code, doc = go_json("fibered", "--extension", "S3", "--normal", "0,1")
        assert code == 2
        assert doc["error"] == "NotNormal"

    def test_zesting_trivial_center_fiber(self):
        code, doc = go_json("zesting", "--fiber", "S3", "--group", "C2")
        assert code == 0
        assert doc["lifts"] is True

    def test_zesting_blocking_class_from_file(self, tmp_path):
        inv = cb.invertibles_of_center(cb.cyclic(2))
        w = Cochain(2, cb.cyclic(2), trivial_module(inv.group),
                    (0, 0, 0, 1), normalized=True)
        path = tmp_path / "omega.json"
        path.write_text(cb.dump_json(cb.cochain_to_json(w)))
        code, doc = go_json("zesting", "--fiber", "C2", "--group", "C2",
                            "--omega", str(path))
        assert code == 0
        assert doc["lifts"] is False

    def test_obstruction_trivial(self):
        code, doc = go_json("obstruction", "--group", "C2",
                            "--omega", "trivial", "--modulus", "2")
        assert code == 0
        assert doc["vanishes"] is True
        assert doc["splitting_count"] == 2

    def test_obstruction_from_file(self, tmp_path):
        C2 = cb.cyclic(2)
        w = Cochain(2, C2, cb.mu_module(2), (0, 0, 0, 1), normalized=True)
        path = tmp_path / "omega.json"
        path.write_text(cb.dump_json(cb.cochain_to_json(w)))
        code, doc = go_json("obstruction", "--group", "C2",
                            "--omega", str(path))
        assert code == 0
        assert doc["vanishes"] is False
        assert doc["splitting_count"] == 0


class TestFileInputs:
    def test_group_and_omega_from_files(self, tmp_path):
        G = cb.builtin_group("C2")
        gpath = tmp_path / "group.json"
        gpath.write_text(cb.dump_json(cb.group_to_json(G)))
        rep = cb.load_h3_fixture("C2").class_representative(1)
        opath = tmp_path / "omega.json"
        opath.write_text(cb.dump_json(cb.cochain_to_json(rep)))
        code, doc = go_json("subcats", "--group", str(gpath),
                            "--omega", str(opath))
        assert code == 0
        _, builtin_doc = go_json("subcats", "--group", "C2",
                                 "--omega", "repr:1")
        assert doc["subcategories"] == builtin_doc["subcategories"]

    def test_missing_file_is_malformed(self):
        code, doc = go_json("subcats", "--group", "C2",
                            "--omega", "/no/such/file.json")
        assert code == 1
        assert doc["error"] == "NotACocycle"


    @pytest.mark.parametrize("text", [
        "5", "null", '{"table": 5}', '{"generators": 5, "degree": 2}',
        '{"builtin": 5}', '{"table": [[0, null], [1, 0]]}',
        '{"table": [[0]], "order": null}', '{"table": [[1e400]]}',
        '{"generators": [[1, 0]], "degree": null}',
        '{"generators": [5], "degree": 2}', '{"builtin": "C2", "name": 5}',
    ], ids=["int", "null", "table-int", "generators-int", "builtin-int",
            "table-null-id", "order-null", "table-infinite-id",
            "degree-null", "generator-int", "name-int"])
    def test_malformed_group_file(self, text, tmp_path):
        path = tmp_path / "group.json"
        path.write_text(text)
        code, doc = go_json("group", "--group", str(path))
        assert code == 1
        assert doc["error"] == "NotAGroup"
        with pytest.raises(cb.NotAGroup):
            cb.build_group(json.loads(text))

    @pytest.mark.parametrize("obj", [
        {"degree": 3, "modulus": 2, "entries": [["1,1,1", 1]]},
        {"degree": 3, "modulus": 2, "entries": "1,1,1"},
        {"degree": None, "modulus": 2, "entries": {}},
        {"degree": 3, "modulus": None, "entries": {}},
        {"degree": 3, "modulus": 2, "entries": {"1,1,1": None}},
        {"degree": 3, "modulus": 2, "entries": {"1,1,1": [1]}},
        {"degree": 3, "modulus": 2, "entries": {"1,1,1": float("inf")}},
        {"degree": 40, "modulus": 2, "entries": {}},
        {"degree": -1, "modulus": 2, "entries": {}},
    ], ids=["entries-list", "entries-str", "degree-null", "modulus-null",
            "value-null", "value-list", "value-infinite", "degree-40",
            "degree-negative"])
    def test_malformed_cochain_file(self, obj, tmp_path):
        path = tmp_path / "omega.json"
        path.write_text(json.dumps(obj))
        for argv in (("center-census", "--group", "C2"),
                     ("subcats", "--group", "C2")):
            code, doc = go_json(*argv, "--omega", str(path))
            assert code == 1
            assert doc["error"] == "NotACocycle"
        # the verbs read the degree first; the reader itself reads the
        # table's cells before it builds one
        error = cb.BudgetExceeded if obj["degree"] == 40 else cb.NotACocycle
        with pytest.raises(error):
            cb.cochain_from_json(cb.cyclic(2), obj)

    @pytest.mark.parametrize("degree, cells", [
        (25, "2^25"), (100000, "2^100000"), (10 ** 9, "2^1000000000")])
    def test_cochain_degree_past_every_table(self, degree, cells):
        # the cell count is compared before it is formatted, and past the
        # limit's bit length it is neither computed nor formatted: 2^100000
        # has more digits than int-to-str allows
        obj = {"degree": degree, "modulus": 2, "entries": {}}
        with pytest.raises(cb.BudgetExceeded,
                           match=re.escape(f"has {cells} cells")):
            cb.cochain_from_json(cb.cyclic(2), obj)


def traced_peak(fn):
    """fn's result and the peak of the memory it traced, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOrderBound:
    """Every group built from outside input is bounded by MAX_ORDER before
    any table is built, and refused with GroupTooLarge (exit 2)."""

    def assert_refused(self, argv):
        (code, doc), peak = traced_peak(lambda: go_json(*argv))
        assert code == 2
        assert doc["error"] == "GroupTooLarge"
        assert str(cb.groups.MAX_ORDER) in doc["reason"]
        assert peak < 2 ** 20, peak

    @pytest.mark.parametrize("name", ["C100000", "C2xC1000", "D4096"])
    def test_builtin_name(self, name):
        self.assert_refused(("group", "--group", name))

    @pytest.mark.parametrize("obj", [
        {"table": [[0]] * 1025},
        {"generators": [], "degree": 3000000},
    ], ids=["table-rows", "generator-degree"])
    def test_group_file(self, obj, tmp_path):
        path = tmp_path / "group.json"
        path.write_text(json.dumps(obj))
        self.assert_refused(("group", "--group", str(path)))


class TestLargeModulus:
    """An admitted modulus near the gate builds one read-only mu_n table."""

    def test_mu_module_peaks_below_three_tables(self):
        # the tuple copy of the table once took more than this on its own
        module, peak = traced_peak(lambda: cb.mu_module(3000))
        assert module.group.order == 3000
        assert peak < 3 * 3000 ** 2 * 8, peak

    def test_obstruction_output_is_unchanged(self):
        code, text = go("obstruction", "--group", "C2", "--modulus", "3000")
        assert code == 0
        assert text == (
            '{\n  "group": "C2",\n  "omega": "trivial",\n'
            '  "vanishes": true,\n  "splitting_count": 2,\n'
            '  "reason": "second obstruction vanishes"\n}\n')
        code, doc = go_json("obstruction", "--group", "C2",
                            "--modulus", "1000000")
        assert (code, doc["error"]) == (2, "BudgetExceeded")


# a nonzero twist on C200: its cocycle check alone would gather |G|^4
# cells through int64 indices, 11.9 GiB
OMEGA_C200 = {"degree": 3, "modulus": 2, "entries": {"1,1,1": 1}}
ZERO_OMEGA = {"degree": 3, "modulus": 2, "entries": {}}
PAST_CELLS = f"cells, past the limit {cb.groups.DEFAULT_ORDER_BOUND ** 4}"
PAST_BAR_BYTES = ("bytes with its transforms, past the limit "
                  f"{cb.cohomology.BAR_SYSTEM_BYTES}")


class TestCappedChildren:
    """Inputs whose cost no gate bounded, so they ended in a traceback:
    each runs in a child that caps its own address space at 1 GiB, and
    must print one JSON document and exit 0, 1 or 2 in time.  A row with an error names
    the document it must print."""

    @pytest.mark.parametrize("argv, error, reason", [
        pytest.param(("subcats", "--group", "C200", "--omega", "OMEGA"),
                     "GroupTooLarge", "capped at order 64, group has 200",
                     id="subcats-C200-omega"),
        pytest.param(("center-census", "--group", "C200", "--omega", "OMEGA"),
                     "BudgetExceeded", "1600000000 " + PAST_CELLS,
                     id="center-census-C200-omega"),
        pytest.param(("crossed-pointed", "--group", "C200",
                      "--omega", "OMEGA"),
                     "BudgetExceeded", "1600000000 " + PAST_CELLS,
                     id="crossed-pointed-C200-omega"),
        pytest.param(("center-census", "--group", "C1000",
                      "--omega", "OMEGA"),
                     "BudgetExceeded", "1000000000 " + PAST_CELLS,
                     id="center-census-C1000-omega"),
        pytest.param(("crossed-pointed", "--group", "C400",
                      "--omega", "OMEGA"),
                     "BudgetExceeded", "64000000 " + PAST_CELLS,
                     id="crossed-pointed-C400-omega"),
        pytest.param(("zesting", "--fiber", "C2", "--group", "C1000"),
                     "BudgetExceeded", "1000000000 " + PAST_CELLS,
                     id="zesting-C1000"),
        pytest.param(("obstruction", "--group", "C1000"),
                     "BudgetExceeded", "1000000000 " + PAST_CELLS,
                     id="obstruction-C1000"),
        pytest.param(("fibered", "--extension", "C1000", "--normal", "0"),
                     "BudgetExceeded", "1000000000 " + PAST_CELLS,
                     id="fibered-C1000"),
        pytest.param(("cohomology", "--group", "C2xC2xC2xC2xC2",
                      "--degree", "3", "--modulus", "2"),
                     "BudgetExceeded", "28428746943 " + PAST_BAR_BYTES,
                     id="cohomology-C2^5-degree-3"),
        pytest.param(("subcats", "--group", "C40"), None, None,
                     id="subcats-C40"),
        pytest.param(("subcats", "--group", "C60"), None, None,
                     id="subcats-C60"),
        pytest.param(("crossed-pointed", "--group", "C160"), None, None,
                     id="crossed-pointed-C160"),
        pytest.param(("crossed-pointed", "--group", "C200"), None, None,
                     id="crossed-pointed-C200"),
        pytest.param(("crossed-pointed", "--group", "C256"), None, None,
                     id="crossed-pointed-C256"),
        pytest.param(("center-census", "--group", "C256",
                      "--omega", "ZERO_OMEGA"), None, None,
                     id="center-census-C256-zero-omega"),
        pytest.param(("crossed-pointed", "--group", "C257"),
                     "BudgetExceeded", "16974593 " + PAST_CELLS,
                     id="crossed-pointed-C257"),
        pytest.param(("crossed-pointed", "--group", "C300"),
                     "BudgetExceeded", "27000000 " + PAST_CELLS,
                     id="crossed-pointed-C300"),
    ])
    def test_ends_in_one_json_document(self, argv, error, reason, tmp_path):
        code, doc = run_capped(argv, tmp_path, 1 << 30)
        if error is not None:
            assert (code, doc["error"]) == (2, error)
            assert reason in doc["reason"]

    @pytest.mark.parametrize("argv", [
        ("crossed-pointed", "--group", "C256"),
        ("center-census", "--group", "C256", "--omega", "ZERO_OMEGA"),
    ], ids=["crossed-pointed", "center-census-zero-omega"])
    def test_twist_of_order_256_fits_in_768_mib(self, argv, tmp_path):
        # the run holds omega's cells and ids, the beta table and one
        # temporary beside it, 128 MiB each, and its address space peaks
        # near 610 MiB: two more such arrays do not fit
        code, doc = run_capped(argv, tmp_path, 3 << 28)
        assert code == 0 and doc["group"] == "C256"


def run_capped(argv, tmp_path, cap):
    """Run the CLI in a child that caps its own address space at cap
    bytes: its exit code and its one JSON document, with stderr empty."""
    files = {"OMEGA": OMEGA_C200, "ZERO_OMEGA": ZERO_OMEGA}
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [str(tmp_path / f"{a}.json") if a in files else a for a in argv]
    src = pathlib.Path(cb.__file__).resolve().parents[1]
    script = ("import resource, sys\n"
              f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
              "from crossbraid.cli import run\n"
              "sys.exit(run(sys.argv[1:]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode in (0, 1, 2), proc.stderr
    doc = json.loads(proc.stdout)
    assert not proc.stderr
    return proc.returncode, doc


def clear_process_caches():
    cli._parser.cache_clear()
    subcats._pairing_factor.cache_clear()
    subcats._SYSTEMS.clear()
    groups._BUILTINS.clear()
    cohomology._MU.clear()
    for cached in (serialize._fixture, serialize._stored,
                   serialize._stored_representative):
        cached.cache_clear()


# one job of each verb that reads a cached group-level structure
MIXED_JOBS = [
    ("group", "--group", "D8"),
    ("group", "--group", " C2xC4 "),
    ("subgroups", "--group", "S3"),
    ("subgroups", "--group", "C2xC4"),
    ("fibered", "--extension", "D8", "--normal", "0,2"),
    ("fibered", "--extension", "C2xC4", "--normal", "0,2"),
    ("zesting", "--fiber", "S3", "--group", "C2"),
    ("zesting", "--fiber", "C4", "--group", "C2xC2"),
    ("zesting", "--fiber", "C2xC2", "--group", "S3"),
    ("obstruction", "--group", "C4"),
    ("obstruction", "--group", "S3", "--modulus", "4"),
    ("center-census", "--group", "D8", "--omega", "repr:3"),
    ("center-census", "--group", "C4"),
    ("subcats", "--group", "C2xC2", "--omega", "repr:5"),
    ("subcats", "--group", "S3"),
    ("selftest",),
]


class TestProcessCaches:
    """The stored fixture, the pairing systems and their factors, the
    builtin groups, the mu_n modules and what is kept on each group
    outlive a run; none may carry anything of one job into the next."""

    # (verb, group, earlier twist j, later twist k)
    TWISTS = [("subcats", "D8", 1, 5), ("subcats", "C2xC2", 3, 6),
              ("subcats", "Q8", 0, 2), ("subcats", "C6", 5, 2),
              ("crossed-pointed", "D8", 2, 6),
              ("crossed-pointed", "C2xC2", 7, 1)]

    @pytest.mark.parametrize("verb,group,j,k", TWISTS,
                             ids=[f"{v} {g} {j}-{k}" for v, g, j, k in TWISTS])
    def test_later_twist_reads_its_own_offsets(self, verb, group, j, k):
        clear_process_caches()
        fresh = go(verb, "--group", group, "--omega", f"repr:{k}")
        clear_process_caches()
        go(verb, "--group", group, "--omega", f"repr:{j}")
        built = subcats._pairing_factor.cache_info().misses
        systems = set(subcats._SYSTEMS)
        assert go(verb, "--group", group, "--omega", f"repr:{k}") == fresh
        # twist k solved on systems and factors built for twist j alone
        assert subcats._pairing_factor.cache_info().misses == built
        assert set(subcats._SYSTEMS) == systems

    def test_repr_builds_only_the_representatives_it_uses(self):
        clear_process_caches()
        go("subcats", "--group", "D8", "--omega", "repr:0")
        assert serialize._stored_representative.cache_info().currsize == 0
        go("subcats", "--group", "D8", "--omega", "repr:1")
        assert serialize._stored_representative.cache_info().currsize == 1
        for name in cb.H3_BATTERY:
            H = cb.load_h3_fixture(name, verify=False)
            for index in range(H.class_count):
                got = serialize.h3_class_representative(name, index)
                assert got.table == H.class_representative(index).table
        assert serialize._fixture.cache_info().misses == 1

    def test_selftest_corrupt_selftest_in_one_process(self):
        clear_process_caches()
        first = go("selftest")
        code, doc = go_json("selftest", "--corrupt-omega")
        last = go("selftest")
        assert first[0] == 0 and json.loads(first[1])["ok"] is True
        assert code == 1
        failed = [row["property"] for row in doc["properties"]
                  if not row["ok"]]
        assert failed == ["beta-cocycle"]
        assert last == first

    def test_caches_stay_bounded(self):
        clear_process_caches()
        for name in ("C2xC2", "D8", "Q8"):
            H = cb.load_h3_fixture(name, verify=False)
            for index in range(H.class_count):
                go("subcats", "--group", name, "--omega", f"repr:{index}")
        info = subcats._pairing_factor.cache_info()
        assert info.maxsize == subcats.PAIRING_FACTORS
        assert 0 < info.currsize <= info.maxsize
        assert 0 < len(subcats._SYSTEMS) <= subcats.PAIRING_FACTORS
        assert serialize._stored.cache_info().currsize == 3

    def test_shared_arrays_are_read_only(self):
        clear_process_caches()
        G = cb.builtin_group("D8")
        M = cb.mu_module(8)
        inv = cb.invertibles_of_center(cb.builtin_group("S3"))
        arrays = [G.table, G.inverse, G.element_orders, M.coords,
                  M.group.table, inv.group.table,
                  trivial_module(inv.group).coords]
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 1
        action = cohomology.CoefficientModule(
            cb.cyclic(3), cb.cyclic(2), [[0, 1, 2], [0, 2, 1]]).action
        with pytest.raises(ValueError):
            action[0, 0] = 1

    def test_repeat_calls_return_the_cached_object(self):
        clear_process_caches()
        G = cb.builtin_group("C2xC4")
        assert cb.builtin_group(" C2xC4 ") is G
        assert cb.mu_module(6) is cb.mu_module(6)
        S3 = cb.builtin_group("S3")
        assert cb.invertibles_of_center(S3) is cb.invertibles_of_center(S3)
        # each call gets its own list of the same subgroups
        first, second = cb.all_subgroups(G), cb.all_subgroups(G)
        assert first is not second
        assert all(a is b for a, b in zip(first, second))
        first.clear()
        assert cb.all_subgroups(G) == second
        # an equal n of another type keeps the name it spells out
        assert cb.mu_module(np.int64(6)).group.name == "C6"
        assert cb.mu_module(True).group.name == "CTrue"
        assert cb.mu_module(1).group.name == "C1"

    def test_large_objects_are_not_retained(self):
        clear_process_caches()
        assert cb.mu_module(3000) is not cb.mu_module(3000)
        assert cb.builtin_group("C65") is not cb.builtin_group("C65")
        assert not cohomology._MU and not groups._BUILTINS
        assert cb.mu_module(64) is cb.mu_module(64)
        assert cb.builtin_group("C8xC8") is cb.builtin_group("C8xC8")
        for n in range(1, 2 * groups.DEFAULT_ORDER_BOUND):
            cb.mu_module(n % groups.DEFAULT_ORDER_BOUND + 1)
            cb.builtin_group(f"C{n % groups.DEFAULT_ORDER_BOUND + 1}xC1")
        assert len(cohomology._MU) == groups.DEFAULT_ORDER_BOUND
        assert len(groups._BUILTINS) == groups.DEFAULT_ORDER_BOUND

    def test_no_cache_is_filled_at_import(self):
        src = pathlib.Path(cb.__file__).resolve().parents[1]
        script = ("import crossbraid.cli\n"
                  "from crossbraid import cohomology, groups, subcats\n"
                  "print(len(groups._BUILTINS), len(cohomology._MU),\n"
                  "      len(subcats._SYSTEMS))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0", "0"]

    def test_no_job_imports_numpy_ma(self):
        # np.unique imports numpy.ma unless it is asked for an index, an
        # inverse or counts: milliseconds and about a megabyte a process
        src = pathlib.Path(cb.__file__).resolve().parents[1]
        script = ("import io, sys\n"
                  "from crossbraid import cli\n"
                  "for argv in (['fibered', '--extension', 'C2', '--normal', '0'],\n"
                  "             ['cohomology', '--group', 'C2xC2', '--degree', '3'],\n"
                  "             ['subgroups', '--group', 'D8'], ['selftest']):\n"
                  "    print(cli.run(argv, out=io.StringIO()))\n"
                  "print('numpy.ma' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0", "0", "0", "False"]

    def test_mixed_verbs_in_any_order_match_each_job_alone(self):
        alone = {}
        for argv in MIXED_JOBS:
            clear_process_caches()
            alone[argv] = go(*argv)
        assert all(code == 0 for code, _ in alone.values())
        for seed in (1, 2):
            jobs = list(MIXED_JOBS)
            random.Random(seed).shuffle(jobs)
            clear_process_caches()
            for argv in jobs:
                assert go(*argv) == alone[argv], (seed, argv)

    def test_sequence_script_under_optimized_mode(self):
        root = pathlib.Path(cb.__file__).resolve().parents[2]
        proc = subprocess.run(
            [sys.executable, "-O", str(root / "scripts" / "selftest_sequence.py")],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestSelftest:
    def test_fresh_build_passes(self):
        code, doc = go_json("selftest")
        assert code == 0
        assert doc["ok"] is True
        assert all(row["ok"] for row in doc["properties"])
        names = [row["property"] for row in doc["properties"]]
        assert "beta-cocycle" in names
        assert "pointed-uniqueness" in names

    def test_corrupted_omega_fails_named_property(self):
        code, doc = go_json("selftest", "--corrupt-omega")
        assert code == 1
        assert doc["ok"] is False
        failed = [row for row in doc["properties"] if not row["ok"]]
        assert [row["property"] for row in failed] == ["beta-cocycle"]
        assert "C4 class 1" in failed[0]["detail"]

    def test_failing_property_survives_optimized_mode(self):
        # python -O strips assert statements; the properties must still fail
        src = pathlib.Path(cb.__file__).resolve().parents[1]
        script = ("import sys, crossbraid.cli as cli\n"
                  "cli.conjugacy_classes = lambda G: []\n"
                  "sys.exit(cli.run(['selftest']))\n")
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1, proc.stderr
        doc = json.loads(proc.stdout)
        failed = [row for row in doc["properties"] if not row["ok"]]
        assert [row["property"] for row in failed] == ["group-axioms"]
        assert failed[0]["detail"] == "C2: classes do not partition"

    def test_rejected_centralizer_fails_its_row_only(self, monkeypatch):
        # the centralizers of subcat-duality go through the checked
        # SubcatData path, which raises ValueError on a rejected pairing
        from crossbraid import subcats
        monkeypatch.setattr(subcats, "verify_bicharacter",
                            lambda cand: subcats.BicharacterReport(False, 1, (0, 0, 0)))
        code, doc = go_json("selftest")
        assert code == 1
        assert doc["ok"] is False
        rows = {row["property"]: row for row in doc["properties"]}
        assert len(rows) == len(cli.SELFTEST_PROPERTIES)
        assert [name for name, row in rows.items() if not row["ok"]] == \
            ["subcat-duality"]
        assert "pairing fails axiom 1" in rows["subcat-duality"]["detail"]

    def test_battery_is_built_once_per_run(self, monkeypatch):
        calls = []
        real = cli._battery_twists
        monkeypatch.setattr(cli, "_battery_twists",
                            lambda cfg: calls.append(cfg) or real(cfg))
        assert go("selftest")[0] == 0
        assert go("selftest", "--corrupt-omega")[0] == 1
        assert [cfg.corrupt_omega for cfg in calls] == [False, True]

    def test_failed_battery_build_fails_each_row_reading_it(self, monkeypatch):
        def unreadable(name):
            raise cb.NotACocycle("fixture unreadable")

        monkeypatch.setattr(cli, "load_h3_fixture", unreadable)
        code, doc = go_json("selftest")
        assert code == 1
        failed = {row["property"]: row["detail"]
                  for row in doc["properties"] if not row["ok"]}
        assert failed == dict.fromkeys(
            ["beta-cocycle", "census-total", "pointed-uniqueness"],
            "fixture unreadable")

    def test_census_row_fails_when_the_census_does(self, monkeypatch):
        # every class given the whole group as centralizer breaks |G|^2
        from crossbraid import twisted_center
        whole = lambda G, a: cb.groups.Subgroup(G, tuple(G.elements))
        monkeypatch.setattr(twisted_center, "centralizer", whole)
        _, doc = go_json("selftest")
        rows = {row["property"]: row for row in doc["properties"]}
        assert not rows["census-total"]["ok"]
        assert "|G|^2 identity" in rows["census-total"]["detail"]

    def test_seed_variation_keeps_verdicts(self):
        _, doc1 = go_json("selftest", "--seed", "1")
        _, doc2 = go_json("selftest", "--seed", "999")
        verdicts1 = [(r["property"], r["ok"]) for r in doc1["properties"]]
        verdicts2 = [(r["property"], r["ok"]) for r in doc2["properties"]]
        assert verdicts1 == verdicts2


def test_library_has_no_assert_statements():
    # python -O removes assert statements, so no check may rely on one
    package = pathlib.Path(cb.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
