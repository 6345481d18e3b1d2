"""dump_json and write_json against json.dumps(indent=2), the shared
certificate ambient, and the CLI's streamed reports.

dump_json walks containers itself and keeps a SharedDict's text per call
under (id, depth); write_json writes a report's Stream one document at a
time, and the CLI's subcategory and certificate streams write each
document from its pair's text template.  Every test here compares them
with the stdlib encoder, byte for byte, errors included.
"""

import io
import json

import numpy as np
import pytest

import crossbraid as cb
from crossbraid import cli, serialize, subcats
from crossbraid.serialize import (
    H3_BATTERY,
    SharedDict,
    Stream,
    certificate_stream,
    certificate_to_json,
    dump_json,
    load_h3_fixture,
    subcat_stream,
    subcat_to_json,
    write_json,
)


def reference(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def assert_same(obj):
    assert dump_json(obj) == reference(obj)


def assert_same_text(got: str, want: str):
    """got == want, reported at the first difference: a full diff of two
    megabyte texts would take pytest minutes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        pytest.fail(f"texts differ at {at} of {len(got)} and {len(want)}: "
                    f"{got[at - 80:at + 80]!r} != {want[at - 80:at + 80]!r}")


class TestAgainstJsonDumps:
    @pytest.mark.parametrize("obj", [
        0, -7, 10**40, -(2**70), True, False, None, 1.5, -0.0,
        float("nan"), float("inf"), float("-inf"), "", "text",
        [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], [[]], {"b": ()}],
        (1, 2), [1, True, 0, False, None], [1.0, 1, True],
        {"k": (1, (2, [3, {}]))}, [[1, 2], [3, [4, [5, []]]]],
    ])
    def test_values(self, obj):
        assert_same(obj)

    @pytest.mark.parametrize("s", [
        "café üß 中文 \U0001f600",
        "\x00\x01\x1f\x7f \t\n\r\b\f",
        '"quoted" \\ backslash \'single\'',
        "[brackets] {braces}, commas, : colons",
        "   \ud800",
    ])
    def test_strings(self, s):
        assert_same(s)
        assert_same([s, [s]])
        assert_same({s: s, "x": [s, {s: [s]}]})

    def test_keys_json_converts(self):
        nan = float("nan")
        assert_same({1: "a", True: "b", None: "c", 2.5: "d", nan: "e",
                     float("inf"): [], -0.0: {"x": 1}, False: [1]})
        assert_same({10**30: {"nested": {7: [None]}}})

    def test_one_object_at_two_depths(self):
        shared = {"rows": [[1, 2], [3, 4]], "name": "s", "deeper": {"z": [0]}}
        doc = {"top": shared, "list": [shared, {"inner": shared}, [[shared]]],
               "again": shared}
        assert_same(doc)
        assert_same([shared, shared, [shared, shared]])

    def test_repeated_scalar_containers(self):
        row = [1, 2, 3]
        assert_same({"a": row, "b": [row, row], "c": {"d": row}})

    @pytest.mark.parametrize("bad", [
        np.int64(3), [np.int64(3)], {"a": np.int32(1)}, {"a": [1, object()]},
        {1, 2}, b"bytes", [[1], [2, {3}]], {(1, 2): 3}, {"a": {(1,): [1]}},
    ])
    def test_unsupported_types_raise_type_error(self, bad):
        with pytest.raises(TypeError) as want:
            reference(bad)
        with pytest.raises(TypeError) as got:
            dump_json(bad)
        assert str(got.value) == str(want.value)

    def test_cycle_raises_value_error(self):
        loop = [1]
        loop.append({"back": loop})
        with pytest.raises(ValueError, match="Circular reference"):
            reference(loop)
        with pytest.raises(ValueError, match="Circular reference"):
            dump_json(loop)


class TestSharedAmbient:
    def rep_certificates(self):
        G = cb.builtin_group("C2xC4")
        return cb.enumerate_rep(G, cb.Subgroup(G, (0,)))

    def test_certificates_share_one_ambient(self):
        certs = self.rep_certificates()
        docs = [certificate_to_json(c) for c in certs]
        assert len(docs) > 1
        assert all(d["ambient"] is docs[0]["ambient"] for d in docs)
        assert docs[0]["ambient"]["group"]["order"] == 8
        # a later call over the same twist still returns the same object
        assert certificate_to_json(certs[0])["ambient"] is docs[0]["ambient"]

    def test_pointed_certificates_share_one_ambient(self):
        G = cb.builtin_group("C4")
        data = cb.TwistedGroupData(G, cb.h3_class_representative("C4", 1))
        _, pi = cb.quotient(G, cb.Subgroup(G, (0, 2)))
        docs = [certificate_to_json(c) for c in cb.enumerate_pointed(data, pi)]
        assert len(docs) > 1
        assert all(d["ambient"] is docs[0]["ambient"] for d in docs)

    @pytest.mark.parametrize("argv", [
        ["crossed-rep", "--group", "C2xC4", "--center-subgroup", "0"],
        ["crossed-pointed", "--group", "C4", "--omega", "repr:1",
         "--grading", "quotient-by:0,2"],
    ])
    def test_report_bytes_unchanged(self, argv):
        out = io.StringIO()
        assert cli.run(argv, out=out) == 0
        text = out.getvalue()
        doc = json.loads(text)
        assert doc["count"] == len(doc["certificates"]) > 1
        assert text == reference(doc)


def fresh_docs(n):
    """n documents built one at a time, each dropped once written, so
    their containers' ids repeat: every third holds one long-lived shared
    dict, and every other third a shared dict of its own, so the ids of
    shared dicts would repeat too if the writer let them go."""
    shared = SharedDict(rows=[[1, 2], [3, 4]], tag={"depth": [0, {}]})
    for i in range(n):
        doc = {"i": i, "rows": [[i, i + 1], {"k": [i, [i, {}]]}],
               "name": f"doc {i}", "empty": [], "sub": {"x": (i, None)}}
        if i % 3 == 0:
            doc["shared"] = shared
            doc["nested"] = [shared, {"again": shared}]
        elif i % 3 == 1:
            own = SharedDict(i=[i, {"j": [i]}])
            doc["own"] = [own, {"again": own}]
        yield doc


class TestStream:
    """write_json's streamed reports against json.dumps of the list."""

    def write(self, obj):
        pieces = []
        write_json(obj, pieces.append)
        return pieces

    @pytest.mark.parametrize("n", [0, 1, 2, 50, 2000])
    def test_fresh_documents(self, n):
        pieces = self.write({"count": n, "docs": Stream(fresh_docs(n), dict),
                             "after": [1, {"z": 2}]})
        want = json.dumps({"count": n, "docs": list(fresh_docs(n)),
                           "after": [1, {"z": 2}]}, indent=2) + "\n"
        assert_same_text("".join(pieces), want)
        # the text is handed on once its documents pass _CHUNK characters,
        # so every string but the last holds that many and ends a document
        assert (len(pieces) > 1) == (n == 2000)
        for piece in pieces[:-1]:
            assert len(piece) >= serialize._CHUNK
            assert piece.endswith("\n    }")

    def test_no_document_is_split(self):
        # a sink may count a marker per string, as scripts/reach.py does
        pieces = []
        write_json({"subcategories": subcat_stream(
            cb.enumerate_subcats(cb.TwistedGroupData.trivial(
                cb.builtin_group("C2xC2xC2"))))}, pieces.append)
        assert len(pieces) > 2
        doc = json.loads("".join(pieces))
        assert sum(p.count('"fpdim": ') for p in pieces) == \
            len(doc["subcategories"]) == 2825
        for piece in pieces[:-1]:
            assert piece.endswith("\n    }")

    def test_items_pass_through_to_json(self):
        stream = Stream(range(5), lambda i: {"square": [i * i]})
        text = "".join(self.write({"squares": stream}))
        assert text == reference(
            {"squares": [{"square": [i * i]} for i in range(5)]})

    def test_streams_only_at_the_top_level(self):
        assert dump_json({"a": Stream([1], int)}) == reference({"a": [1]})
        with pytest.raises(TypeError, match="Stream"):
            dump_json({"a": {"b": Stream([1], int)}})

    def test_shared_dict_is_a_dict_to_json(self):
        shared = SharedDict(a=[1, {"b": 2}])
        assert_same({"x": shared, "y": [shared, [shared]]})
        assert json.dumps(shared) == json.dumps(dict(shared))

    def test_shared_dict_in_a_cycle(self):
        shared = SharedDict(a=[])
        shared["a"].append(shared)
        with pytest.raises(ValueError, match="Circular reference"):
            dump_json({"top": shared})


def reindent(obj, level: int) -> str:
    """json.dumps(obj, indent=2) as it reads at nesting depth level."""
    return json.dumps(obj, indent=2).replace("\n", "\n" + "  " * level)


class TestTemplates:
    """A streamed subcategory or certificate document is written from
    its pair's text template; each must read as json.dumps of the
    document subcat_to_json or certificate_to_json gives, at any depth."""

    @pytest.mark.parametrize("name, k", [("C2xC2xC2", None), ("D8", 2),
                                         ("Q8", 1), ("C6", 5), ("C4", 0)])
    @pytest.mark.parametrize("level", [2, 3])
    def test_subcats(self, name, k, level):
        G = cb.builtin_group(name)
        data = (cb.TwistedGroupData.trivial(G) if k is None else
                cb.TwistedGroupData(G, cb.h3_class_representative(name, k)))
        for s in cb.enumerate_subcats(data):
            assert serialize._subcat_text(s, level, {}) == \
                reindent(subcat_to_json(s), level)

    def test_all_zero_pairing(self):
        G = cb.builtin_group("S3")
        data = cb.TwistedGroupData.trivial(G)
        whole, one = cb.Subgroup(G, tuple(range(6))), cb.Subgroup(G, (0,))
        s = cb.SubcatData(data, one, whole,
                          cb.OmegaBicharacter(data, one, whole, (0,) * 6))
        assert subcat_to_json(s)["B"] == {}
        for level in (0, 2, 3):
            text = serialize._subcat_text(s, level, {})
            assert text == reindent(subcat_to_json(s), level)
            assert '"B": {}' in text

    def test_equal_ids_over_groups_of_other_orders(self):
        # S(1, 1, 1) has the same L, M and B over every group, and an
        # fpdim of |G|: the template memo must not mix them up
        subs = []
        for name in ("C2", "C4", "C2xC2", "S3", "C4", "C2"):
            data = cb.TwistedGroupData.trivial(cb.builtin_group(name))
            one = cb.Subgroup(data.group, (0,))
            subs.append(cb.SubcatData(
                data, one, one, cb.OmegaBicharacter(data, one, one, (0,))))
        for s in subs + subs[::-1]:
            doc = subcat_to_json(s)
            assert doc["fpdim"] == s.parent.group.order
            assert serialize._subcat_text(s, 2, {}) == reindent(doc, 2)

    @pytest.mark.parametrize("name, central", [
        ("C2xC4", "trivial"), ("D8", "full"), ("C2xC2xC2", "0")])
    def test_rep_certificates(self, name, central):
        G = cb.builtin_group(name)
        H = cb.center(G) if central == "full" else cb.Subgroup(G, (0,))
        certs = cb.enumerate_rep(G, H)
        assert certs
        memo = {}
        for c in certs:
            assert serialize._certificate_text(c, 2, memo) == \
                reindent(certificate_to_json(c), 2)

    @pytest.mark.parametrize("name, k, kernel", [
        ("C4", 1, (0, 2)), ("D8", 2, (0, 2)), ("C2xC2", 3, (0,))])
    def test_pointed_certificates(self, name, k, kernel):
        G = cb.builtin_group(name)
        data = cb.TwistedGroupData(G, cb.h3_class_representative(name, k))
        _, pi = cb.quotient(G, cb.Subgroup(G, kernel))
        certs = cb.enumerate_pointed(data, pi)
        assert certs
        memo = {}
        for c in certs:
            assert serialize._certificate_text(c, 2, memo) == \
                reindent(certificate_to_json(c), 2)

    def test_streams_iterate_as_their_documents(self):
        data = cb.TwistedGroupData.trivial(cb.builtin_group("D8"))
        subs = cb.enumerate_subcats(data)
        assert list(subcat_stream(subs)) == [subcat_to_json(s) for s in subs]
        G = cb.builtin_group("D8")
        certs = cb.enumerate_rep(G, cb.center(G))
        assert list(certificate_stream(certs)) == \
            [certificate_to_json(c) for c in certs]

    def test_memo_stays_within_its_bound(self):
        assert cli.run(["subcats", "--group", "C2xC2xC2"],
                       out=io.StringIO()) == 0
        for memo in (serialize._subcat_template, serialize._pair_keys):
            info = memo.cache_info()
            assert info.maxsize == serialize._PAIRS
            assert 0 < info.currsize <= serialize._PAIRS

    def test_without_the_c_encoder(self, monkeypatch):
        # where CPython has no C encoder, _flat is JSONEncoder.encode
        monkeypatch.setattr(serialize, "c_make_encoder", None)
        serialize._flat.cache_clear()
        try:
            for obj in ([1, True, None, 1.5, "é"], {"a": [float("nan")]},
                        {1: [2, 3], "b": {"c": [[4], {}]}}):
                assert_same(obj)
            with pytest.raises(TypeError):
                dump_json([np.int64(1)])
            G = cb.builtin_group("C2xC4")
            certs = cb.enumerate_rep(G, cb.Subgroup(G, (0,)))
            assert dump_json({"c": certificate_stream(certs)}) == \
                reference({"c": [certificate_to_json(c) for c in certs]})
        finally:
            serialize._flat.cache_clear()


def render_table(doc: dict) -> str:
    """The table format, read off the parsed JSON document."""
    rows = [(k, json.dumps(v, separators=(",", ":"))
             if isinstance(v, (list, dict)) else str(v))
            for k, v in doc.items()]
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)


def materialized_subcats(data):
    """Every S(L, M, B), pair by pair, then sorted by subcat_key."""
    subs = [s for L, M in cb.commuting_normal_pairs(data.group)
            for s in subcats.pair_subcats(data, L, M)]
    subs.sort(key=subcats.subcat_key)
    return subs


def stored_twists():
    for name in H3_BATTERY:
        for k in range(load_h3_fixture(name, verify=False).class_count):
            yield name, k


class TestStreamedReports:
    """The CLI's streamed stdout is json.dumps(indent=2) of the report
    built as a list, and its table format is read off that document."""

    def check(self, argv, report):
        out = io.StringIO()
        assert cli.run(argv, out=out) == 0
        assert_same_text(out.getvalue(), reference(report))
        table = io.StringIO()
        assert cli.run(argv + ["--format", "table"], out=table) == 0
        assert_same_text(table.getvalue(), render_table(report))

    def check_subcats(self, name, omega, data):
        subs = materialized_subcats(data)
        self.check(["subcats", "--group", name, "--omega", omega], {
            "group": name, "omega": omega,
            "working_modulus": subcats.working_modulus(data),
            "count": len(subs),
            "subcategories": [subcat_to_json(s) for s in subs]})

    @pytest.mark.parametrize("name, k", list(stored_twists()))
    def test_subcats_of_every_stored_twist(self, name, k):
        G = cb.builtin_group(name)
        data = cb.TwistedGroupData(G, cb.h3_class_representative(name, k))
        self.check_subcats(name, f"repr:{k}", data)

    @pytest.mark.parametrize("name", ["C2xC2xC2", "C2xC4", "S3", "D8", "Q8"])
    def test_subcats_untwisted(self, name):
        data = cb.TwistedGroupData.trivial(cb.builtin_group(name))
        self.check_subcats(name, "trivial", data)

    @pytest.mark.parametrize("name, central", [
        ("C2xC4", "full"), ("C2xC4", "trivial"), ("D8", "full"),
        ("C2xC2xC2", "0"), ("Q8", "0,1")])
    def test_crossed_rep(self, name, central):
        G = cb.builtin_group(name)
        if central == "full":
            H = cb.center(G)
        else:
            ids = (0,) if central == "trivial" else central.split(",")
            H = cb.Subgroup(G, tuple(map(int, ids)))
        certs = cb.enumerate_rep(G, H)
        self.check(["crossed-rep", "--group", name,
                    "--center-subgroup", central], {
            "group": name, "center_subgroup": list(H.elements),
            "count": len(certs),
            "certificates": [certificate_to_json(c) for c in certs]})

    @pytest.mark.parametrize("name, k, kernel", [
        ("C4", 1, "0,2"), ("C2xC2", 3, "0"), ("D8", 2, "0,2"),
        ("C6", 5, "0,3"), ("Q8", 0, "0,1")])
    def test_crossed_pointed(self, name, k, kernel):
        G = cb.builtin_group(name)
        data = cb.TwistedGroupData(G, cb.h3_class_representative(name, k))
        _, pi = cb.quotient(G, cb.Subgroup(G, tuple(
            map(int, kernel.split(",")))))
        certs = cb.enumerate_pointed(data, pi)
        self.check(["crossed-pointed", "--group", name, "--omega",
                    f"repr:{k}", "--grading", f"quotient-by:{kernel}"], {
            "group": name, "omega": f"repr:{k}",
            "grading_order": pi.target.order, "count": len(certs),
            "certificates": [certificate_to_json(c) for c in certs]})
