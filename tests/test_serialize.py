"""dump_json against json.dumps(indent=2), and the shared certificate ambient.

dump_json walks containers itself and keeps each subtree's text per call
under (id, depth); every test here compares it with the stdlib encoder,
byte for byte, errors included.
"""

import io
import json

import numpy as np
import pytest

import crossbraid as cb
from crossbraid import cli
from crossbraid.serialize import certificate_to_json, dump_json


def reference(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def assert_same(obj):
    assert dump_json(obj) == reference(obj)


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
