"""Hypothesis fuzzing of dump_json against json.dumps(indent=2).

Random nested values mix lists, tuples and dicts with every scalar json
writes, dict keys json converts (int, float, bool, None), and the same
object placed at one depth twice and at other depths.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from crossbraid.serialize import dump_json  # noqa: E402


def assert_same(obj):
    assert dump_json(obj) == json.dumps(obj, indent=2) + "\n"


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((-0.0, 0.0, float("nan"), float("inf"), float("-inf"))),
    st.text(max_size=8))
KEYS = st.one_of(st.text(max_size=6), st.integers(-(2**70), 2**70),
                 st.floats(allow_nan=True), st.booleans(), st.none())
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(KEYS, inner, max_size=5)),
    max_leaves=30)


class TestFuzz:
    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(VALUES)
    def test_matches_json_dumps(self, obj):
        assert_same(obj)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(VALUES, VALUES)
    def test_shared_subtrees(self, shared, other):
        # the same object at one depth twice and at two other depths
        assert_same([shared, other, shared, {"k": [shared]}, [[shared]]])
