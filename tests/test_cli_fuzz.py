"""Fuzzing run() over the CLI's argv grammar with valid and malformed values.

Every run must end with exit code 0, 1 or 2 and no escaping exception.  A
usage error leaves stdout empty and exits 1; every other run writes one JSON
document (or, when it succeeds under --format table, one aligned table).
All examples share one process and so one cached parser: each argv is also
parsed by a freshly built parser, which must give the same namespace.

A second fuzzer writes random JSON values, shaped now and then like group
or cochain documents, into a file passed as --group or --omega.
"""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from crossbraid import cli  # noqa: E402

GROUPS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C2xC2", "C2xC4",
          "C2xC2xC2", "S3", "D8", "Q8")
BAD_GROUPS = ("X9", "", "C0", "D3", "no/such/file.json")


def number(valid):
    return st.one_of(st.sampled_from(valid), st.sampled_from(("x", "", "1.5")))


ids = st.lists(st.integers(-2, 10), max_size=4).map(
    lambda xs: ",".join(map(str, xs)))
OPTIONS = {
    "--group": st.sampled_from(GROUPS + BAD_GROUPS),
    "--fiber": st.sampled_from(GROUPS + BAD_GROUPS),
    "--extension": st.sampled_from(GROUPS + BAD_GROUPS),
    "--omega": st.one_of(
        st.sampled_from(("trivial", "repr:x", "repr:", "no/such/file.json")),
        st.integers(-1, 9).map(lambda k: f"repr:{k}")),
    "--grading": st.one_of(st.sampled_from(("full", "nonsense")),
                           ids.map(lambda t: f"quotient-by:{t}")),
    "--center-subgroup": st.one_of(st.sampled_from(("full", "trivial")), ids),
    "--normal": ids,
    "--degree": number(tuple(str(d) for d in range(-1, 5))),
    "--modulus": number(tuple(str(m) for m in range(-2, 13))),
    "--budget": number(("0", "1", "10", "1000", "10000000")),
    "--seed": number(("0", "17", "-5")),
    "--format": st.sampled_from(("json", "table", "xml")),
}
COMMON = ("--format", "--budget", "--seed")
VERB_OPTIONS = {
    "group": ("--group",),
    "subgroups": ("--group",),
    "gradings-rep": ("--group",),
    "cohomology": ("--group", "--degree", "--modulus"),
    "center-census": ("--group", "--omega"),
    "subcats": ("--group", "--omega"),
    "crossed-pointed": ("--group", "--omega", "--grading"),
    "crossed-rep": ("--group", "--center-subgroup"),
    "fibered": ("--extension", "--normal"),
    "zesting": ("--fiber", "--group", "--omega"),
    "obstruction": ("--group", "--omega", "--modulus"),
}


@st.composite
def argvs(draw):
    """A verb with a random subset of its options, now and then one that
    belongs to another verb, and now and then no verb at all."""
    verb = draw(st.sampled_from(sorted(VERB_OPTIONS) + ["selftest", "bogus"]))
    argv = [] if draw(st.integers(0, 19)) == 0 else [verb]
    flags = VERB_OPTIONS.get(verb, ()) + COMMON
    chosen = draw(st.lists(st.sampled_from(flags), unique=True))
    if draw(st.integers(0, 9)) == 0:
        chosen.append(draw(st.sampled_from(sorted(OPTIONS))))
    for flag in chosen:
        argv += [flag, draw(OPTIONS[flag])]
    if verb == "selftest" and draw(st.booleans()):
        argv.append("--corrupt-omega")
    return argv


def parse(parser, argv):
    """The namespace as a dict, or the exit code of a usage error."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return vars(parser.parse_args(argv))
    except SystemExit as e:
        return e.code


def is_table(text):
    lines = text.splitlines()
    return bool(lines) and all("  " in line for line in lines)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(argv=argvs())
def test_every_argv_ends_in_a_document_and_an_exit_code(argv):
    parsed = parse(cli._parser(), argv)
    assert parsed == parse(cli._parser.__wrapped__(), argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(argv, out=out)
    text = out.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if text == "":
        assert code == 1 and "usage:" in err.getvalue()
        return
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        assert parsed["format"] == "table" and code in (0, 2), text
        assert is_table(text), text
        return
    assert isinstance(doc, dict)
    if code != 0:
        assert "error" in doc or "reason" in doc or "properties" in doc


# keys of the group and cochain schemas, so random objects reach their checks
SCHEMA_KEYS = ("table", "generators", "degree", "builtin", "order", "name",
               "modulus", "module", "entries", "normalized")
# strings may hold digits: numeric strings reach int() fields such as a
# degree or a modulus, and every group from a file is bounded in order
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(("C2", "S3", "1,1,1", "0,1", "(0 1)", "e")),
    st.text(alphabet="abxy,() 0123456789", max_size=4))
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.sampled_from(SCHEMA_KEYS),
                                  st.text(alphabet="abxy", max_size=3)),
                        inner, max_size=4)),
    max_leaves=12)
documents = st.one_of(
    json_values,
    st.fixed_dictionaries({}, optional={k: json_values for k in SCHEMA_KEYS}))
FILE_VERBS = {
    "group": ("--group",),
    "subgroups": ("--group",),
    "center-census": ("--group", "--omega"),
    "subcats": ("--group", "--omega"),
    "crossed-pointed": ("--group", "--omega"),
    "zesting": ("--group", "--omega"),
    "obstruction": ("--group", "--omega"),
}


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(verb=st.sampled_from(sorted(FILE_VERBS)), data=st.data())
def test_every_input_file_ends_in_a_document_and_an_exit_code(
        doc_path, verb, data):
    flag = data.draw(st.sampled_from(FILE_VERBS[verb]))
    doc_path.write_text(json.dumps(data.draw(documents)))
    argv = [verb, flag, str(doc_path)]
    if flag == "--omega":
        argv += ["--group", data.draw(st.sampled_from(("C1", "C2", "S3")))]
    if verb == "zesting":
        argv += ["--fiber", "C2"]
    out = io.StringIO()
    code = cli.run(argv, out=out)
    assert code in (0, 1, 2)
    doc = json.loads(out.getvalue())
    assert isinstance(doc, dict)
    if code != 0:
        assert "error" in doc or "reason" in doc
