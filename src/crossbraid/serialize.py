"""JSON schemas for groups, cochains, and the stored 3-cocycle fixtures.

All writers are deterministic: dict keys come out in a fixed order, entries
are sorted, and identity values are omitted so equal objects serialize to
byte-identical documents.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from importlib import resources
from itertools import compress
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import add, itemgetter
from sys import intern
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .braidings import CrossedBraidingCertificate, GradingSpec
from .cohomology import Cochain, CohomologyGroup, check_cells, \
    class_combination, is_cocycle, mu_module, trivial_module
from .errors import NotACocycle, NotAGroup
from .groups import FiniteGroup, build_group, builtin_group, json_int
from .subcats import SubcatData, fpdim


def group_to_json(G: FiniteGroup) -> dict:
    out: dict = {}
    if G.name:
        out["name"] = G.name
    out["order"] = G.order
    out["table"] = G.table.tolist()
    return out


def group_from_json(obj) -> FiniteGroup:
    return build_group(obj)


def _unkey(text: str, degree: int):
    if degree == 0:
        if text:
            raise NotACocycle(f"degree-0 entry key must be empty, got {text!r}")
        return ()
    parts = text.split(",")
    if len(parts) != degree:
        raise NotACocycle(f"entry key {text!r} does not have {degree} ids")
    return tuple(int(p) for p in parts)


def cochain_to_json(c: Cochain) -> dict:
    """Sparse cochain document; omitted entries are the identity."""
    out: dict = {"degree": c.degree}
    A = c.module.group
    if c.module.is_trivial_action and A.exponent == A.order:
        out["modulus"] = A.order
    else:
        out["module"] = group_to_json(A)
    cells = np.flatnonzero(c._array)
    if c.degree:
        # the ids of every nonzero cell at once, one array per slot
        ids = np.unravel_index(cells, (c.group.order,) * c.degree)
        keys = map(",".join, zip(*(map(str, i.tolist()) for i in ids)))
    else:
        keys = [""] * len(cells)
    out["entries"] = dict(sorted(zip(keys, c._array[cells].tolist())))
    out["normalized"] = c.is_normalized
    return out


def cochain_from_json(G: FiniteGroup, obj) -> Cochain:
    """The cochain a document describes; NotACocycle when a field has the
    wrong type, and BudgetExceeded (check_cells) when its dense table
    would be too large."""
    if not isinstance(obj, Mapping):
        raise NotACocycle("a cochain document must be a JSON object")
    degree = json_int(obj["degree"], "degree", NotACocycle)
    if degree < 0:
        raise NotACocycle(f"cochain degree must be nonnegative, got {degree}")
    if "modulus" in obj:
        module = mu_module(json_int(obj["modulus"], "modulus", NotACocycle))
    elif "module" in obj:
        module = trivial_module(build_group(obj["module"]))
    else:
        raise NotACocycle("cochain document needs a modulus or module")
    entries = obj.get("entries", {})
    if not isinstance(entries, Mapping):
        raise NotACocycle("cochain entries must be a JSON object")
    s = G.order
    check_cells(s, degree,
                f"a degree-{degree} cochain on a group of order {s}")
    table = np.zeros(s ** degree, dtype=np.int64)
    for key, val in entries.items():
        gs = _unkey(key, degree)
        for g in gs:
            G.check_element(g)
        flat = 0
        for g in gs:
            flat = flat * s + g
        v = json_int(val, "entry value", NotACocycle)
        if not 0 <= v < module.group.order:
            raise NotACocycle(f"entry value {v} outside the coefficient range")
        table[flat] = v
    return Cochain(degree, G, module, table,
                   normalized=bool(obj.get("normalized", False)))


# subgroup pairs (and depths) whose key order and text template are kept:
# enough for every pair one process meets over the pairs and twists of
# the small groups (449 templates in one pass of the pairings benchmark),
# so a pair met again, under another twist or verb, reuses its text
_PAIRS = 512


@functools.lru_cache(maxsize=_PAIRS)
def _pair_keys(L: tuple[int, ...], M: tuple[int, ...]
               ) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """The cells of a pairing table on L x M, row-major over the ids of L
    and M, and their "l,m" keys, both in sorted key order: the order of a
    subcategory document's "B".  A key text recurs over many pairs, and
    is held once (sys.intern)."""
    keys = [intern(f"{int(l)},{int(m)}") for l in L for m in M]
    cells = sorted(range(len(keys)), key=keys.__getitem__)
    return tuple(cells), tuple(keys[k] for k in cells)


def subcat_to_json(s: SubcatData) -> dict:
    """Sparse subcategory document; omitted pairing entries are exponent 0."""
    table = s.B.table
    cells, keys = _pair_keys(s.L.elements, s.M.elements)
    return {"L": [int(x) for x in s.L.elements],
            "M": [int(x) for x in s.M.elements],
            "B": {key: table[k] for k, key in zip(cells, keys) if table[k]},
            "fpdim": fpdim(s)}


class _SubcatTemplate(NamedTuple):
    """The text of every subcategory document over one pair (L, M) with
    one fpdim at one depth, all but B's nonzero values."""

    pick: Callable   # a table's values in key order
    keys: tuple[str, ...]   # '"l,m": ' of each cell, in key order
    sep: str   # between two B entries
    head: str   # the document up to B
    open: str   # B up to its first entry
    close: str   # B after its last entry
    tail: str   # the document after B


@functools.lru_cache(maxsize=_PAIRS)
def _subcat_template(L: tuple[int, ...], M: tuple[int, ...], dim: int,
                     level: int) -> _SubcatTemplate:
    """The template of every subcategory document over (L, M) with
    fpdim dim at depth level, built once when a stream reaches the pair."""
    cells, keys = _pair_keys(L, M)
    inner, sep, outer = _breaks(level)
    b_inner, b_sep, b_outer = _breaks(level + 1)
    # L and M are lists of ints at depth level + 1, never empty
    lists = [f"[{b_inner}{b_sep.join(str(int(x)) for x in ids)}{b_outer}]"
             for ids in (L, M)]
    head = f'{{{inner}"L": {lists[0]}{sep}"M": {lists[1]}{sep}"B": '
    tail = f'{sep}"fpdim": {dim}{outer}}}'
    # itemgetter of one cell returns the value, not a 1-tuple
    pick = itemgetter(*cells) if len(cells) > 1 else tuple
    return _SubcatTemplate(pick, tuple(intern(f'"{key}": ') for key in keys),
                           b_sep, head, intern("{" + b_inner),
                           intern(b_outer + "}"), tail)


def _subcat_text(s: SubcatData, level: int, memo: dict) -> str:
    """json.dumps(subcat_to_json(s), indent=2)'s text at depth level, as
    one join over the template of s's pair."""
    t = _subcat_template(s.L.elements, s.M.elements, fpdim(s), level)
    vals = t.pick(s.B.table)
    # B's keys and values where the value is nonzero; str(v) is json's int
    entries = t.sep.join(map(add, compress(t.keys, vals),
                             map(str, filter(None, vals))))
    if entries:
        return "".join((t.head, t.open, entries, t.close, t.tail))
    return "".join((t.head, "{}", t.tail))


def grading_to_json(g: GradingSpec) -> dict:
    if g.kind == "pointed":
        return {
            "kind": "pointed",
            "projection": [int(x) for x in g.projection.images],
            "section": [int(x) for x in g.section],
        }
    return {"kind": "rep", "central": [int(x) for x in g.central.elements]}


def _certificate_fields(cert: CrossedBraidingCertificate) -> dict:
    """certificate_to_json's document with the witness left as its datum."""
    data = cert.witness.parent
    if data._ambient_json is None:
        data._ambient_json = SharedDict(
            group=group_to_json(data.group),
            omega=cochain_to_json(data.omega),
        )
    return {
        "ambient": data._ambient_json,
        "grading": grading_to_json(cert.grading),
        "witness": cert.witness,
        "checks": {
            "centralizes": cert.checks.centralizes,
            "fpdim": cert.checks.fpdim,
            "transverse": cert.checks.transverse,
        },
    }


def certificate_to_json(cert: CrossedBraidingCertificate) -> dict:
    """Certificate document.  Its "ambient" dict (the group table and the
    twist) is shared: every certificate over the same TwistedGroupData gets
    the same SharedDict, built on the first call, so callers must not
    mutate it; the writer encodes it once per call."""
    doc = _certificate_fields(cert)
    doc["witness"] = subcat_to_json(cert.witness)
    return doc


def _certificate_text(cert: CrossedBraidingCertificate, level: int,
                      memo: dict) -> str:
    """json.dumps(certificate_to_json(cert), indent=2)'s text at depth
    level: the ambient through memo, the witness through its pair's
    template one depth deeper, and the rest through _write."""
    inner, sep, outer = _breaks(level)
    out = ["{"]
    brk = inner
    for key, value in _certificate_fields(cert).items():
        out.append(f'{brk}"{key}": ')
        brk = sep
        if key == "witness":
            out.append(_subcat_text(value, level + 1, memo))
        else:
            _write(value, level + 1, out, memo, set())
    out += (outer, "}")
    return "".join(out)


# -- stored H^3 representatives ---------------------------------------------

H3_BATTERY = ("C2", "C3", "C4", "C6", "C2xC2", "S3", "D8", "Q8")


def _fixture_text() -> str:
    return resources.files("crossbraid").joinpath("data/h3_reps.json").read_text()


class _StoredH3(NamedTuple):
    modulus: int
    invariant_factors: tuple[int, ...]
    representatives: tuple[MappingProxyType, ...]


@functools.cache
def _fixture() -> MappingProxyType:
    """The stored document, parsed once per process into read-only data.

    Every JSON object becomes a read-only mapping and the lists become
    tuples, so nothing a caller does can change what the next call reads.
    """
    doc = json.loads(_fixture_text(), object_hook=MappingProxyType)
    return MappingProxyType({
        name: _StoredH3(int(entry["modulus"]),
                        tuple(int(f) for f in entry["invariant_factors"]),
                        tuple(entry["representatives"]))
        for name, entry in doc.items()})


@functools.cache
def _stored(name: str) -> tuple[FiniteGroup, _StoredH3]:
    """A battery group, built once per process, and its stored entry."""
    entry = _fixture().get(name)
    if entry is None:
        raise NotAGroup(f"no stored 3-cocycle data for group {name!r}")
    G = builtin_group(name)
    if entry.modulus != G.order:
        raise NotACocycle("stored modulus does not match the group order")
    return G, entry


@functools.cache
def _stored_representative(name: str, j: int) -> Cochain:
    G, entry = _stored(name)
    return cochain_from_json(G, entry.representatives[j])


def load_h3_fixture(name: str, verify: bool = True) -> CohomologyGroup:
    """Stored H^3(G, mu_|G|) for a battery group, rebuilt as a CohomologyGroup.

    The document is parsed once per process and each representative is
    built once, on first use; with verify, every call checks that each
    representative is a normalized cocycle.
    """
    G, entry = _stored(name)
    reps = tuple(_stored_representative(name, j)
                 for j in range(len(entry.representatives)))
    if verify:
        for rep in reps:
            if not rep.is_normalized or not is_cocycle(rep):
                raise NotACocycle(f"stored representative for {name} is invalid")
    return CohomologyGroup(G, 3, mu_module(G.order), entry.invariant_factors,
                           reps)


def h3_class_representative(name: str, index: int) -> Cochain:
    """The index-th stored class of H^3(G, mu_|G|) for a battery group.

    Builds only the representatives whose digit in the index is nonzero,
    with no verification: the same cochain as
    load_h3_fixture(name, verify=False).class_representative(index).
    """
    G, entry = _stored(name)
    return class_combination(
        G, mu_module(G.order), 3, entry.invariant_factors,
        lambda j: _stored_representative(name, j), index)


class SharedDict(dict):
    """A dict many documents hold by reference, such as the ambient every
    certificate over one twist shares: the writer encodes it once per
    depth per call.  json encodes it as a plain dict."""


@dataclass(frozen=True)
class Stream:
    """A report's list whose documents are made as it is written.

    Iterating it maps to_json over items, and list(stream) gives every
    document.  write_json writes each document before the next is made:
    with text, as text(item, depth, memo), which must equal the text
    json.dumps(to_json(item), indent=2) gives at that depth (memo holds
    the call's SharedDict texts); without it, by walking to_json(item).
    subcat_stream and certificate_stream give the two streams the CLI
    writes, each with its per-pair template (_subcat_template).  Only a
    top-level value of a report may be a Stream, and it is read once.
    Neither items, to_json nor text may raise: every error the input can
    cause must be raised before the report is returned, since the
    report's text has begun when the stream is read.
    """

    items: Iterable
    to_json: Callable[[object], object]
    text: Callable[[object, int, dict], str] | None = None

    def __iter__(self) -> Iterator:
        return map(self.to_json, self.items)


def subcat_stream(subs: Iterable[SubcatData]) -> Stream:
    """The subcategory documents of subs, each written from its pair's
    template."""
    return Stream(subs, subcat_to_json, _subcat_text)


def certificate_stream(certs: Iterable[CrossedBraidingCertificate]
                       ) -> Stream:
    """The certificate documents of certs, each witness written from its
    pair's template."""
    return Stream(certs, certificate_to_json, _certificate_text)


# exact types json writes the same at every depth
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _flat(level: int) -> Callable[[object], str]:
    """JSONEncoder().encode with items separated by a comma, a newline
    and the indent of depth level.

    indent stays None, so a whole container of scalars is one call of
    the C encoder, built here once per depth; the caller adds the
    newlines around its brackets.  It keeps no markers, since a container
    of scalars cannot hold a cycle.  Where CPython has no C encoder, this
    is JSONEncoder.encode, as json itself falls back.  A scalar's text is
    the same at every depth.
    """
    sep = ",\n" + "  " * level
    if c_make_encoder is None:
        return json.JSONEncoder(separators=(sep, ": ")).encode
    encode = c_make_encoder(None, json.JSONEncoder().default,
                            encode_basestring_ascii, None, ": ", sep,
                            False, False, True)
    return lambda obj: "".join(encode(obj, 0))


@functools.cache
def _breaks(level: int) -> tuple[str, str, str]:
    """The first-item break, the item separator and the closing break of
    a container at depth level."""
    inner = "\n" + "  " * (level + 1)
    return inner, "," + inner, "\n" + "  " * level


def _key_text(key) -> str:
    """A dict key as json writes it: a str encoded, any other scalar's
    JSON text encoded as a str."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(_flat(0)(key))
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def _write(obj, level: int, out: list, memo: dict, active: set) -> None:
    """Append to out the text json.dumps(obj, indent=2) gives obj at
    nesting depth level.

    A container of scalars is one C call.  Any other container is walked
    here; a SharedDict is walked once per depth, and memo keeps its text,
    with the dict itself so that its id cannot be reused while the memo
    lives.  active holds the ids of the containers being walked, to
    reject a cycle as json does.
    """
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))):
        # a scalar, or TypeError from JSONEncoder.default
        out.append(_flat(level)(obj))
        return
    if not obj:
        out.append("{}" if is_dict else "[]")
        return
    inner, sep, outer = _breaks(level)
    if _SCALARS.issuperset(map(type, obj.values() if is_dict else obj)):
        text = _flat(level + 1)(obj)
        out += (text[0], inner, text[1:-1], outer, text[-1])
        return
    if id(obj) in active:
        raise ValueError("Circular reference detected")
    if type(obj) is SharedDict:
        key = (id(obj), level)
        if key not in memo:
            active.add(id(obj))
            text = []
            _write(dict(obj), level, text, memo, active)
            active.discard(id(obj))
            memo[key] = obj, "".join(text)
        out.append(memo[key][1])
        return
    active.add(id(obj))
    brk = inner
    if is_dict:
        out.append("{")
        for k, v in obj.items():
            out.append(brk + _key_text(k) + ": ")
            brk = sep
            _write(v, level + 1, out, memo, active)
        out += (outer, "}")
    else:
        out.append("[")
        for v in obj:
            out.append(brk)
            brk = sep
            _write(v, level + 1, out, memo, active)
        out += (outer, "]")
    active.discard(id(obj))


# characters of documents a streamed list gathers before write gets them
_CHUNK = 1 << 16


def write_json(obj, write) -> None:
    """Hand write the text dump_json(obj) returns, in one or more strings.

    A value of a top-level dict may be a Stream: its items are made,
    encoded and handed on one at a time, in strings of about _CHUNK
    characters that each end between two documents, so the items, their
    documents and the text are never all held at once, and no document
    is split between two strings.  Any other obj is handed on in one
    string.  A Stream must not raise once it is iterated: the report's
    text has begun by then, and an error there would end stdout in half
    a document (see Stream).
    """
    out: list[str] = []
    memo: dict = {}
    active: set = set()
    if type(obj) is dict and any(type(v) is Stream for v in obj.values()):
        inner, sep, outer = _breaks(0)
        brk = inner
        out.append("{")
        for k, v in obj.items():
            out.append(brk + _key_text(k) + ": ")
            brk = sep
            if type(v) is Stream:
                _write_stream(v, out, memo, active, write)
            else:
                _write(v, 1, out, memo, active)
        out += (outer, "}")
    else:
        _write(obj, 0, out, memo, active)
    out.append("\n")
    write("".join(out))


def _write_stream(stream: Stream, out: list, memo: dict, active: set,
                  write) -> None:
    """Append a Stream at depth 1 as its list of documents, each as one
    string, handing out to write, and emptying it, once the documents
    in it pass _CHUNK characters."""
    inner, sep, outer = _breaks(1)
    brk = inner
    size = 0
    out.append("[")
    for item in stream.items:
        if stream.text is None:
            pieces: list[str] = []
            _write(stream.to_json(item), 2, pieces, memo, active)
            doc = "".join(pieces)
        else:
            doc = stream.text(item, 2, memo)
        out += (brk, doc)
        brk = sep
        size += len(doc)
        if size >= _CHUNK:
            write("".join(out))
            out.clear()
            size = 0
    # an empty stream leaves "[" and "]" side by side: "[]"
    out.append("]" if brk is inner else outer + "]")


def dump_json(obj) -> str:
    """Canonical dump: json.dumps(obj, indent=2) plus a newline, byte for
    byte, with the same TypeError or ValueError; write_json's text as one
    string.

    CPython up to 3.12 encodes indent in pure Python, so this writer walks
    the containers itself (_write): a container of scalars is one call of
    a C encoder built once per depth (_flat), and a SharedDict, such as
    the ambient every crossed-braiding certificate shares, is encoded
    once per depth per call.  The streamed subcategory and certificate
    documents skip the walk: each is one join over its pair's text
    template (subcat_stream, certificate_stream).  CPython 3.13 encodes
    indent in C, so the walk can give way to json.dumps once
    requires-python reaches 3.13; the templates would still save the
    documents themselves.
    """
    pieces: list[str] = []
    write_json(obj, pieces.append)
    return "".join(pieces)
