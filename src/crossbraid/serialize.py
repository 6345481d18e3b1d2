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
from json.encoder import encode_basestring_ascii
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


def _key(gs) -> str:
    return ",".join(str(g) for g in gs)


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
    entries = {}
    s = c.group.order
    for i in np.flatnonzero(c._array).tolist():
        gs = [i // s ** j % s for j in range(c.degree - 1, -1, -1)]
        entries[_key(gs)] = c.table[i]
    out["entries"] = dict(sorted(entries.items()))
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


def subcat_to_json(s: SubcatData) -> dict:
    """Sparse subcategory document; omitted pairing entries are exponent 0."""
    L = [int(x) for x in s.L.elements]
    M = [int(x) for x in s.M.elements]
    cols = len(M)
    # one pass over the table of ints; only its nonzero cells get a key
    entries = sorted([(f"{L[k // cols]},{M[k % cols]}", v)
                      for k, v in enumerate(s.B.table) if v])
    return {"L": L, "M": M, "B": dict(entries), "fpdim": fpdim(s)}


def grading_to_json(g: GradingSpec) -> dict:
    if g.kind == "pointed":
        return {
            "kind": "pointed",
            "projection": [int(x) for x in g.projection.images],
            "section": [int(x) for x in g.section],
        }
    return {"kind": "rep", "central": [int(x) for x in g.central.elements]}


def certificate_to_json(cert: CrossedBraidingCertificate) -> dict:
    """Certificate document.  Its "ambient" dict (the group table and the
    twist) is shared: every certificate over the same TwistedGroupData gets
    the same SharedDict, built on the first call, so callers must not
    mutate it; the writer encodes it once per call."""
    data = cert.witness.parent
    if data._ambient_json is None:
        data._ambient_json = SharedDict(
            group=group_to_json(data.group),
            omega=cochain_to_json(data.omega),
        )
    return {
        "ambient": data._ambient_json,
        "grading": grading_to_json(cert.grading),
        "witness": subcat_to_json(cert.witness),
        "checks": {
            "centralizes": cert.checks.centralizes,
            "fpdim": cert.checks.fpdim,
            "transverse": cert.checks.transverse,
        },
    }


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

    Iterating it maps to_json over items; write_json writes each document
    before the next is made, and list(stream) gives them all.  Only a
    top-level value of a report may be a Stream, and it is read once.
    Neither items nor to_json may raise: every error the input can cause
    must be raised before the report is returned, since the report's text
    has begun when the stream is read.
    """

    items: Iterable
    to_json: Callable[[object], object]

    def __iter__(self) -> Iterator:
        return map(self.to_json, self.items)


# exact types json writes the same at every depth
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _flat(level: int):
    """JSONEncoder.encode with items separated by a comma, a newline and
    the indent of depth level.

    indent stays None, so CPython encodes a whole container of scalars in
    C; the caller adds the newlines around its brackets.  A scalar's text
    is the same at every depth.
    """
    return json.JSONEncoder(separators=(",\n" + "  " * level, ": ")).encode


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


# text pieces a streamed list gathers before write gets them as one string
_CHUNK = 4096


def write_json(obj, write) -> None:
    """Hand write the text dump_json(obj) returns, in one or more strings.

    A value of a top-level dict may be a Stream: its items are made,
    encoded and handed on one at a time, every _CHUNK text pieces, so the
    items, their documents and the text are never all held at once.  Any
    other obj is handed on in one string.  A Stream must not raise once
    it is iterated: the report's text has begun by then, and an error
    there would end stdout in half a document (see Stream).
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
    """Append a Stream at depth 1 as its list of documents, handing out
    to write, and emptying it, every _CHUNK pieces."""
    inner, sep, outer = _breaks(1)
    brk = inner
    out.append("[")
    for doc in stream:
        out.append(brk)
        brk = sep
        _write(doc, 2, out, memo, active)
        if len(out) >= _CHUNK:
            write("".join(out))
            out.clear()
    # an empty stream leaves "[" and "]" side by side: "[]"
    out.append("]" if brk is inner else outer + "]")


def dump_json(obj) -> str:
    """Canonical dump: json.dumps(obj, indent=2) plus a newline, byte for
    byte, with the same TypeError or ValueError; write_json's text as one
    string.

    CPython up to 3.12 encodes indent in pure Python, so this writer walks
    the containers itself (_write): a container of scalars goes to the C
    encoder in one call, and a SharedDict, such as the ambient every
    crossed-braiding certificate shares, is encoded once per depth per
    call.  CPython 3.13 encodes indent in C, so the walk can give way to
    json.dumps once requires-python reaches 3.13.
    """
    pieces: list[str] = []
    write_json(obj, pieces.append)
    return "".join(pieces)
