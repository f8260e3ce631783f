"""JSON documents for every structure kind, with a canonical layout.

One document per structure, discriminated by a top-level ``kind`` in
{set, op1cat, op2cat, category, bicategory, opmorphism, laxfunctor}.
Serialisation sorts every list by its natural key and every object by key, so
parsing followed by dumping is byte-stable.

Each kind is one entry of ``_SPEC``: its class and the ``(document field,
attribute, codec)`` triples of its tables.  A codec converts one table shape
in both directions, and its ``load`` is where input from outside the program
is checked: a missing field, a value of the wrong JSON type, or a row that
repeats an id or a table key raises ``ParseError``; ``loads`` already
rejects an object that repeats a key, and shares one ``str`` per distinct
string of a document.  ``from_doc`` keeps the strings it is given, so a
document built by hand is not deduplicated.  ``dumps`` writes
``json.dumps(doc, indent=2, sort_keys=True)`` as one join of pieces: a
top-level list of rows sharing one set of string keys goes a column at a
time, each distinct value encoded once.  A string, a list of strings or an
object of strings and lists of strings is laid out directly at its depth;
any other value is laid out by ``json`` and indented (encoded JSON holds no
raw newline inside a string).
"""

from __future__ import annotations

import json
from collections import Counter
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .bicat import FiniteBicategory, FiniteCategory, LaxFunctor
from .core import FiniteOpOneCat, FiniteOpTwoCat, PastingPath, TwoCell, empty_path
from .equivalences import Biasing, OpMorphism
from .errors import ParseError, UnknownKind

KINDS = ("set", "op1cat", "op2cat", "category", "bicategory", "opmorphism", "laxfunctor")

# JSON type of each row field; every field not named here holds an id string
_FIELD_TYPES = {"slot": int, "source": dict}
_TYPE_NAMES = {str: "a string", int: "an integer", dict: "an object"}


def _columns(rows, fields: tuple[str, ...], where: str) -> list[list]:
    """One column per named field over rows that must be objects holding
    each field, of its JSON type."""
    if type(rows) is not list:
        raise ParseError(f"{where} must be a list of objects")
    columns = []
    for name in fields:
        try:
            column = list(map(itemgetter(name), rows))
        except KeyError:
            raise ParseError(f"{where}: a row lacks field {name!r}") from None
        except TypeError:  # a row that is not an object
            raise ParseError(f"{where} must be a list of objects") from None
        want = _FIELD_TYPES.get(name, str)
        if not set(map(type, column)) <= {want}:
            raise ParseError(f"{where}: field {name!r} must be {_TYPE_NAMES[want]}")
        columns.append(column)
    return columns


def _repeated(keys, where: str):
    """Raise on the first key that occurs more than once."""
    repeated = next(k for k, n in Counter(keys).items() if n > 1)
    raise ParseError(f"{where}: more than one entry for {repeated!r}")


def _read_table(rows, keys: tuple, values: tuple, where: str) -> dict:
    """``{key: value}`` over checked rows; a key or value of one field is that
    field's value, of several fields the tuple of their values."""
    columns = _columns(rows, keys + values, where)
    n = len(keys)
    key = columns[0] if n == 1 else list(zip(*columns[:n]))
    table = dict(zip(key, columns[n] if len(values) == 1 else zip(*columns[n:])))
    if len(table) != len(rows):
        _repeated(key, where)
    return table


class _Codec:
    optional = False  # an absent optional field keeps the class default


class _Ids(_Codec):
    """A list of distinct ids <-> their sorted tuple."""

    def dump(self, ids):
        return sorted(ids)

    def load(self, raw, where):
        if type(raw) is not list or not set(map(type, raw)) <= {str}:
            raise ParseError(f"{where} must be a list of strings")
        if len(set(raw)) != len(raw):
            _repeated(raw, where)
        return tuple(sorted(raw))


class _Cells(_Codec):
    """``{id, src, tgt}`` rows <-> ``{id: (src, tgt)}``."""

    def dump(self, table):
        return [{"id": i, "src": s, "tgt": t} for i, (s, t) in sorted(table.items())]

    def load(self, raw, where):
        return _read_table(raw, ("id",), ("src", "tgt"), where)


class _Map(_Codec):
    """An object of id strings <-> a dict."""

    def dump(self, table):
        return dict(sorted(table.items()))

    def load(self, raw, where):
        if type(raw) is not dict or not set(map(type, raw.values())) <= {str}:
            raise ParseError(f"{where} must be an object of strings")
        return dict(raw)


class _Rows(_Codec):
    """Rows named by their fields <-> a dict keyed by the tuple of all fields
    but the last, which holds the value."""

    def __init__(self, *fields: str):
        self.fields = fields

    def dump(self, table):
        keys = sorted(table)  # distinct pairs or triples: sorted as the items
        rows = zip(keys, list(map(table.__getitem__, keys)))  # faster than a lazy map
        if len(self.fields) == 3:
            f, g, last = self.fields
            return [{f: x, g: y, last: v} for (x, y), v in rows]
        f, g, h, last = self.fields
        return [{f: x, g: y, h: z, last: v} for (x, y, z), v in rows]

    def load(self, raw, where):
        return _read_table(raw, self.fields[:-1], self.fields[-1:], where)


def _path_doc(key: tuple) -> dict:
    if key[0]:
        return {"edges": list(key[1:])}
    return {"anchor": key[1], "edges": []}


def _read_path(doc: dict, where: str) -> PastingPath:
    edges = doc.get("edges", [])
    if type(edges) is not list or not set(map(type, edges)) <= {str}:
        raise ParseError(f"{where}: 'edges' must be a list of strings")
    if edges:
        return PastingPath(tuple(edges))
    if type(doc.get("anchor")) is not str:
        raise ParseError(f"{where}: an empty path needs a string 'anchor'")
    return empty_path(doc["anchor"])


class _Comp(_Codec):
    """Path-keyed ``comp`` rows <-> ``{path key: 1-cell}``."""

    def dump(self, table):
        return [{**_path_doc(key), "result": r} for key, r in sorted(table.items())]

    def load(self, raw, where):
        (results,) = _columns(raw, ("result",), where)
        keys = [_read_path(row, where).key() for row in raw]
        table = dict(zip(keys, results))
        if len(table) != len(keys):
            _repeated(keys, where)
        return table


class _TwoCells(_Codec):
    """``{id, source, target}`` rows <-> ``{id: TwoCell}``."""

    def dump(self, table):
        return [
            {"id": cid, "source": _path_doc(cell.source.key()), "target": cell.target}
            for cid, cell in sorted(table.items())
        ]

    def load(self, raw, where):
        rows = _read_table(raw, ("id",), ("source", "target"), where)
        return {
            cid: TwoCell(cid, _read_path(source, where), target)
            for cid, (source, target) in rows.items()
        }


class _Bound(_Codec):
    """``arity_bound``: a non-negative integer, the class default when absent."""

    optional = True

    def dump(self, bound):
        return bound

    def load(self, raw, where):
        if type(raw) is not int:
            raise ParseError(f"{where} must be an integer")
        if raw < 0:
            raise ParseError(f"{where} must be a non-negative integer")
        return raw


_IDS, _CELLS, _MAP, _BOUND = _Ids(), _Cells(), _Map(), _Bound()

_SPEC = {
    "category": (FiniteCategory, (
        ("objects", "objects", _IDS),
        ("arrows", "arrows", _CELLS),
        ("identities", "identities", _MAP),
        ("compose", "compose", _Rows("g", "f", "result")),
    )),
    "op1cat": (FiniteOpOneCat, (
        ("objects", "objects", _IDS),
        ("one_cells", "cells1", _CELLS),
        ("arity_bound", "arity_bound", _BOUND),
        ("comp", "comp", _Comp()),
    )),
    "op2cat": (FiniteOpTwoCat, (
        ("objects", "objects", _IDS),
        ("one_cells", "cells1", _CELLS),
        ("two_cells", "cells2", _TwoCells()),
        ("identity_two_cells", "ident2", _MAP),
        ("arity_bound", "arity_bound", _BOUND),
        ("graft", "graft", _Rows("outer", "slot", "inner", "result")),
    )),
    "bicategory": (FiniteBicategory, (
        ("objects", "objects", _IDS),
        ("one_cells", "one_cells", _CELLS),
        ("two_cells", "two_cells", _CELLS),
        ("identity_two_cells", "id2", _MAP),
        ("vertical", "vcomp", _Rows("after", "before", "result")),
        ("identity_one_cells", "id1", _MAP),
        ("horizontal_one", "hcomp1", _Rows("g", "f", "result")),
        ("horizontal_two", "hcomp2", _Rows("beta", "alpha", "result")),
        ("associator", "assoc", _Rows("h", "g", "f", "component")),
        ("left_unitor", "lunit", _MAP),
        ("right_unitor", "runit", _MAP),
    )),
    "opmorphism": (OpMorphism, (
        ("objects", "on_objects", _MAP),
        ("one_cells", "on_one_cells", _MAP),
        ("two_cells", "on_two_cells", _MAP),
    )),
    "laxfunctor": (LaxFunctor, (
        ("objects", "on_objects", _MAP),
        ("one_cells", "on_one_cells", _MAP),
        ("two_cells", "on_two_cells", _MAP),
        ("pair_constraints", "phi_pair", _Rows("g", "f", "component")),
        ("object_constraints", "phi_obj", _MAP),
    )),
}
_SET = (("elements", "elements", _IDS),)
# the optional ``biasing`` section of an op2cat document
_BIASING = (
    ("iota", "iota", _MAP),
    ("c", "c", _Rows("f", "g", "cell")),
)


def _dump(obj, fields) -> dict:
    return {name: codec.dump(getattr(obj, attr)) for name, attr, codec in fields}


def _load(doc, where: str, fields) -> dict:
    """Constructor arguments read off ``doc``, every field checked."""
    if type(doc) is not dict:
        raise ParseError(f"{where} must be an object")
    values = {}
    for name, attr, codec in fields:
        if name in doc:
            values[attr] = codec.load(doc[name], f"{where}.{name}")
        elif not codec.optional:
            raise ParseError(f"{where} document lacks field {name!r}")
    return values


def to_doc(obj, biasing: Biasing | None = None) -> dict:
    if isinstance(obj, (set, frozenset, tuple, list)):
        return {"kind": "set", "elements": _IDS.dump(obj)}
    for kind, (cls, fields) in _SPEC.items():
        if isinstance(obj, cls):
            doc = {"kind": kind, **_dump(obj, fields)}
            if kind == "op2cat" and biasing is not None:
                doc["biasing"] = _dump(biasing, _BIASING)
            return doc
    raise UnknownKind(f"cannot serialise {type(obj).__name__}")


def from_doc(doc: dict):
    """Structure (or (structure, biasing) for op2cat documents) from a doc.

    Raises ``ParseError`` on a missing field, a value of the wrong JSON type,
    or a repeated id or table key.  The structure holds the document's own
    strings: one per id from ``loads``, but not from a document built by hand.
    """
    kind = doc.get("kind")
    if kind == "set":
        return _load(doc, kind, _SET)["elements"]
    if kind not in KINDS:
        raise UnknownKind(f"unknown kind {kind!r}")
    cls, fields = _SPEC[kind]
    obj = cls(**_load(doc, kind, fields))
    if kind != "op2cat":
        return obj
    if "biasing" not in doc:
        return obj, None
    return obj, Biasing(**_load(doc["biasing"], "op2cat.biasing", _BIASING))


_COMPACT = json.JSONEncoder(sort_keys=True).encode
_INDENTED = json.JSONEncoder(indent=2, sort_keys=True).encode


def _strings(value, depth: str) -> str | None:
    """A string, or a list of strings as ``json`` indents it after ``depth``
    (a newline and spaces); None for any other value."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is not list or not set(map(type, value)) <= {str}:
        return None
    inner = depth + "  "
    return f"[{inner}{(',' + inner).join(map(encode_basestring_ascii, value))}{depth}]" if value else "[]"


def _laid_out(value, depth: str) -> str:
    """``value`` as ``json`` indents it after ``depth``: a string, a list of
    strings or an object of strings and lists of strings directly, any other
    value through ``_INDENTED``."""
    text = _strings(value, depth)
    if text is None and type(value) is dict and set(map(type, value)) <= {str}:
        keys = sorted(value)
        texts = [_strings(value[k], depth + "  ") for k in keys]
        if None not in texts:
            fields = [f"{encode_basestring_ascii(k)}: {t}" for k, t in zip(keys, texts)]
            text = f"{{{depth}  {(',' + depth + '  ').join(fields)}{depth}}}" if fields else "{}"
    return _INDENTED(value).replace("\n", depth) if text is None else text


def _column(values: list) -> list[str]:
    """Each value as JSON text at a row field's depth, each distinct one encoded once."""
    kinds = set(map(type, values))
    if kinds == {str} or kinds == {int}:
        encode = encode_basestring_ascii if kinds == {str} else int.__repr__
        text = {v: encode(v) for v in set(values)}
        return list(map(text.__getitem__, values))
    keys = list(map(_COMPACT, values))  # not the values: 1 == 1.0 == True
    text = {k: _laid_out(v, "\n      ") for k, v in dict(zip(keys, values)).items()}
    return list(map(text.__getitem__, keys))


def _row_table(rows) -> list[str] | None:
    """The pieces of a top-level list of objects sharing one set of string keys,
    a column at a time between constant separators; None for any other value."""
    if type(rows) is not list or set(map(type, rows)) != {dict}:
        return None
    fields = sorted(rows[0]) if set(map(type, rows[0])) == {str} else []
    if not fields or set(map(len, rows)) != {len(fields)}:
        return None
    names = [f"\n      {encode_basestring_ascii(name)}: " for name in fields]
    table = [None] * (2 * len(fields) * len(rows))
    try:
        for j, head in enumerate(["\n    },\n    {" + names[0]] + ["," + n for n in names[1:]]):
            table[2 * j::2 * len(fields)] = [head] * len(rows)
            table[2 * j + 1::2 * len(fields)] = _column(list(map(itemgetter(fields[j]), rows)))
    except KeyError:  # another key set of the same size
        return None
    table[0] = "[\n    {" + names[0]
    table.append("\n    }\n  ]")
    return table


def dumps(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` and a newline, joined once."""
    pieces = ["{"]
    for key, value in sorted(doc.items()):
        pieces.append(f"\n  {encode_basestring_ascii(key)}: ")
        pieces += _row_table(value) or [_laid_out(value, "\n  ")]
        pieces.append(",")
    pieces[-1] = "\n}\n" if doc else "{}\n"
    return "".join(pieces)


def loads(text: str) -> dict:
    """The document in ``text``, holding one ``str`` per distinct string."""
    share = {}.setdefault  # strings only: 1, 1.0 and true are one dict key

    def shared_object(pairs: list) -> dict:
        """A JSON object, strings shared; a key it repeats raises ``ParseError``."""
        obj = {}
        for key, value in pairs:
            if type(value) is str:
                value = share(value, value)
            elif type(value) is list:
                value = [share(v, v) if type(v) is str else v for v in value]
            obj[share(key, key)] = value
        if len(obj) != len(pairs):
            _repeated([key for key, _ in pairs], "JSON object")
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=shared_object)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), exc.lineno, exc.colno) from None
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("document must be an object with a 'kind' field")
    if doc["kind"] not in KINDS:
        raise UnknownKind(f"unknown kind {doc['kind']!r}")
    return doc


def load_path(filename: str) -> dict:
    try:
        with open(filename, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {filename}: {exc}") from None


def save_path(filename: str, doc: dict) -> None:
    with open(filename, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))
