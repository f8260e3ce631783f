"""The document layer.

The spec-driven serialiser is checked against the hand-written per-kind
serialiser it replaced, kept below verbatim as the oracle, and ``dumps``
against ``json.dumps(doc, indent=2, sort_keys=True)``.  A parsed document
holds one string per distinct string, so a parsed structure shares one
string per id, and it validates as the structure it was written from.
Malformed documents must give ``ParseError`` and exit 2 on the command line,
and a fuzz of the command line over mutated documents must never let an
exception escape.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import functools
import gc
import io
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opetokit import serialize
from opetokit.bicat import FiniteBicategory, FiniteCategory, LaxFunctor
from opetokit.cli import main
from opetokit.core import (
    FiniteOpOneCat,
    FiniteOpTwoCat,
    PastingPath,
    TwoCell,
    empty_path,
    validate_op1,
    validate_op2,
)
from opetokit.equivalences import (
    Biasing,
    OpMorphism,
    from_bicategory,
    from_category,
    validate_op_morphism,
)
from opetokit.errors import ParseError, UnknownKind
from opetokit.fixtures import (
    arrow_bicategory,
    idempotent_bicategory,
    sign_bicategory,
    small_category_family,
)
from test_op2_oracle import groups  # the Z_n 2-groups of the benchmark

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "docs" / "fixtures"
FIXTURES = sorted(p.name for p in FIXTURE_DIR.glob("*.json"))


def _fixture(name: str) -> dict:
    return json.loads((FIXTURE_DIR / name).read_text(encoding="utf-8"))


# -- the hand-written serialiser, kept as the oracle ------------------------------


def _cells(table: dict[str, tuple[str, str]]) -> list[dict]:
    return [
        {"id": i, "src": s, "tgt": t} for i, (s, t) in sorted(table.items())
    ]


def _read_cells(rows) -> dict[str, tuple[str, str]]:
    return {row["id"]: (row["src"], row["tgt"]) for row in rows}


def _path_doc(p: PastingPath) -> dict:
    if p.arity == 0:
        return {"anchor": p.anchor, "edges": []}
    return {"edges": list(p.edges)}


def _read_path(doc) -> PastingPath:
    edges = tuple(doc.get("edges", ()))
    if edges:
        return PastingPath(edges)
    return empty_path(doc["anchor"])


def oracle_to_doc(obj, biasing: Biasing | None = None) -> dict:
    if isinstance(obj, (set, frozenset, tuple, list)) and not isinstance(obj, PastingPath):
        return {"kind": "set", "elements": sorted(obj)}
    if isinstance(obj, FiniteCategory):
        return {
            "kind": "category",
            "objects": sorted(obj.objects),
            "arrows": _cells(obj.arrows),
            "identities": dict(sorted(obj.identities.items())),
            "compose": [
                {"g": g, "f": f, "result": r}
                for (g, f), r in sorted(obj.compose.items())
            ],
        }
    if isinstance(obj, FiniteOpOneCat):
        comp_rows = []
        for key, r in sorted(obj.comp.items()):
            if key[0] == 0:
                comp_rows.append({"anchor": key[1], "edges": [], "result": r})
            else:
                comp_rows.append({"edges": list(key[1:]), "result": r})
        return {
            "kind": "op1cat",
            "objects": sorted(obj.objects),
            "one_cells": _cells(obj.cells1),
            "arity_bound": obj.arity_bound,
            "comp": comp_rows,
        }
    if isinstance(obj, FiniteOpTwoCat):
        doc = {
            "kind": "op2cat",
            "objects": sorted(obj.objects),
            "one_cells": _cells(obj.cells1),
            "two_cells": [
                {"id": cid, "source": _path_doc(cell.source), "target": cell.target}
                for cid, cell in sorted(obj.cells2.items())
            ],
            "identity_two_cells": dict(sorted(obj.ident2.items())),
            "arity_bound": obj.arity_bound,
            "graft": [
                {"outer": o, "slot": s, "inner": i, "result": r}
                for (o, s, i), r in sorted(obj.graft.items())
            ],
        }
        if biasing is not None:
            doc["biasing"] = {
                "iota": dict(sorted(biasing.iota.items())),
                "c": [
                    {"f": f, "g": g, "cell": cell}
                    for (f, g), cell in sorted(biasing.c.items())
                ],
            }
        return doc
    if isinstance(obj, FiniteBicategory):
        return {
            "kind": "bicategory",
            "objects": sorted(obj.objects),
            "one_cells": _cells(obj.one_cells),
            "two_cells": _cells(obj.two_cells),
            "identity_two_cells": dict(sorted(obj.id2.items())),
            "vertical": [
                {"after": b, "before": a, "result": r}
                for (b, a), r in sorted(obj.vcomp.items())
            ],
            "identity_one_cells": dict(sorted(obj.id1.items())),
            "horizontal_one": [
                {"g": g, "f": f, "result": r}
                for (g, f), r in sorted(obj.hcomp1.items())
            ],
            "horizontal_two": [
                {"beta": b, "alpha": a, "result": r}
                for (b, a), r in sorted(obj.hcomp2.items())
            ],
            "associator": [
                {"h": h, "g": g, "f": f, "component": r}
                for (h, g, f), r in sorted(obj.assoc.items())
            ],
            "left_unitor": dict(sorted(obj.lunit.items())),
            "right_unitor": dict(sorted(obj.runit.items())),
        }
    if isinstance(obj, OpMorphism):
        return {
            "kind": "opmorphism",
            "objects": dict(sorted(obj.on_objects.items())),
            "one_cells": dict(sorted(obj.on_one_cells.items())),
            "two_cells": dict(sorted(obj.on_two_cells.items())),
        }
    if isinstance(obj, LaxFunctor):
        return {
            "kind": "laxfunctor",
            "objects": dict(sorted(obj.on_objects.items())),
            "one_cells": dict(sorted(obj.on_one_cells.items())),
            "two_cells": dict(sorted(obj.on_two_cells.items())),
            "pair_constraints": [
                {"g": g, "f": f, "component": r}
                for (g, f), r in sorted(obj.phi_pair.items())
            ],
            "object_constraints": dict(sorted(obj.phi_obj.items())),
        }
    raise UnknownKind(f"cannot serialise {type(obj).__name__}")


def oracle_from_doc(doc: dict):
    kind = doc.get("kind")
    if kind == "set":
        return tuple(sorted(doc["elements"]))
    if kind == "category":
        return FiniteCategory(
            objects=tuple(sorted(doc["objects"])),
            arrows=_read_cells(doc["arrows"]),
            identities=dict(doc["identities"]),
            compose={(row["g"], row["f"]): row["result"] for row in doc["compose"]},
        )
    if kind == "op1cat":
        comp = {}
        for row in doc["comp"]:
            p = _read_path(row)
            comp[p.key()] = row["result"]
        return FiniteOpOneCat(
            objects=tuple(sorted(doc["objects"])),
            cells1=_read_cells(doc["one_cells"]),
            comp=comp,
            arity_bound=doc.get("arity_bound", 4),
        )
    if kind == "op2cat":
        cells2 = {
            row["id"]: TwoCell(row["id"], _read_path(row["source"]), row["target"])
            for row in doc["two_cells"]
        }
        X = FiniteOpTwoCat(
            objects=tuple(sorted(doc["objects"])),
            cells1=_read_cells(doc["one_cells"]),
            cells2=cells2,
            ident2=dict(doc["identity_two_cells"]),
            graft={
                (row["outer"], row["slot"], row["inner"]): row["result"]
                for row in doc["graft"]
            },
            arity_bound=doc.get("arity_bound", 4),
        )
        if "biasing" in doc:
            b = Biasing(
                iota=dict(doc["biasing"]["iota"]),
                c={(row["f"], row["g"]): row["cell"] for row in doc["biasing"]["c"]},
            )
            return X, b
        return X, None
    if kind == "bicategory":
        return FiniteBicategory(
            objects=tuple(sorted(doc["objects"])),
            one_cells=_read_cells(doc["one_cells"]),
            two_cells=_read_cells(doc["two_cells"]),
            id2=dict(doc["identity_two_cells"]),
            vcomp={(row["after"], row["before"]): row["result"] for row in doc["vertical"]},
            id1=dict(doc["identity_one_cells"]),
            hcomp1={(row["g"], row["f"]): row["result"] for row in doc["horizontal_one"]},
            hcomp2={(row["beta"], row["alpha"]): row["result"] for row in doc["horizontal_two"]},
            assoc={
                (row["h"], row["g"], row["f"]): row["component"]
                for row in doc["associator"]
            },
            lunit=dict(doc["left_unitor"]),
            runit=dict(doc["right_unitor"]),
        )
    if kind == "opmorphism":
        return OpMorphism(
            on_objects=dict(doc["objects"]),
            on_one_cells=dict(doc["one_cells"]),
            on_two_cells=dict(doc["two_cells"]),
        )
    if kind == "laxfunctor":
        return LaxFunctor(
            on_objects=dict(doc["objects"]),
            on_one_cells=dict(doc["one_cells"]),
            on_two_cells=dict(doc["two_cells"]),
            phi_pair={
                (row["g"], row["f"]): row["component"]
                for row in doc["pair_constraints"]
            },
            phi_obj=dict(doc["object_constraints"]),
        )
    raise UnknownKind(f"unknown kind {kind!r}")


# -- the spec against the oracle ------------------------------------------------


def _same_as_oracle(obj, biasing=None) -> None:
    doc = serialize.to_doc(obj, biasing)
    expected = oracle_to_doc(obj, biasing)
    assert doc == expected
    text = serialize.dumps(doc)
    assert text == serialize.dumps(expected)
    parsed = serialize.loads(text)
    assert serialize.from_doc(parsed) == oracle_from_doc(parsed)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_decode_and_dump_as_the_oracle(name):
    text = (FIXTURE_DIR / name).read_text(encoding="utf-8")
    doc = serialize.loads(text)
    obj = serialize.from_doc(doc)
    assert obj == oracle_from_doc(doc)
    args = obj if doc["kind"] == "op2cat" else (obj,)
    assert serialize.to_doc(*args) == oracle_to_doc(*args) == doc
    assert serialize.dumps(serialize.to_doc(*args)) == text


def test_bicategories_and_presentations_match_the_oracle():
    for B in (sign_bicategory(), idempotent_bicategory(), arrow_bicategory()):
        _same_as_oracle(B)
        _same_as_oracle(*from_bicategory(B))
    _same_as_oracle(*from_bicategory(sign_bicategory(), 5))


def test_category_family_matches_the_oracle():
    for C in small_category_family():
        _same_as_oracle(C)
        _same_as_oracle(from_category(C))


def test_optional_fields_keep_their_defaults():
    doc = _fixture("op2cat.json")
    del doc["arity_bound"], doc["biasing"]
    X, biasing = serialize.from_doc(doc)
    assert X.arity_bound == 4 and biasing is None
    # an anchored comp row may leave out its empty edges
    doc = _fixture("op1cat.json")
    for row in doc["comp"]:
        if not row["edges"]:
            del row["edges"]
    assert serialize.from_doc(doc) == serialize.from_doc(_fixture("op1cat.json"))


# -- the writer against the whole-document encoder -------------------------------

# ids that JSON must escape: non-ASCII, a quote, a backslash, a line
# separator, a control character and a tab
ESCAPED = ("\u00e9", 'a"b', "back\\slash", "\u2028", "\u0001", "tab\there")


@functools.cache
def _writer_docs() -> dict[str, dict]:
    docs = {name: _fixture(name) for name in FIXTURES}
    for n in (2, 3):
        B = groups.zn_bicategory(n, FiniteBicategory)
        docs[f"Z{n} bicategory"] = serialize.to_doc(B)
        docs[f"Z{n} op2cat"] = serialize.to_doc(*from_bicategory(B, 4))
    docs["set"] = serialize.to_doc({"b", "a", "c"})
    docs["escaped ids"] = {
        "kind": "category",
        "objects": list(ESCAPED),
        "arrows": [{"id": e, "src": e, "tgt": ESCAPED[0]} for e in ESCAPED],
        "identities": {e: e for e in ESCAPED},
        "compose": [{"g": e, "f": ESCAPED[-1], "result": e} for e in ESCAPED],
    }
    docs["empty tables"] = dict(_fixture("op2cat.json"), graft=[])
    docs["empty compose"] = dict(_fixture("category.json"), compose=[])
    category = _fixture("category.json")
    row = category["compose"][0]
    docs["mixed key sets"] = dict(category, compose=[row, {"g": "e", "f": "e"}, row])
    docs["a later row with one more key"] = dict(category, compose=[row, dict(row, r="e")])
    docs["same width, other keys"] = dict(category, compose=[row, {"g": "e", "f": "e", "r": "e"}])
    docs["int among strings"] = dict(category, compose=[row, dict(row, result=3)])
    for name, value in (("bool", True), ("float", 2.5), ("null", None)):
        docs[f"{name} fields"] = dict(
            category, compose=[dict(r, result=value) for r in category["compose"]]
        )
    docs["percent signs in field names"] = {"kind": "set", "rows": [{"%s": "%d", "a%": 1}]}
    docs["field names that are not strings"] = {"kind": "set", "rows": [{1: "a"}]}
    docs["1, 1.0 and true in one column"] = {
        "kind": "set", "rows": [{"v": v} for v in (1, 1.0, True, 1, True, 1.0)],
    }
    source = {"edges": ["e", "f"]}
    docs["nested values repeated across rows"] = {
        "kind": "set",
        "rows": [{"id": i, "source": dict(source), "n": {"s": source}} for i in "abc"],
    }
    docs["strings and objects in one column"] = {
        "kind": "set", "rows": [{"v": "e"}, {"v": {"e": "e"}}, {"v": "e"}, {"v": ["e"]}],
    }
    docs["empty nested list and object"] = {
        "kind": "set", "rows": [{"v": []}, {"v": {}}, {"v": {"a": [], "b": {}, "c": [[]]}}],
    }
    docs["escaped strings inside nested values"] = {
        "kind": "set",
        "rows": [{"id": e, "source": {"edges": [e, "x"], e: {e: e}}} for e in ESCAPED],
    }
    docs["one-row table"] = {"kind": "set", "rows": [{"id": "a", "slot": 0, "src": None}]}
    return docs


@pytest.mark.parametrize("name", sorted(_writer_docs()))
def test_dumps_writes_what_the_whole_document_encoder_writes(name):
    doc = _writer_docs()[name]
    assert serialize.dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# values equal as dict keys but not as JSON, escaped strings, and every JSON type
CLASHING = st.sampled_from((0, 1, 1.0, True, False, 0.0))
SCALARS = CLASHING | st.sampled_from((None, 2.5, 10**20, "", "1", *ESCAPED))
NAMES = st.sampled_from(("a", "b", "id", "%s", "", *ESCAPED))
VALUES = st.recursive(
    SCALARS | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(NAMES, inner, max_size=3),
    max_leaves=4,
)


@st.composite
def row_tables(draw):
    """Rows sharing one set of string keys, each column drawn from a few values
    so that rows repeat them, or such rows with one defect."""
    fields = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(1, 6))
    columns = [
        draw(st.lists(st.sampled_from(draw(st.lists(CLASHING | VALUES, min_size=1, max_size=3))),
                      min_size=n, max_size=n))
        for _ in fields
    ]
    rows = [dict(zip(fields, values)) for values in zip(*columns)]
    row = draw(st.sampled_from(rows))
    defect = draw(st.sampled_from((None,) * 5 + ("drop", "add", "rename", "int keys", "not a row")))
    if defect == "drop":
        del row[fields[0]]
    elif defect == "add":  # no name in NAMES ends in "x"
        row[fields[0] + "x"] = None
    elif defect == "rename":
        row[fields[0] + "x"] = row.pop(fields[0])
    elif defect == "int keys":
        rows = [dict(enumerate(r.values())) for r in rows]
    elif defect == "not a row":
        rows[rows.index(row)] = draw(VALUES)
    return rows


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=row_tables(), fields=st.dictionaries(NAMES, VALUES, max_size=2))
def test_dumps_writes_what_the_whole_document_encoder_writes_on_row_tables(rows, fields):
    doc = {"kind": "set", **fields, "rows": rows}
    assert serialize.dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- parsed structures ------------------------------------------------------------


def _parsed_op2cat(name: str) -> FiniteOpTwoCat:
    if name == "fixture":
        text = (FIXTURE_DIR / "op2cat.json").read_text(encoding="utf-8")
    else:
        Z3 = from_bicategory(groups.zn_bicategory(3, FiniteBicategory), 4)
        text = serialize.dumps(serialize.to_doc(*Z3))
    return serialize.from_doc(serialize.loads(text))[0]


@pytest.mark.parametrize("name", ("fixture", "Z3"))
def test_parsed_ids_are_one_string_each(name):
    X = _parsed_op2cat(name)
    objects = {o: o for o in X.objects}
    cells1 = {f: f for f in X.cells1}
    cells2 = {c: c for c in X.cells2}
    for f, ends in X.cells1.items():
        assert all(end is objects[end] for end in ends)
    for c, cell in X.cells2.items():
        assert cell.id is c
        assert cell.target is cells1[cell.target]
        assert all(e is cells1[e] for e in cell.source.edges)
    for f, c in X.ident2.items():
        assert f is cells1[f] and c is cells2[c]
    for (outer, _, inner), result in X.graft.items():
        assert outer is cells2[outer] and inner is cells2[inner]
        assert result is cells2[result]


def _text(name: str) -> str:
    """A shipped fixture's text, or a Z3 document as ``dumps`` writes it."""
    if name in FIXTURES:
        return (FIXTURE_DIR / name).read_text(encoding="utf-8")
    return serialize.dumps(_writer_docs()[name])


def _every_string(node):
    """Every string inside a document: object keys, values and list elements."""
    if type(node) is str:
        yield node
    elif type(node) is dict:
        for key, child in node.items():
            yield key
            yield from _every_string(child)
    elif type(node) is list:
        for child in node:
            yield from _every_string(child)


@pytest.mark.parametrize("name", FIXTURES + ["Z3 bicategory", "Z3 op2cat"])
def test_loads_shares_one_string_per_distinct_string(name):
    text = _text(name)
    doc = serialize.loads(text)
    assert doc == json.loads(text)
    first: dict[str, str] = {}
    strings = list(_every_string(doc))
    assert all(s is first.setdefault(s, s) for s in strings)
    # every document but the set repeats a string
    assert len(first) < len(strings) or name == "set.json"


def _traced_bytes(call, arg) -> tuple[int, int]:
    """What ``call(arg)``'s result holds and the peak on the way, as traced by
    ``tracemalloc``."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = call(arg)  # alive while the memory is read
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_loads_retains_at_most_seven_tenths_of_json_loads():
    # a parse that stops sharing strings retains as much as json.loads
    text = _text("Z3 op2cat")
    retained, _ = _traced_bytes(serialize.loads, text)
    ratio = retained / _traced_bytes(json.loads, text)[0]
    assert ratio <= 0.7, ratio


def test_dumps_peaks_at_most_two_and_a_quarter_times_its_text():
    # a writer that encodes every row anew, or copies the table text, peaks higher
    doc = _writer_docs()["Z3 op2cat"]
    _, peak = _traced_bytes(serialize.dumps, doc)
    ratio = peak / len(serialize.dumps(doc))
    assert ratio <= 2.25, ratio


def _corrupted_fixture(seed: int) -> FiniteOpTwoCat:
    """The op2cat fixture's structure, generated in memory, with one graft row
    dropped (even seeds) or its result swapped for another occupant of the
    same niche (odd seeds)."""
    X, _ = from_bicategory(sign_bicategory())
    assert serialize.to_doc(X) == {
        k: v for k, v in _fixture("op2cat.json").items() if k != "biasing"
    }
    rng = random.Random(seed)
    table = dict(X.graft)

    def others(key):
        niche = X.occupants[X.cells2[table[key]].source.key()]
        return [c for c in niche if c != table[key]]

    if seed % 2:
        key = rng.choice([key for key in table if others(key)])
        table[key] = rng.choice(others(key))
    else:
        del table[rng.choice(list(table))]
    # every table in document order, since reports follow table order
    return FiniteOpTwoCat(
        X.objects, *(dict(sorted(t.items())) for t in (X.cells1, X.cells2, X.ident2, table)),
        X.arity_bound,
    )


@pytest.mark.parametrize("seed", range(8))
def test_parsed_structures_report_as_in_memory(seed):
    X = _corrupted_fixture(seed)
    parsed = serialize.from_doc(serialize.loads(serialize.dumps(serialize.to_doc(X))))[0]
    assert parsed == X
    report = validate_op2(X)
    assert not report.ok
    assert validate_op2(parsed) == report


# -- malformed documents --------------------------------------------------------


def _no_anchor() -> dict:
    doc = _fixture("op2cat.json")
    row = next(r for r in doc["two_cells"] if not r["source"]["edges"])
    del row["source"]["anchor"]
    return doc


def _repeated_arrow() -> dict:
    doc = _fixture("category.json")
    doc["arrows"].append(dict(doc["arrows"][0], tgt="elsewhere"))
    return doc


def _repeated_graft_key() -> dict:
    doc = _fixture("op2cat.json")
    doc["graft"].append(dict(doc["graft"][0], result=doc["graft"][1]["result"]))
    return doc


def _string_slot() -> dict:
    doc = _fixture("op2cat.json")
    doc["graft"][3]["slot"] = str(doc["graft"][3]["slot"])
    return doc


def _true_slot_after_a_one() -> dict:
    # true == 1 as a dict key, so a string table that shared it would merge them
    doc = _fixture("op2cat.json")
    first = next(i for i, row in enumerate(doc["graft"]) if row["slot"] == 1)
    doc["graft"][first + 1]["slot"] = True
    return doc


def _int_id_after_a_string_one() -> dict:
    doc = _fixture("category.json")
    doc["arrows"].append(dict(doc["arrows"][0], id="1"))
    doc["arrows"].append(dict(doc["arrows"][0], id=1))
    return doc


MALFORMED = {
    "bare category": (lambda: {"kind": "category"}, "category document lacks field 'objects'"),
    "empty source without anchor": (_no_anchor, "op2cat.two_cells: an empty path needs"),
    "repeated arrow id": (_repeated_arrow, "category.arrows: more than one entry for 'e'"),
    "repeated graft key": (_repeated_graft_key, "op2cat.graft: more than one entry for"),
    "string slot": (_string_slot, "op2cat.graft: field 'slot' must be an integer"),
    "negative op2cat bound": (lambda: dict(_fixture("op2cat.json"), arity_bound=-3),
                              "op2cat.arity_bound must be a non-negative integer"),
    "negative op1cat bound": (lambda: dict(_fixture("op1cat.json"), arity_bound=-1),
                              "op1cat.arity_bound must be a non-negative integer"),
    "true slot after a 1": (_true_slot_after_a_one,
                            "op2cat.graft: field 'slot' must be an integer"),
    "int id after a string 1": (_int_id_after_a_string_one,
                                "category.arrows: field 'id' must be a string"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_documents_exit_2(tmp_path, capsys, case):
    make, message = MALFORMED[case]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(make()), encoding="utf-8")
    assert main(["validate", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


CATEGORY_DEFECTS = {
    "field": (lambda d: d.pop("arrows"), "category document lacks field 'arrows'"),
    "row field": (lambda d: d["compose"][0].pop("result"),
                  "category.compose: a row lacks field 'result'"),
    "id list": (lambda d: d.__setitem__("objects", "o"),
                "category.objects must be a list of strings"),
    "repeated id": (lambda d: d["objects"].append(d["objects"][0]),
                    "category.objects: more than one entry for 'o'"),
    "row": (lambda d: d["arrows"].__setitem__(0, None),
            "category.arrows must be a list of objects"),
    "row id": (lambda d: d["arrows"][0].__setitem__("src", 3),
               "category.arrows: field 'src' must be a string"),
    "map value": (lambda d: d["identities"].__setitem__("o", None),
                  "category.identities must be an object of strings"),
}


@pytest.mark.parametrize("defect", sorted(CATEGORY_DEFECTS))
def test_decoder_names_the_kind_and_the_field(defect):
    mutate, message = CATEGORY_DEFECTS[defect]
    doc = _fixture("category.json")
    mutate(doc)
    with pytest.raises(ParseError, match="^" + message):
        serialize.from_doc(doc)


def test_decoder_checks_the_biasing_and_the_bound():
    doc = _fixture("op2cat.json")
    doc["arity_bound"] = "4"
    with pytest.raises(ParseError, match="op2cat.arity_bound must be an integer"):
        serialize.from_doc(doc)
    doc = _fixture("op2cat.json")
    doc["biasing"]["c"].append(doc["biasing"]["c"][0])
    with pytest.raises(ParseError, match=r"op2cat.biasing.c: more than one entry"):
        serialize.from_doc(doc)
    doc["biasing"] = []
    with pytest.raises(ParseError, match="op2cat.biasing must be an object"):
        serialize.from_doc(doc)


# -- fuzz: mutated documents through the command line ----------------------------

# one stand-in per JSON type, and an id that no fixture uses; a replacement
# may also be an id already used in the same document
REPLACEMENTS = ("zz", None, 0, 2.5, True, [], {})


def _containers(node, path=()):
    """Paths to every object and list inside a document, the root included."""
    if isinstance(node, (dict, list)):
        yield path
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _containers(child, path + (key,))


def _strings(node):
    """Every string inside a document."""
    if isinstance(node, str):
        yield node
    elif isinstance(node, (dict, list)):
        for child in node.values() if isinstance(node, dict) else node:
            yield from _strings(child)


def _two_object_op1cat() -> dict:
    # the shipped op1cat has one object, so no replaced row can break a frame
    C = next(
        C for C in small_category_family()
        if len(C.objects) == 2 and any(s != t for s, t in C.arrows.values())
    )
    return serialize.to_doc(from_category(C))


DOCS = {name: _fixture(name) for name in FIXTURES}
DOCS["two-object op1cat"] = _two_object_op1cat()
CONTAINERS = {name: list(_containers(doc)) for name, doc in DOCS.items()}
USED = {name: tuple(sorted(set(_strings(doc)) - {doc["kind"]})) for name, doc in DOCS.items()}


@st.composite
def mutated_documents(draw, names=tuple(sorted(DOCS))):
    """A document with one entry dropped, duplicated or replaced.

    The documents are the fixtures and an op1cat over two objects.  An entry
    is a field of an object (a top-level field or a field of a row) or an
    element of a list (a row or an id).  A replacement is a fresh id, an id
    used elsewhere in the document, a value of another JSON type, or null.
    """
    name = draw(st.sampled_from(names))
    doc = copy.deepcopy(DOCS[name])
    path = draw(st.sampled_from(CONTAINERS[name]))
    node = doc
    for key in path:
        node = node[key]
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    if not keys:
        return doc
    key = draw(st.sampled_from(keys))
    ops = ["drop", "replace"] + (["duplicate"] if isinstance(node, list) else [])
    op = draw(st.sampled_from(ops))
    if op == "drop":
        del node[key]
    elif op == "duplicate":
        node.insert(key, copy.deepcopy(node[key]))
    else:
        node[key] = draw(st.sampled_from(REPLACEMENTS + USED[name]))
    return doc


def _run(argv: list[str]) -> None:
    """Run one command: no exception escapes, and exit 2 names the error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(doc=mutated_documents())
def test_validate_never_lets_an_exception_escape(tmp_path_factory, doc):
    p = tmp_path_factory.mktemp("fuzz") / "doc.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    _run(["validate", str(p)])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=mutated_documents(names=("two-object op1cat",)))
def test_op1cat_commands_never_let_an_exception_escape(tmp_path_factory, doc):
    # a replaced ``result`` can name a 1-cell with the wrong endpoints
    d = tmp_path_factory.mktemp("fuzz")
    p = str(d / "doc.json")
    (d / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["validate", p], ["roundtrip", p],
                 ["convert", p, "--to", "bicat", "--out", str(d / "out.json")]):
        _run(argv)


def _classify_verdict(argv: list[str]) -> str | None:
    """Run ``classify``; its verdict, or None when it gave none."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classify", *argv])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
    verdict = out.getvalue().split(" ")[0].strip()
    return verdict if verdict in ("strict", "weak", "lax") else None


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=mutated_documents(names=("op2cat.json", "opmorphism.json")))
def test_classify_gives_verdicts_only_on_valid_input(tmp_path_factory, doc):
    # the mutated document stands in for the source, the target or the morphism
    p = tmp_path_factory.mktemp("fuzz") / "doc.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    op2, morphism = str(FIXTURE_DIR / "op2cat.json"), str(FIXTURE_DIR / "opmorphism.json")
    for argv in ([str(p), op2, morphism], [op2, str(p), morphism], [op2, op2, str(p)]):
        if _classify_verdict(argv) is None:
            continue
        (X, _), (Y, _) = (serialize.from_doc(serialize.load_path(a)) for a in argv[:2])
        F = serialize.from_doc(serialize.load_path(argv[2]))
        assert validate_op2(X).ok and validate_op2(Y).ok
        assert validate_op_morphism(F, X, Y).ok


def test_accepted_structures_survive_their_round_trip():
    # a structure either validator accepts is one its document can carry;
    # a negative bound is not, so neither validator accepts it
    sign_op2, sign_biasing = from_bicategory(sign_bicategory())
    negative = [
        (FiniteOpOneCat(("o",), {"e": ("o", "o")}, {(0, "o"): "e"}, -1), None),
        (dataclasses.replace(sign_op2, arity_bound=-1), sign_biasing),
    ]
    structures = [
        (serialize.from_doc(_fixture("op1cat.json")), None),
        serialize.from_doc(_fixture("op2cat.json")),
        (sign_op2, sign_biasing),
        *((from_category(C, bound), None)
          for C in small_category_family()[::67] for bound in range(6)),
    ]
    for X, biasing in negative + structures:
        op1 = isinstance(X, FiniteOpOneCat)
        if not (validate_op1(X) if op1 else validate_op2(X)).ok:
            assert X.arity_bound < 0
            continue
        doc = serialize.to_doc(X) if op1 else serialize.to_doc(X, biasing)
        back = serialize.from_doc(serialize.loads(serialize.dumps(doc)))
        assert back == (X if op1 else (X, biasing))
        assert X.arity_bound >= 0


def test_repeated_json_key_exits_2(tmp_path, capsys):
    text = json.dumps(_fixture("category.json")).replace(
        '"identities": {"o": "e"}', '"identities": {"o": "s", "o": "e"}'
    )
    assert '"o": "s", "o": "e"' in text
    with pytest.raises(ParseError, match="^JSON object: more than one entry for 'o'$"):
        serialize.loads(text)
    p = tmp_path / "repeated.json"
    p.write_text(text, encoding="utf-8")
    assert main(["validate", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: JSON object: more than one entry for 'o'\n"
