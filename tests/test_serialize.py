"""The document layer.

The spec-driven serialiser is checked against the hand-written per-kind
serialiser it replaced, kept below verbatim as the oracle.  Malformed
documents must give ``ParseError`` and exit 2 on the command line, and a fuzz
of the command line over mutated documents must never let an exception
escape.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
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
)
from opetokit.equivalences import Biasing, OpMorphism, from_bicategory, from_category
from opetokit.errors import ParseError, UnknownKind
from opetokit.fixtures import (
    arrow_bicategory,
    idempotent_bicategory,
    sign_bicategory,
    small_category_family,
)

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


MALFORMED = {
    "bare category": (lambda: {"kind": "category"}, "category document lacks field 'objects'"),
    "empty source without anchor": (_no_anchor, "op2cat.two_cells: an empty path needs"),
    "repeated arrow id": (_repeated_arrow, "category.arrows: more than one entry for 'e'"),
    "repeated graft key": (_repeated_graft_key, "op2cat.graft: more than one entry for"),
    "string slot": (_string_slot, "op2cat.graft: field 'slot' must be an integer"),
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
