"""File formats and the command line interface."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from opetokit import cli, serialize
from opetokit.cli import main
from opetokit.equivalences import (
    from_bicategory,
    from_category,
    morphism_from_lax_functor,
    validate_op_morphism,
)
from opetokit.fixtures import (
    absorbing_constraint_functor,
    idempotent_bicategory,
    identity_lax_functor,
    sign_twisted_endofunctor,
    sign_bicategory,
    small_category_family,
    terminal_bicategory,
)

from test_morphism_checks import _collapse
from test_universality import _without_cell

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "docs" / "fixtures"
TRANSCRIPT = Path(__file__).resolve().parent / "cli_transcript.txt"


def _write(tmp_path, name, doc):
    target = tmp_path / name
    serialize.save_path(str(target), doc)
    return str(target)


# -- format ----------------------------------------------------------------------


def test_every_kind_round_trips(tmp_path, sign, sign_op, z2cat, z2_op):
    X, b = sign_op
    docs = [
        serialize.to_doc(("x", "y")),
        serialize.to_doc(z2cat),
        serialize.to_doc(z2_op),
        serialize.to_doc(sign),
        serialize.to_doc(X, b),
        serialize.to_doc(morphism_from_lax_functor(identity_lax_functor(sign), sign, sign)),
        serialize.to_doc(sign_twisted_endofunctor()),
    ]
    for doc in docs:
        text = serialize.dumps(doc)
        parsed = serialize.loads(text)
        assert serialize.dumps(parsed) == text
        serialize.from_doc(parsed)


def test_op2cat_docs_preserve_structure(sign_op):
    X, b = sign_op
    doc = serialize.loads(serialize.dumps(serialize.to_doc(X, b)))
    X2, b2 = serialize.from_doc(doc)
    assert X2 == X
    assert b2 == b


def test_shipped_fixtures_are_current(sign, sign_op, z2cat):
    # regenerating the shipped fixture files must reproduce them byte for byte
    X, b = sign_op
    expected = {
        "set.json": serialize.to_doc(("x", "y")),
        "category.json": serialize.to_doc(z2cat),
        "op1cat.json": serialize.to_doc(from_category(z2cat)),
        "bicategory.json": serialize.to_doc(sign),
        "op2cat.json": serialize.to_doc(X, b),
        "opmorphism.json": serialize.to_doc(
            morphism_from_lax_functor(identity_lax_functor(sign), sign, sign)
        ),
        "laxfunctor.json": serialize.to_doc(sign_twisted_endofunctor()),
        "bicategory_idempotent.json": serialize.to_doc(idempotent_bicategory()),
    }
    for name, doc in expected.items():
        on_disk = (FIXTURE_DIR / name).read_text(encoding="utf-8")
        assert on_disk == serialize.dumps(doc), name


# -- commands ----------------------------------------------------------------------


def test_validate_clean_and_dirty(tmp_path, sign):
    good = _write(tmp_path, "b.json", serialize.to_doc(sign))
    assert main(["validate", good]) == 0

    doc = serialize.to_doc(sign)
    doc["two_cells"][0]["src"] = "missing"
    bad = _write(tmp_path, "bad.json", doc)
    assert main(["validate", bad]) == 1


def test_validate_names_the_dangling_id(tmp_path, capsys, z2cat):
    doc = serialize.to_doc(z2cat)
    doc["arrows"][1]["tgt"] = "ghost"
    bad = _write(tmp_path, "bad.json", doc)
    assert main(["validate", bad, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert any("s" in v["witness"] for v in payload["violations"])


@pytest.mark.parametrize("kind", ["category", "bicategory"])
def test_validate_and_roundtrip_agree_on_an_entry_outside_the_domain(
        tmp_path, capsys, z2cat, sign, kind):
    # an identity for an unknown object, a left unitor for an unknown 1-cell
    if kind == "category":
        structure = dataclasses.replace(z2cat, identities={**z2cat.identities, "zz": "e"})
    else:
        structure = dataclasses.replace(sign, lunit={**sign.lunit, "zz": "1e"})
    p = _write(tmp_path, "x.json", serialize.to_doc(structure))
    assert main(["validate", p]) == 1
    assert "dangling id ('zz',)" in capsys.readouterr().out
    assert main(["roundtrip", p]) == 1
    assert "dangling id: ('zz',)" in capsys.readouterr().err


def test_validate_kind_mismatch(tmp_path, z2cat):
    p = _write(tmp_path, "c.json", serialize.to_doc(z2cat))
    assert main(["validate", p, "--kind", "bicategory"]) == 2


def test_parse_error_exit_code(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(p)]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def test_universal_cell_verdicts(tmp_path, capsys):
    X, b = from_bicategory(idempotent_bicategory())
    p = _write(tmp_path, "x.json", serialize.to_doc(X, b))
    assert main(["universal", p, "--cell", "@pt|t"]) == 1
    assert "non-universal" in capsys.readouterr().out
    assert main(["universal", p, "--cell", "@pt|1"]) == 0


def test_universal_all_summary(tmp_path, capsys, sign_op):
    X, b = sign_op
    p = _write(tmp_path, "x.json", serialize.to_doc(X, b))
    assert main(["universal", p, "--all"]) == 0
    out = capsys.readouterr().out
    assert "coherent" in out
    assert "non-universal" not in out
    assert main(["universal", p, "--all", "--direct-niche-search"]) == 0


def test_universal_unknown_cell(tmp_path, capsys, sign_op):
    X, b = sign_op
    p = _write(tmp_path, "x.json", serialize.to_doc(X, b))
    assert main(["universal", p, "--cell", "ghost"]) == 1
    assert "DanglingId" in capsys.readouterr().err


def test_convert_both_ways(tmp_path, sign):
    b_path = _write(tmp_path, "b.json", serialize.to_doc(sign))
    opic = str(tmp_path / "x.json")
    assert main(["convert", b_path, "--to", "opic", "--out", opic]) == 0
    assert main(["validate", opic]) == 0
    back = str(tmp_path / "back.json")
    assert main(["convert", opic, "--to", "bicat", "--out", back]) == 0
    assert serialize.load_path(back) == serialize.to_doc(sign)


def test_convert_category(tmp_path, z2cat):
    c_path = _write(tmp_path, "c.json", serialize.to_doc(z2cat))
    out = str(tmp_path / "o.json")
    assert main(["convert", c_path, "--to", "opic", "--out", out]) == 0
    assert serialize.load_path(out) == serialize.to_doc(from_category(z2cat))


def test_convert_incoherent_structure_fails(tmp_path):
    X, b = from_bicategory(idempotent_bicategory())
    cells2 = {k: v for k, v in X.cells2.items() if k != "@pt|1"}
    graft = {k: r for k, r in X.graft.items() if "@pt|1" not in (k[0], k[2], r)}
    import dataclasses

    broken = dataclasses.replace(X, cells2=cells2, graft=graft)
    p = _write(tmp_path, "x.json", serialize.to_doc(broken))
    assert main(["convert", p, "--to", "bicat", "--out", str(tmp_path / "y.json")]) == 1


def test_roundtrip_fixtures(tmp_path, sign, z2cat):
    for name, doc in (
        ("b.json", serialize.to_doc(sign)),
        ("c.json", serialize.to_doc(z2cat)),
        ("i.json", serialize.to_doc(idempotent_bicategory())),
    ):
        p = _write(tmp_path, name, doc)
        assert main(["roundtrip", p]) == 0


def test_roundtrip_corrupted_biasing(tmp_path, capsys, sign_op):
    X, b = sign_op
    doc = serialize.to_doc(X, b)
    doc["biasing"]["iota"]["pt"] = "@pt|ne"  # universal but not the canonical choice
    p = _write(tmp_path, "x.json", doc)
    assert main(["roundtrip", p]) == 1
    assert "difference" in capsys.readouterr().out


def _counting_to_doc(monkeypatch) -> list:
    """Replace ``serialize.to_doc`` with a wrapper that records each call."""
    calls, to_doc = [], serialize.to_doc

    def counting(*args):
        calls.append(args)
        return to_doc(*args)

    monkeypatch.setattr(serialize, "to_doc", counting)
    return calls


@pytest.mark.parametrize("name", (
    "category", "op1cat", "bicategory", "bicategory_idempotent", "op2cat",
))
def test_identical_roundtrip_builds_no_document(monkeypatch, capsys, name):
    # the structures are compared; documents are built only to list differences
    calls = _counting_to_doc(monkeypatch)
    assert main(["roundtrip", str(FIXTURE_DIR / f"{name}.json")]) == 0
    assert capsys.readouterr().out == "roundtrip: identical\n"
    assert calls == []


def test_roundtrip_under_another_binary_choice_lists_its_differences(
        tmp_path, monkeypatch, capsys, sign_op):
    # e;s|ns is universal but not the generated choice for (e, s); its image
    # comes back with the generated biasing
    X, b = sign_op
    p = _write(tmp_path, "x.json",
               serialize.to_doc(X, dataclasses.replace(b, c={**b.c, ("e", "s"): "e;s|ns"})))
    calls = _counting_to_doc(monkeypatch)
    assert main(["roundtrip", p]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "roundtrip: 2 difference(s)"
    assert [line.split(":")[0] for line in lines[1:]] == ["  biasing.c", "  graft"]
    assert "graft: 296 row(s) differ" in lines[2]
    assert len(calls) == 2


def test_classify_cli(tmp_path, capsys, sign, sign_op, terminal_op, idem_op):
    X, b = sign_op
    x_path = _write(tmp_path, "x.json", serialize.to_doc(X, b))
    ident = morphism_from_lax_functor(identity_lax_functor(sign), sign, sign)
    m_path = _write(tmp_path, "m.json", serialize.to_doc(ident))
    assert main(["classify", x_path, x_path, m_path]) == 0
    assert "strict" in capsys.readouterr().out

    weak = morphism_from_lax_functor(sign_twisted_endofunctor(), sign, sign)
    w_path = _write(tmp_path, "w.json", serialize.to_doc(weak))
    assert main(["classify", x_path, x_path, w_path]) == 0
    assert "weak" in capsys.readouterr().out

    XI, bI = idem_op
    i_path = _write(tmp_path, "i.json", serialize.to_doc(XI, bI))
    lax = morphism_from_lax_functor(_collapse(sign), sign, idempotent_bicategory())
    l_path = _write(tmp_path, "l.json", serialize.to_doc(lax))
    assert main(["classify", x_path, i_path, l_path]) == 1
    assert capsys.readouterr().out.startswith("lax")


def test_classify_rejects_an_invalid_morphism(tmp_path, capsys, terminal_op, idem_op):
    # the absorbing constraint functor breaks the unit axioms: its translation
    # does not preserve grafting, so classify prints the morphism's report
    XT, bT = terminal_op
    XI, bI = idem_op
    t_path = _write(tmp_path, "t.json", serialize.to_doc(XT, bT))
    i_path = _write(tmp_path, "i.json", serialize.to_doc(XI, bI))
    F = morphism_from_lax_functor(
        absorbing_constraint_functor(), terminal_bicategory(), idempotent_bicategory()
    )
    l_path = _write(tmp_path, "l.json", serialize.to_doc(F))
    report = validate_op_morphism(F, XT, XI)
    assert not report.ok
    assert main(["classify", t_path, i_path, l_path]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] == f"opmorphism: {len(report.violations)} violation(s)"
    assert lines[1:] == [f"  {v.rule} {v.witness!r} {v.message}" for v in report.violations]


def test_classify_rejects_an_invalid_structure(tmp_path, capsys):
    doc = serialize.load_path(str(FIXTURE_DIR / "op2cat.json"))
    good = _write(tmp_path, "good.json", doc)
    morphism = str(FIXTURE_DIR / "opmorphism.json")
    bad = _write(tmp_path, "bad.json", {**doc, "graft": doc["graft"][1:]})
    first = doc["graft"][0]
    key = (first["outer"], first["slot"], first["inner"])
    expected = f"op2cat: 1 violation(s)\n  totality {key!r} in-bound graft has no table entry\n"
    for argv in ([bad, good, morphism], [good, bad, morphism]):
        assert main(["classify", *argv]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (expected, "")


def test_arity_bound_env_override(tmp_path, monkeypatch, sign):
    b_path = _write(tmp_path, "b.json", serialize.to_doc(sign))
    out = str(tmp_path / "x3.json")
    monkeypatch.setenv("OPETOKIT_ARITY_BOUND", "3")
    assert main(["convert", b_path, "--to", "opic", "--out", out]) == 0
    X, _ = serialize.from_doc(serialize.load_path(out))
    assert X.arity_bound == 3
    assert max(cell.source.arity for cell in X.cells2.values()) == 3


def test_convert_seedless_tiebreak(tmp_path, sign_op):
    # a stored non-canonical (but universal) choice is ignored under the flag
    X, b = sign_op
    doc = serialize.to_doc(X, b)
    doc["biasing"]["iota"]["pt"] = "@pt|ne"
    p = _write(tmp_path, "x.json", doc)
    out = str(tmp_path / "b.json")
    assert main(["convert", p, "--to", "bicat", "--seedless-tiebreak", "--out", out]) == 0
    from opetokit import to_bicategory

    assert serialize.load_path(out) == serialize.to_doc(to_bicategory(X, b))


def test_convert_uses_a_stored_biasing(tmp_path, sign_op):
    # without the flag the stored choice, not the canonical one, is used
    X, b = sign_op
    doc = serialize.to_doc(X, b)
    doc["biasing"]["iota"]["pt"] = "@pt|ne"
    p = _write(tmp_path, "x.json", doc)
    out = str(tmp_path / "b.json")
    assert main(["convert", p, "--to", "bicat", "--out", out]) == 0
    from opetokit import to_bicategory

    stored = serialize.from_doc(doc)[1]
    assert stored != b
    assert serialize.load_path(out) == serialize.to_doc(to_bicategory(X, stored))


def test_convert_outputs_are_deterministic(tmp_path, sign):
    b_path = _write(tmp_path, "b.json", serialize.to_doc(sign))
    out1, out2 = str(tmp_path / "x1.json"), str(tmp_path / "x2.json")
    assert main(["convert", b_path, "--to", "opic", "--out", out1]) == 0
    assert main(["convert", b_path, "--to", "opic", "--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_universal_reports_invalid_structure_first(tmp_path, capsys):
    doc = serialize.load_path(str(FIXTURE_DIR / "op2cat.json"))
    doc["graft"] = [
        r for r in doc["graft"] if (r["outer"], r["slot"], r["inner"]) != ("1e", 0, "1e")
    ]
    p = _write(tmp_path, "dropped.json", doc)
    assert main(["validate", p]) == 1
    report = capsys.readouterr().out
    assert report == (
        "op2cat: 1 violation(s)\n"
        "  totality ('1e', 0, '1e') in-bound graft has no table entry\n"
    )
    for argv in (["--all"], ["--cell", "1e"], ["--all", "--direct-niche-search"]):
        assert main(["universal", p, *argv]) == 1
        assert capsys.readouterr().out == report
    assert main(["validate", p, "--format", "json"]) == 1
    as_json = capsys.readouterr().out
    assert main(["universal", p, "--all", "--format", "json"]) == 1
    assert capsys.readouterr().out == as_json


def test_validate_names_the_cells_past_the_bound(tmp_path, capsys):
    # the op2cat fixture read at bound 3: its arity-4 cells do not exist there
    doc = serialize.load_path(str(FIXTURE_DIR / "op2cat.json"))
    doc["arity_bound"] = 3
    past = [c["id"] for c in doc["two_cells"] if len(c["source"]["edges"]) == 4]
    assert len(past) == 32
    p = _write(tmp_path, "at-3.json", doc)
    assert main(["validate", p]) == 1
    assert capsys.readouterr().out.splitlines() == [f"op2cat: {len(past)} violation(s)"] + [
        f"  dangling id ({cid!r},) 2-cell on a path that does not exist at this bound"
        for cid in past
    ]


def test_universal_all_json_on_an_incoherent_structure(tmp_path, capsys, idem_op):
    # valid grafting tables, but the empty niche at pt has no universal occupant
    p = _write(tmp_path, "no-unit.json", serialize.to_doc(_without_cell(idem_op[0], "@pt|1")))
    assert main(["universal", p, "--all", "--format", "json"]) == 1
    expected = {
        "cells": {
            "1": True,
            "@pt|t": False,
            "i;i;i;i|1": True,
            "i;i;i;i|t": False,
            "i;i;i|1": True,
            "i;i;i|t": False,
            "i;i|1": True,
            "i;i|t": False,
            "t": False,
        },
        "kind": "op2cat",
        "ok": False,
        "universal_one_cells": ["i"],
        "violations": [
            {"message": "", "rule": "niche without universal occupant", "witness": [[0, "pt"]]}
        ],
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_arity_bound_zero_is_honoured(tmp_path, capsys, z2cat):
    c_path = _write(tmp_path, "c.json", serialize.to_doc(z2cat))
    out = str(tmp_path / "o.json")
    assert main(["convert", c_path, "--to", "opic", "--arity-bound", "0", "--out", out]) == 0
    X = serialize.from_doc(serialize.load_path(out))
    assert X.arity_bound == 0
    assert set(X.comp) == {(0, a) for a in X.objects}
    # no binary niches to read composition off: a domain error, not a traceback
    assert main(["roundtrip", c_path, "--arity-bound", "0"]) == 1
    assert "ArityBoundExceeded" in capsys.readouterr().err


def test_unusable_arity_bounds_exit_2(tmp_path, capsys, monkeypatch, z2cat):
    c_path = _write(tmp_path, "c.json", serialize.to_doc(z2cat))
    convert = ["convert", c_path, "--to", "opic", "--out", str(tmp_path / "o.json")]
    assert main([*convert, "--arity-bound", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: the arity bound must not be negative")
    for value, message in (("-3", "must not be negative"), ("abc", "must be an integer")):
        monkeypatch.setenv("OPETOKIT_ARITY_BOUND", value)
        assert main(convert) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert main(["roundtrip", c_path]) == 2
        assert message in capsys.readouterr().err


def test_out_into_missing_directory_exits_2(tmp_path, capsys, z2cat):
    c_path = _write(tmp_path, "c.json", serialize.to_doc(z2cat))
    target = str(tmp_path / "missing" / "o.json")
    assert main(["convert", c_path, "--to", "opic", "--out", target]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}")


def test_misframed_comp_row_is_a_domain_error(tmp_path, capsys):
    # the one-edge row of an arrow A -> B names the identity on its source:
    # its endpoints are wrong, and no collapsed path through it is composable
    C = next(
        C for C in small_category_family()
        if len(C.objects) == 2 and any(s != t for s, t in C.arrows.values())
    )
    doc = serialize.to_doc(from_category(C))
    row = next(r for r in doc["comp"] if len(r["edges"]) == 1
               and C.arrows[r["edges"][0]][0] != C.arrows[r["edges"][0]][1])
    f = row["edges"][0]
    row["result"] = C.identities[C.arrows[f][0]]
    p = _write(tmp_path, "misframed.json", doc)
    endpoints = f"endpoints: ((1, {f!r}), {row['result']!r})"
    assert main(["validate", p]) == 1
    captured = capsys.readouterr()
    assert f"  endpoints ((1, {f!r}), {row['result']!r})" in captured.out.splitlines()
    assert "substitution" not in captured.out
    assert captured.err == ""
    out = str(tmp_path / "c.json")
    for argv in (["roundtrip", p], ["convert", p, "--to", "bicat", "--out", out]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: InvalidInput: {endpoints}\n")


def test_document_that_is_not_utf8_exits_2(tmp_path, capsys):
    p = tmp_path / "utf16.json"
    p.write_bytes(b"\xff\xfe" + '{"kind": "set", "elements": []}'.encode("utf-16-le"))
    for argv in (["validate", str(p)], ["roundtrip", str(p)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {p}: ")
        assert "utf-8" in captured.err


def test_classify_rejects_a_bad_stored_biasing(tmp_path, capsys):
    doc = serialize.load_path(str(FIXTURE_DIR / "op2cat.json"))
    good = _write(tmp_path, "good.json", doc)
    morphism = str(FIXTURE_DIR / "opmorphism.json")
    first = doc["biasing"]["c"][0]
    lacking = {**doc, "biasing": {**doc["biasing"], "c": doc["biasing"]["c"][1:]}}
    unknown = {**doc, "biasing": {**doc["biasing"], "c": [{**first, "cell": "nope"}]
                                  + doc["biasing"]["c"][1:]}}
    witness = f"totality: ({first['f']!r}, {first['g']!r}): no chosen binary occupant"
    for name, bad in (("lacking.json", lacking), ("unknown.json", unknown)):
        bad_path = _write(tmp_path, name, bad)
        for argv in ([bad_path, good, morphism], [good, bad_path, morphism]):
            assert main(["classify", *argv]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: InvalidBiasing: {witness}\n"
    assert main(["classify", good, good, morphism]) == 0
    assert capsys.readouterr().out == "strict\n"


def test_convert_without_out_writes_next_to_the_input(tmp_path, capsys, z2cat):
    c_path = _write(tmp_path, "c.json", serialize.to_doc(z2cat))
    assert main(["convert", c_path, "--to", "opic"]) == 0
    target = str(tmp_path / "c.op1cat.json")
    assert capsys.readouterr().out == target + "\n"
    assert serialize.load_path(target) == serialize.to_doc(from_category(z2cat))


def test_commands_choose_a_biasing_that_is_not_stored(tmp_path, capsys, sign, sign_op):
    # an op2cat file without a biasing behaves as one storing the chosen one
    X, b = sign_op
    bare = _write(tmp_path, "bare.json", serialize.to_doc(X))
    stored = _write(tmp_path, "stored.json", serialize.to_doc(X, b))
    ident = morphism_from_lax_functor(identity_lax_functor(sign), sign, sign)
    m_path = _write(tmp_path, "m.json", serialize.to_doc(ident))
    for argv in (["roundtrip", bare], ["classify", bare, bare, m_path]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        stored_argv = [stored if arg == bare else arg for arg in argv]
        assert main(stored_argv) == 0
        assert capsys.readouterr().out == out
    assert out.startswith("strict")


def test_universal_needs_an_op2cat_file(tmp_path, capsys, z2cat):
    c_path = _write(tmp_path, "c.json", serialize.to_doc(z2cat))
    assert main(["universal", c_path, "--all"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: universality checks need an op2cat file\n")


def test_universal_cell_as_json(tmp_path, capsys):
    X, b = from_bicategory(idempotent_bicategory())
    p = _write(tmp_path, "x.json", serialize.to_doc(X, b))
    for cell, verdict in (("@pt|1", True), ("@pt|t", False)):
        assert main(["universal", p, "--cell", cell, "--format", "json"]) == (0 if verdict else 1)
        assert json.loads(capsys.readouterr().out) == {
            "cell": cell, "kind": "op2cat", "ok": verdict, "universal": verdict, "violations": []
        }


def test_a_stdout_closed_by_its_reader_exits_2(tmp_path, sign_op):
    # every graft row missing: a report of about 75 kB in text and more in
    # JSON, more than a pipe holds, so writing it must meet the closed pipe
    X, b = sign_op
    p = _write(tmp_path, "bare.json", serialize.to_doc(dataclasses.replace(X, graft={}), b))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for fmt in ("text", "json"):
        proc = subprocess.Popen(
            [sys.executable, "-m", "opetokit.cli", "validate", p, "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = b""
        while not first.endswith(b"\n"):  # one line, and not a byte more
            first += os.read(proc.stdout.fileno(), 1)
        proc.stdout.close()
        assert proc.wait(timeout=120) == 2
        assert first == (b"op2cat: 1084 violation(s)\n" if fmt == "text" else b"{\n")
        assert proc.stderr.read() == b""  # no traceback, and no failed flush at exit
        proc.stderr.close()


def test_usage_lines_list_every_flag():
    # the module docstring (printed by --help) and the README's usage block,
    # which comes before its demo lines
    readme = (FIXTURE_DIR.parent.parent / "README.md").read_text()
    subparsers = next(
        action for action in cli.build_parser()._actions if action.choices and action.dest == "command"
    )
    for command, parser in subparsers.choices.items():
        flags = {
            option
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        for text in (cli.__doc__, readme):
            line = re.search(rf"^\s*opetokit {command} .*$", text, re.M).group()
            assert flags == set(re.findall(r"--[a-z-]+", line)), (command, line)


# -- the transcript: exact output of every command form --------------------------


def _transcript_inputs(tmp: Path) -> None:
    """Write the documents that the transcript's ``{tmp}`` paths name."""
    sign, idem, terminal = sign_bicategory(), idempotent_bicategory(), terminal_bicategory()
    doc = serialize.load_path(str(FIXTURE_DIR / "op2cat.json"))
    biasing = {**doc["biasing"], "iota": {**doc["biasing"]["iota"], "pt": "@pt|ne"}}
    identity = serialize.load_path(str(FIXTURE_DIR / "opmorphism.json"))
    idem_op = from_bicategory(idem)
    docs = {
        "dropped.json": {**doc, "graft": doc["graft"][1:]},
        "biasing.json": {**doc, "biasing": biasing},
        "idem.json": serialize.to_doc(*idem_op),
        "no-unit.json": serialize.to_doc(_without_cell(idem_op[0], "@pt|1")),
        "terminal.json": serialize.to_doc(*from_bicategory(terminal)),
        "weak.json": serialize.to_doc(
            morphism_from_lax_functor(sign_twisted_endofunctor(), sign, sign)),
        "lax.json": serialize.to_doc(
            morphism_from_lax_functor(_collapse(sign), sign, idem)),
        "absorbing.json": serialize.to_doc(
            morphism_from_lax_functor(absorbing_constraint_functor(), terminal, idem)),
        "extra.json": {**identity, "two_cells": {**identity["two_cells"], "zz": "1e"}},
    }
    for name, d in docs.items():
        serialize.save_path(str(tmp / name), d)


def _transcript_parts() -> list[str]:
    """The transcript's header, then its blocks: ``$ opetokit ARGS``, the exact
    stdout, then ``[stderr]`` and the exact stderr when there is any, then
    ``[exit N]``."""
    return re.split(r"(?m)^(?=\$ )", TRANSCRIPT.read_text(encoding="utf-8"))


def _run_transcript_line(line: str, tmp: Path) -> str:
    """Run one ``$ opetokit ARGS`` line and render it as a transcript block."""
    places = {"{fixtures}": str(FIXTURE_DIR), "{tmp}": str(tmp)}
    argv = shlex.split(line)[2:]
    for place, path in places.items():
        argv = [arg.replace(place, path) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = f"{line}\n{out.getvalue()}"
    if err.getvalue():
        text += f"[stderr]\n{err.getvalue()}"
    text += f"[exit {code}]\n"
    for place, path in places.items():
        text = text.replace(path, place)
    return text


@pytest.fixture(scope="module")
def transcript_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("transcript")
    _transcript_inputs(tmp)
    return tmp


@pytest.mark.parametrize("block", _transcript_parts()[1:], ids=lambda b: b.split("\n", 1)[0][2:])
def test_transcript(block, transcript_dir):
    assert _run_transcript_line(block.split("\n", 1)[0], transcript_dir) == block


if __name__ == "__main__":  # rewrite the transcript's outputs from the current program
    with tempfile.TemporaryDirectory() as scratch:
        _transcript_inputs(Path(scratch))
        header, *blocks = _transcript_parts()
        blocks = [_run_transcript_line(b.split("\n", 1)[0], Path(scratch)) for b in blocks]
    TRANSCRIPT.write_text(header + "".join(blocks), encoding="utf-8")
