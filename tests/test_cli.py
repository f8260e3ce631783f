"""File formats and the command line interface."""

from __future__ import annotations

import json
from pathlib import Path

from opetokit import serialize
from opetokit.cli import main
from opetokit.equivalences import (
    from_bicategory,
    from_category,
    morphism_from_lax_functor,
)
from opetokit.fixtures import (
    absorbing_constraint_functor,
    idempotent_bicategory,
    identity_lax_functor,
    sign_twisted_endofunctor,
    small_category_family,
    terminal_bicategory,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "docs" / "fixtures"


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

    XT, bT = terminal_op
    XI, bI = idem_op
    t_path = _write(tmp_path, "t.json", serialize.to_doc(XT, bT))
    i_path = _write(tmp_path, "i.json", serialize.to_doc(XI, bI))
    lax = morphism_from_lax_functor(
        absorbing_constraint_functor(), terminal_bicategory(), idempotent_bicategory()
    )
    l_path = _write(tmp_path, "l.json", serialize.to_doc(lax))
    assert main(["classify", t_path, i_path, l_path]) == 1
    assert "lax" in capsys.readouterr().out


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
