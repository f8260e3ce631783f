"""Acceptance suite: one test per criterion, each printing a verdict line.

Every check here is property-based at desk scale; the timed criteria assert
their wall-clock budgets.
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path

from classical_oracles import bracketed_value
from opetokit import (
    all_bracketings,
    check_coherence,
    classify_morphism,
    coherence_cell,
    empty_path,
    from_bicategory,
    from_category,
    is_invertible_2cell,
    is_universal_1cell_op1,
    lax_functor_from_morphism,
    morphism_from_lax_functor,
    to_bicategory,
    to_category,
    validate_bicategory,
    validate_lax_functor,
)
from opetokit.cli import main
from opetokit.fixtures import (
    absorbing_constraint_functor,
    idempotent_bicategory,
    identity_lax_functor,
    sign_bicategory,
    sign_bicategory_broken_pentagon,
    sign_twisted_endofunctor,
    small_category_family,
    terminal_bicategory,
    z2_category,
)


def _verdict(n: int, text: str) -> None:
    print(f"criterion {n}: PASS - {text}")


def test_criterion_1_category_round_trip():
    start = time.perf_counter()
    family = [z2_category()] + small_category_family()
    for C in family:
        assert to_category(from_category(C)) == C
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    _verdict(1, f"round trip exact on {len(family)} categories in {elapsed:.2f}s")


def test_criterion_2_universal_iff_invertible():
    family = [z2_category()] + small_category_family()
    disagreements = 0
    for C in family:
        X = from_category(C, check=False)
        for f in C.arrows:
            invertible = any(
                C.compose.get((g, f)) == C.identities[C.src(f)]
                and C.compose.get((f, g)) == C.identities[C.tgt(f)]
                for g in C.arrows
            )
            if is_universal_1cell_op1(X, f) != invertible:
                disagreements += 1
    assert disagreements == 0
    _verdict(2, f"zero disagreements across {len(family)} categories")


def test_criterion_3_pentagon_is_cocycle():
    start = time.perf_counter()
    assert validate_bicategory(sign_bicategory()).ok

    def cocycle_defect(omega):
        mul = lambda x, y: "e" if x == y else "s"
        bad = set()
        for k, h, g, f in itertools.product(("e", "s"), repeat=4):
            lhs = omega(k, h, mul(g, f)) ^ omega(mul(k, h), g, f)
            rhs = omega(h, g, f) ^ omega(k, mul(h, g), f) ^ omega(k, h, g)
            if lhs != rhs:
                bad.add((k, h, g, f))
        return bad

    good = lambda h, g, f: 1 if (h, g, f) == ("s", "s", "s") else 0
    assert cocycle_defect(good) == set()
    assert not validate_bicategory(sign_bicategory()).filter("pentagon")

    bad_omega = lambda h, g, f: 1 if g == "s" else 0
    oracle = cocycle_defect(bad_omega)
    witnesses = {
        v.witness
        for v in validate_bicategory(sign_bicategory_broken_pentagon()).filter("pentagon")
    }
    assert witnesses == oracle and witnesses
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 3 took {elapsed:.2f}s"
    _verdict(3, f"pentagon = cocycle on all 16 quadruples, {len(witnesses)} corruption witnesses, {elapsed:.2f}s")


def test_criterion_4_bicategory_round_trip():
    start = time.perf_counter()
    for B in (sign_bicategory(), idempotent_bicategory()):
        X, b = from_bicategory(B, 4)
        B2 = to_bicategory(X, b)
        assert B2 == B  # includes assoc, lunit, runit component tables
        assert B2.assoc == B.assoc and B2.lunit == B.lunit and B2.runit == B.runit
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 4 took {elapsed:.2f}s"
    _verdict(4, f"table-for-table round trip at bound 4 in {elapsed:.2f}s")


def test_criterion_5_generated_coherence():
    X, _ = from_bicategory(sign_bicategory())
    assert check_coherence(X).ok
    XI, _ = from_bicategory(idempotent_bicategory())
    report = check_coherence(XI)
    assert report.ok
    assert "@pt|t" not in report.universal_two_cells
    assert report.niche_universals[empty_path("pt").key()] == ("@pt|1",)
    _verdict(5, "generated structures coherent; absorbing occupant non-universal, niche still covered")


def test_criterion_6_axiom_level_checks():
    axiom_rules = (
        "hcomp identity",
        "interchange",
        "associator naturality",
        "right unitor naturality",
        "pentagon",
        "triangle",
    )
    for B in (sign_bicategory(), idempotent_bicategory()):
        X, b = from_bicategory(B)
        out = to_bicategory(X, b)
        report = validate_bicategory(out)
        assert report.ok
        for rule in axiom_rules:
            assert not report.filter(rule)
    sign = sign_bicategory()
    X, b = from_bicategory(sign)
    for G in (identity_lax_functor(sign), sign_twisted_endofunctor()):
        F = morphism_from_lax_functor(G, sign, sign)
        translated = lax_functor_from_morphism(F, X, X, b, b)
        lreport = validate_lax_functor(translated, sign, sign)
        assert lreport.ok
        for rule in ("phi naturality", "hexagon", "right unit axiom", "left unit axiom"):
            assert not lreport.filter(rule)
    _verdict(6, "all axiom-level checks clean on converted structures and translated morphisms")


def test_criterion_7_coherence_cell_composability():
    B = sign_bicategory()
    checked = 0
    for m in (1, 2, 3, 4):
        brackets = list(all_bracketings(m))
        for edges in itertools.product(("e", "s"), repeat=m):
            cells = {}
            for g1, g2 in itertools.product(brackets, repeat=2):
                cell = coherence_cell(B, edges, g1, g2)
                cells[(g1, g2)] = cell
                assert is_invertible_2cell(B, cell)
                assert B.src2(cell) == bracketed_value(B, edges, g1)
                assert B.tgt2(cell) == bracketed_value(B, edges, g2)
            for g1, g2, g3 in itertools.product(brackets, repeat=3):
                assert B.then2(cells[(g1, g2)], cells[(g2, g3)]) == cells[(g1, g3)]
                checked += 1
    for f, g, h, k in itertools.product(("e", "s"), repeat=4):
        gf, hg, kh = B.beside1(g, f), B.beside1(h, g), B.beside1(k, h)
        one = B.then2(B.assoc[(kh, g, f)], B.assoc[(k, h, gf)])
        other = B.then2(
            B.beside2(B.assoc[(k, h, g)], B.id2[f]),
            B.then2(B.assoc[(k, hg, f)], B.beside2(B.id2[k], B.assoc[(h, g, f)])),
        )
        assert one == other
    _verdict(7, f"{checked} composability triples, all invertible; pentagon legs agree")


def test_criterion_8_strictness_classification():
    sign = sign_bicategory()
    X, b = from_bicategory(sign)
    XT, bT = from_bicategory(terminal_bicategory())
    XI, bI = from_bicategory(idempotent_bicategory())
    verdicts = set()
    for _ in range(2):
        ident = morphism_from_lax_functor(identity_lax_functor(sign), sign, sign)
        weak = morphism_from_lax_functor(sign_twisted_endofunctor(), sign, sign)
        lax = morphism_from_lax_functor(
            absorbing_constraint_functor(), terminal_bicategory(), idempotent_bicategory()
        )
        verdicts.add(
            (
                classify_morphism(ident, X, X, b, b).verdict,
                classify_morphism(weak, X, X, b, b).verdict,
                classify_morphism(lax, XT, XI, bT, bI).verdict,
            )
        )
    assert verdicts == {("strict", "weak", "lax")}
    _verdict(8, "identity strict, twisted automorphism weak, absorbing morphism lax; stable")


def test_criterion_9_cli_determinism(tmp_path):
    fixture_dir = Path(__file__).resolve().parent.parent / "docs" / "fixtures"
    for name in ("bicategory.json", "category.json", "bicategory_idempotent.json", "op1cat.json", "op2cat.json"):
        assert main(["roundtrip", str(fixture_dir / name)]) == 0
    src = str(fixture_dir / "bicategory.json")
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["convert", src, "--to", "opic", "--out", out1]) == 0
    assert main(["convert", src, "--to", "opic", "--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    back1, back2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["convert", out1, "--to", "bicat", "--out", back1]) == 0
    assert main(["convert", out2, "--to", "bicat", "--out", back2]) == 0
    assert Path(back1).read_bytes() == Path(back2).read_bytes()
    _verdict(9, "roundtrip exits 0 on shipped fixtures; outputs byte-identical across runs")
