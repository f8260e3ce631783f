"""Factorisation-based universality and the coherence checker."""

from __future__ import annotations

import dataclasses

import pytest

from opetokit import (
    ArityError,
    NicheMismatch,
    check_coherence,
    empty_path,
    factorizations_through,
    is_equivalence_1cell,
    is_invertible_2cell,
    is_universal_1cell,
    is_universal_1cell_op1,
    is_universal_2cell,
    is_universal_factorization_1,
    validate_op2,
)
import opetokit.equivalences as eq
from opetokit.fixtures import small_category_family
from opetokit.equivalences import from_category


def test_factorizations_in_idempotent_niche(idem_op):
    X, b = idem_op
    iota, t_iota = "@pt|1", "@pt|t"
    assert factorizations_through(X, iota, t_iota) == {"t"}
    assert factorizations_through(X, iota, iota) == {"1"}
    # no way back: nothing composed onto the absorbing occupant gives iota
    assert factorizations_through(X, t_iota, iota) == set()


def test_factorizations_contains_identity_for_self(sign_op):
    X, b = sign_op
    c = b.c[("s", "s")]
    assert X.ident2[X.cells2[c].target] in factorizations_through(X, c, c)


def test_factorizations_niche_mismatch(sign_op):
    X, b = sign_op
    with pytest.raises(NicheMismatch):
        factorizations_through(X, b.c[("s", "s")], b.c[("e", "e")])


def test_universal_2cells_match_invertibility_oracle(sign, sign_op, idem, idem_op, arrow, arrow_op):
    for B, (X, _) in ((sign, sign_op), (idem, idem_op), (arrow, arrow_op)):
        gen = eq._generate(B, 4)
        for cid in X.cells2:
            _, label = gen.value_of[cid]
            assert is_universal_2cell(X, cid) == is_invertible_2cell(B, label), cid


def test_absorbing_occupant_not_universal(idem_op):
    X, _ = idem_op
    assert not is_universal_2cell(X, "@pt|t")
    assert is_universal_2cell(X, "@pt|1")


def test_universal_factorization_binary(sign_op):
    X, b = sign_op
    assert is_universal_factorization_1(X, b.c[("s", "s")])
    assert is_universal_factorization_1(X, "s;s|ne")


def test_non_universal_binary_is_not_universal_factorization(idem_op):
    X, _ = idem_op
    assert not is_universal_factorization_1(X, "i;i|t")
    assert is_universal_factorization_1(X, "i;i|1")


def test_universal_factorization_total_on_binary_cells(sign_op, idem_op, arrow_op):
    for X, _ in (sign_op, idem_op, arrow_op):
        for cid, cell in X.cells2.items():
            if cell.source.arity == 2:
                assert is_universal_factorization_1(X, cid) in (True, False)


def test_universal_factorization_arity_error(sign_op):
    X, _ = sign_op
    with pytest.raises(ArityError):
        is_universal_factorization_1(X, "s;s;s|1s")


def test_universal_1cells_match_equivalence_oracle(sign, sign_op, idem, idem_op, arrow, arrow_op):
    for B, (X, _) in ((sign, sign_op), (idem, idem_op), (arrow, arrow_op)):
        for f in X.cells1:
            assert is_universal_1cell(X, f) == is_equivalence_1cell(B, f), f


def test_idempotent_1cell_is_universal(idem_op):
    X, _ = idem_op
    assert is_universal_1cell(X, "i")


def test_dim1_universality_is_invertibility_over_family():
    for C in small_category_family()[:20]:
        X = from_category(C, check=False)
        for f in C.arrows:
            invertible = any(
                C.compose.get((g, f)) == C.identities[C.src(f)]
                and C.compose.get((f, g)) == C.identities[C.tgt(f)]
                for g in C.arrows
            )
            assert is_universal_1cell_op1(X, f) == invertible, (f, C.arrows)


# -- coherence ---------------------------------------------------------------


def test_generated_structures_are_coherent(sign_op, idem_op, arrow_op, terminal_op):
    for X, _ in (sign_op, idem_op, arrow_op, terminal_op):
        report = check_coherence(X)
        assert report.ok, str(report)


def test_coherence_modes_agree(sign_op, idem_op):
    for X, _ in (sign_op, idem_op):
        closure = check_coherence(X)
        direct = check_coherence(X, direct_niche_search=True)
        assert closure.ok == direct.ok
        assert closure.universal_two_cells == direct.universal_two_cells


def test_identity_2cells_universal_in_coherent_structures(sign_op, idem_op):
    for X, _ in (sign_op, idem_op):
        report = check_coherence(X)
        for f in X.cells1:
            assert X.ident2[f] in report.universal_two_cells


def test_non_universal_occupant_reported_alongside_universal(idem_op):
    X, _ = idem_op
    report = check_coherence(X)
    assert "@pt|t" not in report.universal_two_cells
    assert "@pt|1" in report.universal_two_cells
    assert report.niche_universals[empty_path("pt").key()] == ("@pt|1",)


def _without_cell(X, cid):
    cells2 = {k: v for k, v in X.cells2.items() if k != cid}
    table = {
        key: r
        for key, r in X.graft.items()
        if cid not in (key[0], key[2], r)
    }
    return dataclasses.replace(X, cells2=cells2, graft=table)


def test_niche_without_a_derivation_from_binary_universals(sign_op):
    # the binary universal e;e|1e grafted onto itself derives the niche e;e;e;
    # without that row neither it nor the niches it prefixes get an occupant
    X, _ = sign_op
    table = {key: r for key, r in X.graft.items() if key != ("e;e|1e", 0, "e;e|1e")}
    broken = dataclasses.replace(X, graft=table)
    report = check_coherence(broken)
    assert [(v.rule, v.witness, v.message) for v in report.violations] == [
        ("niche without universal occupant", (key,), "no derivation from binary universals")
        for key in ((1, "e", "e", "e"), (1, "e", "e", "e", "e"), (1, "e", "e", "e", "s"))
    ]
    assert check_coherence(broken, direct_niche_search=True).ok


def test_niche_without_universal_occupant(idem_op):
    X, _ = idem_op
    broken = _without_cell(X, "@pt|1")
    assert validate_op2(broken).ok
    report = check_coherence(broken)
    assert not report.ok
    assert any(
        v.rule == "niche without universal occupant"
        and v.witness[0] == empty_path("pt").key()
        for v in report.violations
    )


def test_closure_under_grafting_holds(sign_op):
    X, _ = sign_op
    report = check_coherence(X)
    u2 = report.universal_two_cells
    for (outer, slot, inner), result in X.graft.items():
        if outer in u2 and inner in u2:
            assert result in u2
