"""Classical validators, invertibility, and coherence cells."""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from classical_oracles import bracketed_value
from opetokit import (
    Bracketing,
    CatFunctor,
    FiniteCategory,
    MissingComposite,
    PathMismatch,
    all_bracketings,
    coherence_cell,
    invert_two_cell,
    is_equivalence_1cell,
    is_invertible_2cell,
    validate_bicategory,
    validate_category,
    validate_functor,
    validate_lax_functor,
)
from opetokit.errors import Violation
from opetokit.bicat import FiniteBicategory
from opetokit.fixtures import (
    absorbing_constraint_functor,
    arrow_bicategory,
    arrow_perturbed_functor,
    idempotent_bicategory,
    identity_lax_functor,
    sign_bicategory,
    sign_bicategory_broken_pentagon,
    sign_twisted_endofunctor,
    z2_category,
)


# -- categories ----------------------------------------------------------------


def test_group_category_is_clean(z2cat):
    assert validate_category(z2cat).ok


def test_category_totality_violation(z2cat):
    table = dict(z2cat.compose)
    del table[("s", "s")]
    report = validate_category(dataclasses.replace(z2cat, compose=table))
    assert "totality" in report.rules()


def test_category_associativity_violation():
    # three endo-arrows with a deliberately non-associative table
    C = FiniteCategory(
        objects=("o",),
        arrows={"1": ("o", "o"), "a": ("o", "o"), "b": ("o", "o")},
        identities={"o": "1"},
        compose={
            ("1", "1"): "1", ("1", "a"): "a", ("1", "b"): "b",
            ("a", "1"): "a", ("b", "1"): "b",
            ("a", "a"): "b", ("b", "a"): "1", ("a", "b"): "a", ("b", "b"): "b",
        },
    )
    report = validate_category(C)
    violations = report.filter("associativity")
    assert violations, str(report)
    h, g, f = violations[0].witness
    lhs = C.compose[(h, C.compose[(g, f)])]
    rhs = C.compose[(C.compose[(h, g)], f)]
    assert lhs != rhs


def _found(report, rule: str | None) -> list[tuple]:
    """The witnesses and messages of ``rule``'s violations (of all, if None)."""
    return [(v.witness, v.message) for v in report.violations if rule in (None, v.rule)]


# a -> b: the two identities and one arrow f
ARROW_CATEGORY = FiniteCategory(
    objects=("a", "b"),
    arrows={"1a": ("a", "a"), "1b": ("b", "b"), "f": ("a", "b")},
    identities={"a": "1a", "b": "1b"},
    compose={("1a", "1a"): "1a", ("f", "1a"): "f", ("1b", "f"): "f", ("1b", "1b"): "1b"},
)


@pytest.mark.parametrize("C, rule, expected", [
    (dataclasses.replace(ARROW_CATEGORY, identities={"a": "f", "b": "1b"}),
     "identity", [(("a", "f"), "identity endpoints are wrong")]),
    (dataclasses.replace(ARROW_CATEGORY, compose={**ARROW_CATEGORY.compose, ("1a", "f"): "f"}),
     "frame", [(("1a", "f"), "entry for a non-composable pair")]),
    (dataclasses.replace(ARROW_CATEGORY, compose={**ARROW_CATEGORY.compose, ("f", "1a"): "1a"}),
     "frame", [(("f", "1a", "1a"), "composite endpoints are wrong")]),
    (dataclasses.replace(z2_category(), compose={**z2_category().compose, ("e", "s"): "e"}),
     "unit", [(("s",), "left identity law fails")]),
    (dataclasses.replace(z2_category(), compose={**z2_category().compose, ("s", "e"): "e"}),
     "unit", [(("s",), "right identity law fails")]),
    (dataclasses.replace(z2_category(), identities={**z2_category().identities, "zz": "e"}),
     "dangling id", [(("zz",), "identities entry for an unknown object")]),
    (dataclasses.replace(ARROW_CATEGORY, compose={**ARROW_CATEGORY.compose, ("zz", "1a"): "1a"}),
     "dangling id", [(("zz", "1a", "1a"), "compose entry for an unknown arrow")]),
    # one entry mistyped and another dropped: the entries are reported before totality
    (dataclasses.replace(ARROW_CATEGORY, compose={
        ("1a", "1a"): "1a", ("f", "1a"): "1a", ("1b", "1b"): "1b"}),
     None, [(("f", "1a", "1a"), "composite endpoints are wrong"),
            (("1b", "f"), "composable pair missing from the table")]),
], ids=["identity endpoints", "non-composable pair", "composite endpoints", "left unit",
        "right unit", "identity for an unknown object", "compose for an unknown arrow",
        "mistyped entry and missing pair"])
def test_category_rules_name_their_witness(C, rule, expected):
    assert validate_category(ARROW_CATEGORY).ok
    assert _found(validate_category(C), rule) == expected


def test_functor_totality_names_the_missing_image(z2cat):
    F = CatFunctor({"o": "o"}, {"e": "e", "s": "s"})
    assert validate_functor(F, z2cat, z2cat).ok
    no_object = validate_functor(CatFunctor({}, F.on_arrows), z2cat, z2cat)
    assert _found(no_object, "totality") == [(("o",), "object has no image")]
    no_arrow = validate_functor(CatFunctor(F.on_objects, {"e": "e"}), z2cat, z2cat)
    assert [(v.rule, v.witness, v.message) for v in no_arrow.violations] == [
        ("totality", ("s",), "arrow has no image")
    ]


# -- bicategories ----------------------------------------------------------------


@pytest.mark.parametrize(
    "table, position",
    [("vcomp", 1), ("vcomp", 2), ("hcomp1", 1), ("hcomp1", 2), ("hcomp2", 0), ("hcomp2", 2)],
)
def test_dangling_composition_entries_are_reported(sign, table, position):
    # rename one id of the first row (key position 0 or 1, or the result)
    rows = dict(getattr(sign, table))
    (first, second), result = row = next(iter(rows.items()))
    del rows[row[0]]
    renamed = [first, second, result]
    renamed[position] = "zz"
    rows[tuple(renamed[:2])] = renamed[2]
    report = validate_bicategory(dataclasses.replace(sign, **{table: rows}))
    assert ("dangling id", tuple(renamed)) in [(v.rule, v.witness) for v in report.violations]


@pytest.mark.parametrize("base, table, entry, expected", [
    ("sign", "one_cells", ("stray", ("nowhere", "pt")),
     ("dangling id", ("stray",), "endpoint object missing")),
    ("sign", "two_cells", ("lost", ("e", "ghost")),
     ("dangling id", ("lost",), "endpoint 1-cell missing")),
    ("sign", "vcomp", (("zz", "1e"), "1e"),
     ("dangling id", ("zz", "1e", "1e"), "vcomp entry for an unknown 2-cell")),
    ("sign", "hcomp1", (("zz", "e"), "e"),
     ("dangling id", ("zz", "e", "e"), "hcomp1 entry for an unknown 1-cell")),
    ("sign", "hcomp2", (("zz", "1e"), "1e"),
     ("dangling id", ("zz", "1e", "1e"), "hcomp2 entry for an unknown 2-cell")),
    ("arrow", "two_cells", ("bad", ("iA", "k")),
     ("frame", ("bad",), "2-cell endpoints live in different frames")),
    ("arrow", "vcomp", (("xk", "a0"), "a1"),
     ("hom category", ("xk", "a0"), "vertical entry for a non-composable pair")),
    ("sign", "id1", ("zz", "e"), ("dangling id", ("zz",), "id1 entry for an unknown object")),
    ("sign", "id2", ("zz", "1e"), ("dangling id", ("zz",), "id2 entry for an unknown 1-cell")),
    ("sign", "lunit", ("zz", "1e"), ("dangling id", ("zz",), "lunit entry for an unknown 1-cell")),
    ("sign", "runit", ("zz", "1e"), ("dangling id", ("zz",), "runit entry for an unknown 1-cell")),
    ("sign", "assoc", (("zz", "e", "e"), "1e"),
     ("dangling id", ("zz", "e", "e"), "assoc entry for an unknown 1-cell")),
    ("arrow", "assoc", (("k", "k", "k"), "1k"),
     ("frame", ("k", "k", "k"), "assoc entry for a non-composable triple")),
    ("arrow", "hcomp1", (("k", "k"), "k"),
     ("frame", ("k", "k"), "hcomp1 entry for a non-composable pair")),
    ("arrow", "hcomp2", (("1k", "xk"), "1k"),
     ("frame", ("1k", "xk"), "hcomp2 entry for a non-composable pair")),
], ids=["1-cell endpoint", "2-cell endpoint", "vcomp for an unknown 2-cell",
        "hcomp1 for an unknown 1-cell", "hcomp2 for an unknown 2-cell", "2-cell across frames", "non-composable vertical entry",
        "id1 for an unknown object", "id2 for an unknown 1-cell", "lunit for an unknown 1-cell",
        "runit for an unknown 1-cell", "assoc for an unknown 1-cell", "non-composable assoc entry",
        "non-composable hcomp1 entry", "non-composable hcomp2 entry"])
def test_bicategory_rules_name_their_witness(base, table, entry, expected):
    B = sign_bicategory() if base == "sign" else arrow_bicategory()
    key, value = entry
    broken = dataclasses.replace(B, **{table: {**getattr(B, table), key: value}})
    report = validate_bicategory(broken)
    assert [(v.rule, v.witness, v.message) for v in report.violations] == [expected]


def test_fixture_bicategories_are_clean(sign, idem, arrow, terminal):
    for B in (sign, idem, arrow, terminal):
        report = validate_bicategory(B)
        assert report.ok, str(report)


def _cocycle_defect(omega):
    """Independent oracle: failing quadruples of the 3-cocycle identity."""
    bad = set()
    for k, h, g, f in itertools.product(("e", "s"), repeat=4):
        mul = lambda x, y: "e" if x == y else "s"
        lhs = omega(k, h, mul(g, f)) ^ omega(mul(k, h), g, f)
        rhs = omega(h, g, f) ^ omega(k, mul(h, g), f) ^ omega(k, h, g)
        if lhs != rhs:
            bad.add((k, h, g, f))
    return bad


def test_pentagon_agrees_with_cocycle_oracle_instancewise():
    good = lambda h, g, f: 1 if (h, g, f) == ("s", "s", "s") else 0
    assert _cocycle_defect(good) == set()
    report = validate_bicategory(sign_bicategory())
    assert not report.filter("pentagon")

    bad_omega = lambda h, g, f: 1 if g == "s" else 0
    oracle_bad = _cocycle_defect(bad_omega)
    assert oracle_bad
    report = validate_bicategory(sign_bicategory_broken_pentagon())
    witnesses = {v.witness for v in report.filter("pentagon")}
    assert witnesses == oracle_bad


def test_interchange_matches_commutative_product_oracle(idem):
    # in a commutative idempotent monoid (ab)(cd) = (ac)(bd) always holds
    for quad in itertools.product(("1", "t"), repeat=4):
        b2, b1, a2, a1 = quad
        mul = lambda x, y: "1" if x == y == "1" else "t"
        assert mul(mul(b2, b1), mul(a2, a1)) == mul(mul(b2, a2), mul(b1, a1))
    assert not validate_bicategory(idem).filter("interchange")


def labelled_z2_bicategory() -> FiniteBicategory:
    """One object, 1-cells e and s forming Z2, and a 2-cell ``xyk``: x => y
    for every pair of 1-cells x, y and label k in Z2.

    Both compositions add labels mod 2 and the unitors are identities.  The
    associator has label 1 on (s, s, s) only, so a 2-cell out of s into e
    moves a component of label 1 to one of label 0: associator naturality
    fails, and no other law does.
    """
    ones = ("e", "s")
    mul = lambda g, f: "e" if g == f else "s"
    cell = lambda x, y, k: f"{x}{y}{k % 2}"
    labelled = [(x, y, k) for x in ones for y in ones for k in (0, 1)]
    return FiniteBicategory(
        objects=("pt",),
        one_cells={f: ("pt", "pt") for f in ones},
        two_cells={cell(x, y, k): (x, y) for x, y, k in labelled},
        id2={f: cell(f, f, 0) for f in ones},
        vcomp={
            (cell(y, z, l), cell(x, y, k)): cell(x, z, k + l)
            for x, y, k in labelled
            for z in ones
            for l in (0, 1)
        },
        id1={"pt": "e"},
        hcomp1={(g, f): mul(g, f) for g in ones for f in ones},
        hcomp2={
            (cell(x2, y2, l), cell(x, y, k)): cell(mul(x2, x), mul(y2, y), k + l)
            for x, y, k in labelled
            for x2, y2, l in labelled
        },
        assoc={
            (h, g, f): cell(mul(mul(h, g), f), mul(mul(h, g), f), (h, g, f) == ("s", "s", "s"))
            for h in ones
            for g in ones
            for f in ones
        },
        lunit={f: cell(f, f, 0) for f in ones},
        runit={f: cell(f, f, 0) for f in ones},
    )


def test_associator_naturality_is_reported():
    report = validate_bicategory(labelled_z2_bicategory())
    assert len(report.violations) == 112
    assert {v.rule for v in report.violations} == {"associator naturality"}
    assert report.violations[0].witness == ("es0", "es0", "es0")


def test_invertibility(sign, idem):
    assert is_invertible_2cell(sign, "1s")
    assert is_invertible_2cell(sign, "ne")
    assert is_invertible_2cell(idem, "1")
    assert not is_invertible_2cell(idem, "t")


def test_equivalence_1cells(sign, idem, arrow):
    assert is_equivalence_1cell(sign, "e")
    assert is_equivalence_1cell(sign, "s")  # s composed with itself is e
    assert is_equivalence_1cell(idem, "i")
    assert is_equivalence_1cell(arrow, "iA")
    assert not is_equivalence_1cell(arrow, "k")  # no 1-cell back from B to A


# -- bracketings and coherence cells -------------------------------------------


def test_bracketing_counts_are_catalan():
    assert [sum(1 for _ in all_bracketings(m)) for m in (1, 2, 3, 4, 5)] == [1, 1, 2, 5, 14]


def test_canonical_bracketing_shape():
    b = Bracketing.canonical(3)
    assert b.left.is_leaf and not b.right.is_leaf
    assert b.size == 3


def test_coherence_cell_same_bracketing_is_identity(sign):
    for m in (1, 2, 3, 4):
        for g in all_bracketings(m):
            edges = ("s",) * m
            expected = sign.id2[bracketed_value(sign, edges, g)]
            assert coherence_cell(sign, edges, g, g) == expected


def test_coherence_cell_three_edges_is_associator_component(sign):
    head_first = Bracketing.canonical(3)
    tail_first = Bracketing.node(
        Bracketing.node(Bracketing.leaf(), Bracketing.leaf()), Bracketing.leaf()
    )
    for edges in itertools.product(("e", "s"), repeat=3):
        got = coherence_cell(sign, edges, head_first, tail_first)
        assert got == sign.assoc[(edges[2], edges[1], edges[0])]


def test_coherence_cells_compose_and_invert(sign):
    for m in (2, 3, 4):
        brackets = list(all_bracketings(m))
        for edges in itertools.product(("e", "s"), repeat=m):
            for g1, g2, g3 in itertools.product(brackets, repeat=3):
                c12 = coherence_cell(sign, edges, g1, g2)
                c23 = coherence_cell(sign, edges, g2, g3)
                c13 = coherence_cell(sign, edges, g1, g3)
                assert sign.then2(c12, c23) == c13
                assert is_invertible_2cell(sign, c12)


def test_pentagon_legs_agree(sign):
    for f, g, h, k in itertools.product(("e", "s"), repeat=4):
        gf, hg, kh = sign.beside1(g, f), sign.beside1(h, g), sign.beside1(k, h)
        one = sign.then2(sign.assoc[(kh, g, f)], sign.assoc[(k, h, gf)])
        other = sign.then2(
            sign.beside2(sign.assoc[(k, h, g)], sign.id2[f]),
            sign.then2(
                sign.assoc[(k, hg, f)],
                sign.beside2(sign.id2[k], sign.assoc[(h, g, f)]),
            ),
        )
        assert one == other


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_coherence_cell_frames_property(data, sign):
    m = data.draw(st.integers(1, 4))
    edges = tuple(data.draw(st.sampled_from(["e", "s"])) for _ in range(m))
    brackets = list(all_bracketings(m))
    g1 = data.draw(st.sampled_from(brackets))
    g2 = data.draw(st.sampled_from(brackets))
    cell = coherence_cell(sign, edges, g1, g2)
    assert sign.src2(cell) == bracketed_value(sign, edges, g1)
    assert sign.tgt2(cell) == bracketed_value(sign, edges, g2)
    assert is_invertible_2cell(sign, cell)


def test_coherence_cell_path_mismatch(sign):
    with pytest.raises(PathMismatch):
        coherence_cell(sign, ("e", "s"), Bracketing.canonical(3), Bracketing.canonical(3))
    with pytest.raises(PathMismatch):
        coherence_cell(sign, (), Bracketing.canonical(1), Bracketing.canonical(1))


def _rotation_moves(B, bracketing, edges):
    """All single reassociation steps out of a bracketing, with the whiskered
    component 2-cell realising each; an oracle route independent of the
    normalisation in coherence_cell."""
    moves = []

    def value(br, lo):
        if br.is_leaf:
            return edges[lo], lo + 1
        lv, mid = value(br.left, lo)
        rv, hi = value(br.right, mid)
        return B.beside1(rv, lv), hi

    def whisker(cell, trail):
        for side, other in reversed(trail):
            if side == "left":
                cell = B.beside2(B.id2[other], cell)
            else:
                cell = B.beside2(cell, B.id2[other])
        return cell

    def rebuild(br, pos, replacement):
        if not pos:
            return replacement
        head, rest = pos[0], pos[1:]
        if head == "left":
            return Bracketing.node(rebuild(br.left, rest, replacement), br.right)
        return Bracketing.node(br.left, rebuild(br.right, rest, replacement))

    def walk(br, lo, trail, pos):
        if br.is_leaf:
            return
        lv, mid = value(br.left, lo)
        rv, _ = value(br.right, mid)
        if not br.right.is_leaf:
            # node(A, node(B, C)) -> node(node(A, B), C)
            bv, bmid = value(br.right.left, mid)
            cv, _ = value(br.right.right, bmid)
            component = B.assoc[(cv, bv, lv)]
            rotated = Bracketing.node(
                Bracketing.node(br.left, br.right.left), br.right.right
            )
            moves.append((rebuild(bracketing, pos, rotated), whisker(component, trail)))
        if not br.left.is_leaf:
            # node(node(A, B), C) -> node(A, node(B, C))
            av, amid = value(br.left.left, lo)
            bv, _ = value(br.left.right, amid)
            component = B.assoc[(rv, bv, av)]
            back = invert_two_cell(B, component)
            rotated = Bracketing.node(
                br.left.left, Bracketing.node(br.left.right, br.right)
            )
            moves.append((rebuild(bracketing, pos, rotated), whisker(back, trail)))
        walk(br.left, lo, trail + [("right", rv)], pos + ("left",))
        walk(br.right, mid, trail + [("left", lv)], pos + ("right",))

    walk(bracketing, 0, [], ())
    return moves


def test_coherence_cell_matches_rotation_path_oracle(sign):
    # breadth-first search over single reassociation steps gives a second,
    # independent route to the connecting 2-cell; any route must agree
    from collections import deque

    for m in (2, 3, 4):
        brackets = list(all_bracketings(m))
        for edges in itertools.product(("e", "s"), repeat=m):
            for start in brackets:
                reached = {start: sign.id2[bracketed_value(sign, edges, start)]}
                queue = deque([start])
                while queue:
                    current = queue.popleft()
                    for nxt, step in _rotation_moves(sign, current, edges):
                        if nxt not in reached:
                            reached[nxt] = sign.then2(reached[current], step)
                            queue.append(nxt)
                assert set(reached) == set(brackets)
                for goal, via_rotations in reached.items():
                    assert via_rotations == coherence_cell(sign, edges, start, goal)


def test_generation_at_bound_five(sign):
    from opetokit import check_coherence, from_bicategory, to_bicategory, validate_op2

    X, b = from_bicategory(sign, 5)
    assert max(cell.source.arity for cell in X.cells2.values()) == 5
    assert validate_op2(X).ok
    assert check_coherence(X).ok
    assert to_bicategory(X, b) == sign


# -- lax functors ----------------------------------------------------------------


def test_identity_lax_functor_is_clean(sign, idem, arrow):
    for B in (sign, idem, arrow):
        assert validate_lax_functor(identity_lax_functor(B), B, B).ok


def test_sign_twisted_functor_is_clean(sign):
    report = validate_lax_functor(sign_twisted_endofunctor(), sign, sign)
    assert report.ok, str(report)


def test_absorbing_constraint_fails_unit_axioms(terminal, idem):
    # the absorbing 2-cell is a legal constraint only until the unit axioms
    # are checked: t composed against itself never reaches the identity
    report = validate_lax_functor(absorbing_constraint_functor(), terminal, idem)
    assert report.rules() == {"right unit axiom", "left unit axiom"}


def test_perturbed_constraint_breaks_naturality(arrow):
    report = validate_lax_functor(arrow_perturbed_functor(), arrow, arrow)
    assert "phi naturality" in report.rules()
    witnesses = {v.witness for v in report.filter("phi naturality")}
    assert ("1iB", "a0") in witnesses


def _without(table: dict, key) -> dict:
    return {k: v for k, v in table.items() if k != key}


@pytest.mark.parametrize("field, change, expected", [
    ("on_objects", lambda t: _without(t, "A"), ("totality", ("A",), "object has no image")),
    ("on_one_cells", lambda t: _without(t, "k"), ("totality", ("k",), "1-cell has no image")),
    ("on_one_cells", lambda t: {**t, "k": "iA"},
     ("frame", ("k",), "1-cell image endpoints do not match")),
    ("on_two_cells", lambda t: _without(t, "xk"), ("totality", ("xk",), "2-cell has no image")),
    ("on_two_cells", lambda t: {**t, "xk": "a0"},
     ("frame", ("xk",), "2-cell image frame does not match")),
    ("phi_pair", lambda t: _without(t, ("k", "iA")),
     ("totality", ("k", "iA"), "pair constraint missing")),
    ("phi_pair", lambda t: {**t, ("k", "iA"): "1k2"},
     ("frame", ("k", "iA", "1k2"), "pair constraint mistyped")),
    ("phi_obj", lambda t: _without(t, "A"), ("totality", ("A",), "object constraint missing")),
    ("phi_obj", lambda t: {**t, "A": "1k"}, ("frame", ("A", "1k"), "object constraint mistyped")),
    ("on_two_cells", lambda t: {**t, "1k": "xk"},
     ("hom functor", ("k",), "identity 2-cell not preserved")),
    ("on_two_cells", lambda t: {**t, "a1": "a0"},
     ("hom functor", ("a0", "xk"), "vertical composition not preserved")),
], ids=["object image", "1-cell image", "1-cell frame", "2-cell image", "2-cell frame",
        "pair constraint", "pair constraint frame", "object constraint",
        "object constraint frame", "identity 2-cell", "vertical composite"])
def test_lax_functor_structural_rules_name_their_witness(arrow, field, change, expected):
    # the identity on the arrow bicategory with one table entry dropped or changed
    F = identity_lax_functor(arrow)
    broken = dataclasses.replace(F, **{field: change(getattr(F, field))})
    report = validate_lax_functor(broken, arrow, arrow)
    assert report.violations[0] == Violation(*expected)


def test_coherence_cell_without_an_inverse_normalisation_leg_is_refused():
    # whiskering identities to t, not 1: every normalisation leg is t, which
    # has no inverse in the monoid {1, t}
    base = idempotent_bicategory()
    B = dataclasses.replace(base, hcomp2={**base.hcomp2, ("1", "1"): "t"})
    assert "hcomp identity" in validate_bicategory(B).rules()
    edges = ("i", "i", "i")
    for g1, g2 in itertools.product(all_bracketings(3), repeat=2):
        with pytest.raises(MissingComposite) as raised:
            coherence_cell(B, edges, g1, g2)
        assert str(raised.value) == "normalisation leg 't' has no inverse"
