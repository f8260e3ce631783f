"""Shapes, validators and grafting on the opetopic side."""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from opetokit import (
    ArityBoundExceeded,
    DanglingId,
    FiniteOpZeroCat,
    FrameMismatch,
    MissingEntry,
    PastingPath,
    TwoCellTree,
    composite_of_tree,
    empty_path,
    graft,
    hom_category_of_frame,
    occupants_of_niche,
    path,
    validate_op0,
    validate_op1,
    validate_op2,
)


def test_pasting_path_basics():
    p = path("f", "g")
    assert p.arity == 2
    assert p == path("f", "g")
    assert p != path("g", "f")
    assert empty_path("a") != empty_path("b")
    assert p.splice(1, path("u", "v")) == path("f", "u", "v")
    assert path("f").splice(0, empty_path("a")) == empty_path("a")
    with pytest.raises(ValueError):
        PastingPath(())


# -- 1-dimensional validation ------------------------------------------------


def test_op0_dangling_endpoint_and_non_loop():
    stray = FiniteOpZeroCat(("x",), {"f": ("x", "x"), "g": ("x", "nowhere")})
    assert [(v.rule, v.witness, v.message) for v in validate_op0(stray).violations] == [
        ("dangling id", ("g",), "endpoint object missing")
    ]
    across = FiniteOpZeroCat(("x", "y"), {"f": ("x", "x"), "g": ("y", "y"), "h": ("x", "y")})
    assert [(v.rule, v.witness, v.message) for v in validate_op0(across).violations] == [
        ("frame", ("h",), "1-cells of a 0-dimensional presentation must be loops")
    ]


def test_op1_from_group_is_clean(z2_op):
    assert validate_op1(z2_op).ok


def test_op1_comp_matches_parity_oracle(z2_op):
    # independent oracle: the composite of a word over {e, s} is s exactly
    # when the word has an odd number of s letters
    for key, result in z2_op.comp.items():
        if key[0] == 0:
            assert result == "e"
        else:
            odd = sum(1 for e in key[1:] if e == "s") % 2
            assert result == ("s" if odd else "e")


def test_op1_singleton_violation(z2_op):
    broken = dataclasses.replace(
        z2_op, comp={**z2_op.comp, path("s").key(): "e"}
    )
    report = validate_op1(broken)
    assert "singleton" in report.rules()


def test_op1_substitution_violation(z2_op):
    broken = dataclasses.replace(
        z2_op, comp={**z2_op.comp, path("s", "s", "s").key(): "e"}
    )
    report = validate_op1(broken)
    assert "substitution" in report.rules()
    assert "singleton" not in report.rules()


def test_op1_totality_violation(z2_op):
    comp = dict(z2_op.comp)
    del comp[path("s", "s").key()]
    report = validate_op1(dataclasses.replace(z2_op, comp=comp))
    assert "totality" in report.rules()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_op1_substitution_property(data, z2_op):
    edges = data.draw(st.lists(st.sampled_from(["e", "s"]), min_size=1, max_size=4))
    i = data.draw(st.integers(0, len(edges)))
    j = data.draw(st.integers(i, len(edges)))
    p = path(*edges)
    seg = edges[i:j]
    seg_path = path(*seg) if seg else empty_path("o")
    collapsed = tuple(edges[:i]) + (z2_op.comp[seg_path.key()],) + tuple(edges[j:])
    if len(collapsed) <= z2_op.arity_bound:
        assert z2_op.comp[path(*collapsed).key()] == z2_op.comp[p.key()]


# -- 2-dimensional validation ------------------------------------------------


def test_op2_generated_structures_are_clean(sign_op, idem_op, arrow_op):
    for X, _ in (sign_op, idem_op, arrow_op):
        assert validate_op2(X).ok


def test_op2_right_unit_violation(idem_op):
    X, _ = idem_op
    broken = dataclasses.replace(
        X, graft={**X.graft, ("t", 0, X.ident2["i"]): "1"}
    )
    assert "right unit" in validate_op2(broken).rules()


def test_op2_frame_violation(idem_op):
    X, _ = idem_op
    broken = dataclasses.replace(
        X, graft={**X.graft, ("t", 0, X.ident2["i"]): "@pt|t"}
    )
    assert "frame" in validate_op2(broken).rules()


def test_op2_totality_violation(idem_op):
    X, _ = idem_op
    table = dict(X.graft)
    del table[("t", 0, "t")]
    assert "totality" in validate_op2(dataclasses.replace(X, graft=table)).rules()


# -- grafting ----------------------------------------------------------------


def test_graft_unit_law(sign_op):
    X, b = sign_op
    c = b.c[("s", "s")]
    assert graft(X, c, 0, X.ident2["s"]) == c
    assert graft(X, X.ident2["e"], 0, c) == c


def test_graft_into_unit_slot_gives_identity_cell(sign_op):
    # the unitors of the sign bicategory are identities, so deleting the
    # identity edge from a chosen binary occupant lands on the identity 2-cell
    X, b = sign_op
    assert graft(X, b.c[("e", "s")], 0, b.iota["pt"]) == "1s"
    assert graft(X, b.c[("s", "e")], 1, b.iota["pt"]) == "1s"


def test_graft_frame_mismatch(sign_op):
    X, b = sign_op
    with pytest.raises(FrameMismatch):
        graft(X, b.c[("s", "s")], 0, b.iota["pt"])  # iota targets e, slot holds s
    with pytest.raises(FrameMismatch):
        graft(X, b.c[("s", "s")], 5, b.iota["pt"])


def test_graft_arity_bound(sign_op):
    X, b = sign_op
    four = "s;s;s;s|1e"
    assert four in X.cells2
    with pytest.raises(ArityBoundExceeded):
        graft(X, b.c[("e", "e")], 0, four)


def test_graft_missing_entry(sign_op):
    X, b = sign_op
    table = dict(X.graft)
    del table[("1e", 0, "1e")]
    broken = dataclasses.replace(X, graft=table)
    with pytest.raises(MissingEntry):
        graft(broken, "1e", 0, "1e")


# -- tree composites ---------------------------------------------------------


def test_single_node_tree_is_identity_fold(sign_op):
    X, _ = sign_op
    assert composite_of_tree(X, TwoCellTree("ne", (None,))) == "ne"


def test_reassociation_tree_lands_on_associator_value(sign_op):
    # pasting the chosen binary occupants in tail-first order produces the
    # canonical cell labelled by the associator component
    X, b = sign_op
    tree = TwoCellTree(
        b.c[("e", "s")], (TwoCellTree(b.c[("s", "s")], (None, None)), None)
    )
    assert composite_of_tree(X, tree) == "s;s;s|ns"
    tree = TwoCellTree(
        b.c[("e", "e")], (TwoCellTree(b.c[("e", "e")], (None, None)), None)
    )
    assert composite_of_tree(X, tree) == "e;e;e|1e"


def _fold_left_to_right(X, tree):
    current = tree.root
    offset = 0
    for slot, sub in enumerate(tree.slots):
        if sub is None:
            continue
        inner = _fold_left_to_right(X, sub)
        current = graft(X, current, slot + offset, inner)
        offset += X.cells2[inner].source.arity - 1
    return current


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_tree_fold_order_independence(data, sign_op):
    X, _ = sign_op
    cells = sorted(X.cells2)
    root = data.draw(st.sampled_from(cells))
    budget = X.arity_bound - X.arity(root)
    slots = []
    for edge in X.cells2[root].source.edges:
        fits = [
            cid
            for cid, cell in X.cells2.items()
            if cell.target == edge and max(cell.source.arity - 1, 0) <= budget
        ]
        pick = data.draw(st.none() | st.sampled_from(sorted(fits))) if fits else None
        if pick is None:
            slots.append(None)
        else:
            slots.append(TwoCellTree(pick, (None,) * X.arity(pick)))
            # budget for the worst fold order: never credit nullary shrinkage
            budget -= max(X.arity(pick) - 1, 0)
    tree = TwoCellTree(root, tuple(slots))
    assert composite_of_tree(X, tree) == _fold_left_to_right(X, tree)


# -- niches and hom structures -------------------------------------------------


def test_nullary_niche_occupants(sign_op):
    X, _ = sign_op
    assert occupants_of_niche(X, empty_path("pt")) == {"@pt|1e", "@pt|ne"}


def test_occupants_includes_identity(sign_op):
    X, _ = sign_op
    assert X.ident2["s"] in occupants_of_niche(X, path("s"))


def test_occupants_dangling_edge(sign_op):
    X, _ = sign_op
    with pytest.raises(DanglingId):
        occupants_of_niche(X, path("nope"))


def test_hom_structure_of_sign_frame(sign_op):
    X, _ = sign_op
    H = hom_category_of_frame(X, "pt", "pt")
    assert H.objects == ("e", "s")
    assert sorted(H.cells1) == ["1e", "1s", "ne", "ns"]
    assert validate_op1(H).ok
    # vertical composition is sign multiplication on each endo-hom
    assert H.comp[path("ne", "ne").key()] == "1e"
    assert H.comp[path("ns", "1s").key()] == "ns"
    assert H.comp[empty_path("e").key()] == "1e"


def test_hom_structure_chain_matches_graft(sign_op):
    X, _ = sign_op
    H = hom_category_of_frame(X, "pt", "pt")
    for a, b in itertools.product(("1e", "ne"), repeat=2):
        assert H.comp[path(a, b).key()] == graft(X, b, 0, a)


def test_hom_structure_empty_frame(arrow_op):
    X, _ = arrow_op
    H = hom_category_of_frame(X, "B", "A")
    assert H.objects == ()
    assert H.cells1 == {}
    assert validate_op1(H).ok


def test_hom_structure_dangling_object(sign_op):
    X, _ = sign_op
    with pytest.raises(DanglingId):
        hom_category_of_frame(X, "pt", "nowhere")
