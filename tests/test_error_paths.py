"""Documented errors and values that no other test reaches.

Each test drives one library line that a line trace of the rest of the suite
never executed: an error raised on bad input, or a small value (a ``repr``,
an empty report's text) that nothing else looks at.
"""

from __future__ import annotations

import pytest

from opetokit import serialize
from opetokit.bicat import (
    Bracketing,
    FiniteBicategory,
    chain_value,
    coherence_cell,
    is_equivalence_1cell,
    validate_bicategory,
)
from opetokit.cli import _doc_diff
from opetokit.core import (
    TwoCellTree,
    composite_of_tree,
    empty_path,
    hom_category_of_frame,
    occupants_of_niche,
    path,
)
from opetokit.equivalences import from_bicategory, to_bicategory
from opetokit.errors import (
    ArityBoundExceeded,
    DanglingId,
    FrameMismatch,
    InvalidInput,
    MissingComposite,
    MissingEntry,
    PathMismatch,
    UnknownKind,
    ValidationReport,
)
from opetokit.universality import is_universal_1cell, is_universal_1cell_op1

# -- core ------------------------------------------------------------------------


def test_pasting_path_repr():
    assert repr(empty_path("pt")) == "PastingPath(@pt)"
    assert repr(path("e", "s")) == "PastingPath(e;s)"


def test_splice_slot_out_of_range():
    with pytest.raises(FrameMismatch, match="slot 1 out of range for arity 1"):
        path("e").splice(1, path("s"))


def test_op1_lookups(z2_op):
    assert (z2_op.src("s"), z2_op.tgt("s")) == ("o", "o")
    assert z2_op.compose(path("s", "s")) == "e"
    with pytest.raises(MissingEntry, match=r"no composite recorded for PastingPath\(s;s;s;s;s\)"):
        z2_op.compose(path(*"sssss"))


def test_occupants_of_niche_checks_the_path(sign_op, arrow_op):
    with pytest.raises(DanglingId, match="unknown anchor object 'zz'"):
        occupants_of_niche(sign_op[0], empty_path("zz"))
    with pytest.raises(FrameMismatch, match="path breaks at 'k': expected source 'B'"):
        occupants_of_niche(arrow_op[0], path("k", "k"))


def test_composite_of_tree_needs_one_slot_per_edge(sign_op):
    with pytest.raises(FrameMismatch, match="has 0 slots, cell has arity 2"):
        composite_of_tree(sign_op[0], TwoCellTree("e;e|1e", ()))


def test_hom_category_of_an_unknown_object(sign_op):
    with pytest.raises(DanglingId, match="unknown object 'zz'"):
        hom_category_of_frame(sign_op[0], "zz", "pt")


# -- bicat -----------------------------------------------------------------------


def test_category_then_on_a_missing_pair(z2cat):
    with pytest.raises(MissingComposite, match=r"no composite for \('zz', 's'\)"):
        z2cat.then("s", "zz")


def test_bracketing_shapes():
    with pytest.raises(ValueError, match="needs both children"):
        Bracketing(Bracketing.leaf(), None)
    with pytest.raises(ValueError, match="at least one leaf"):
        Bracketing.canonical(0)
    assert repr(Bracketing.canonical(3)) == "(*(**))"


def test_bicategory_lookups_on_unknown_cells(sign):
    with pytest.raises(DanglingId, match="unknown 1-cell 'zz'"):
        is_equivalence_1cell(sign, "zz")
    with pytest.raises(DanglingId, match="unknown 1-cell 'zz'"):
        coherence_cell(sign, ("e", "zz"), Bracketing.canonical(2), Bracketing.canonical(2))


def test_chain_value_of_an_empty_chain(sign):
    assert chain_value(sign, (), "pt") == sign.id1["pt"]
    with pytest.raises(PathMismatch, match="an empty chain needs an anchor object"):
        chain_value(sign, ())


# -- universality ----------------------------------------------------------------


def test_universal_1cell_of_an_unknown_1cell(sign_op, z2_op):
    with pytest.raises(DanglingId, match="unknown 1-cell 'zz'"):
        is_universal_1cell(sign_op[0], "zz")
    with pytest.raises(DanglingId, match="unknown 1-cell 'zz'"):
        is_universal_1cell_op1(z2_op, "zz")


# -- equivalences ----------------------------------------------------------------


def test_to_bicategory_needs_bound_three(sign):
    X, b = from_bicategory(sign, 2)
    with pytest.raises(ArityBoundExceeded, match="at least 3"):
        to_bicategory(X, b)


def _rename_two_cell(B: FiniteBicategory, old: str, new: str) -> FiniteBicategory:
    def r(cell: str) -> str:
        return new if cell == old else cell

    return FiniteBicategory(
        objects=B.objects,
        one_cells=B.one_cells,
        two_cells={r(a): frame for a, frame in B.two_cells.items()},
        id2={f: r(a) for f, a in B.id2.items()},
        vcomp={(r(b), r(a)): r(c) for (b, a), c in B.vcomp.items()},
        id1=B.id1,
        hcomp1=B.hcomp1,
        hcomp2={(r(b), r(a)): r(c) for (b, a), c in B.hcomp2.items()},
        assoc={key: r(a) for key, a in B.assoc.items()},
        lunit={f: r(a) for f, a in B.lunit.items()},
        runit={f: r(a) for f, a in B.runit.items()},
    )


def test_generated_id_collision(sign):
    # a valid bicategory whose 2-cell already bears a generated cell's name
    B = _rename_two_cell(sign, "ne", "e;e|1e")
    assert validate_bicategory(B).ok
    with pytest.raises(InvalidInput, match=r"generated cell id collision at 'e;e\|1e'"):
        from_bicategory(B)


# -- serialize, errors, cli ------------------------------------------------------


def test_unknown_kinds():
    with pytest.raises(UnknownKind, match="cannot serialise object"):
        serialize.to_doc(object())
    with pytest.raises(UnknownKind, match="unknown kind 'zz'"):
        serialize.from_doc({"kind": "zz"})


def test_empty_report_reads_ok():
    assert str(ValidationReport()) == "ok"


def test_doc_diff_names_keys_on_one_side_only():
    original = {"a": 1, "b": {"c": 1}}
    result = {"b": {"d": 2}, "e": 3}
    assert _doc_diff(original, result) == [
        "a: only in original", "b.c: only in original", "b.d: only in result", "e: only in result",
    ]
