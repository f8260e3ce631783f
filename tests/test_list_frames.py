"""A frame is judged by its endpoints, not by its container.

The public constructors accept frames in any sequence, while documents
always give tuples.  So every classical validator and every morphism check
or translation gives, on structures whose frames are lists, the outcome (the
report, the result or the exception) it gives on the same structures with
tuple frames: on a valid input and on one with a misframed entry.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from opetokit import (
    CatFunctor,
    FiniteBicategory,
    FiniteCategory,
    FiniteOpOneCat,
    FiniteOpTwoCat,
    OpMorphism,
    classify_morphism,
    from_bicategory,
    from_category,
    functor_from_morphism,
    lax_functor_from_morphism,
    morphism_from_lax_functor,
    validate_bicategory,
    validate_category,
    validate_functor,
    validate_lax_functor,
    validate_op_morphism,
)
from opetokit.fixtures import arrow_bicategory, identity_lax_functor
from test_op2_oracle import _outcome

FRAME_TABLES = {
    FiniteCategory: ("arrows",),
    FiniteBicategory: ("one_cells", "two_cells"),
    FiniteOpOneCat: ("cells1",),
    FiniteOpTwoCat: ("cells1",),
}


def _listed(arg):
    """``arg`` with each frame of its frame tables held in a list."""
    tables = FRAME_TABLES.get(type(arg))
    if tables is None:  # a morphism or a biasing
        return arg
    return dataclasses.replace(
        arg, **{t: {x: list(ends) for x, ends in getattr(arg, t).items()} for t in tables}
    )


def _misframed(structure, table: str, key, value):
    """``structure`` with ``table[key]`` set to ``value``."""
    return dataclasses.replace(structure, **{table: {**getattr(structure, table), key: value}})


@functools.cache
def _cases() -> dict:
    """Per entry point: (the function, its valid arguments, arguments with
    one misframed entry)."""
    C = FiniteCategory(
        objects=("A", "B"),
        arrows={"idA": ("A", "A"), "idB": ("B", "B"), "u": ("A", "B")},
        identities={"A": "idA", "B": "idB"},
        compose={("idA", "idA"): "idA", ("idB", "idB"): "idB", ("u", "idA"): "u", ("idB", "u"): "u"},
    )
    X1 = from_category(C, 3)
    functor = CatFunctor({"A": "A", "B": "B"}, {f: f for f in C.arrows})
    F1 = OpMorphism({"A": "A", "B": "B"}, {f: f for f in C.arrows})
    B = arrow_bicategory()
    X, b = from_bicategory(B, 3)
    G = identity_lax_functor(B)
    F = morphism_from_lax_functor(G, B, B, 3)
    # u: A -> B and k: A -> B sent to the identity on A; a composite from A
    # to B that is the identity on B; a0 after 1k typed as the identity on k2
    bad_functor = _misframed(functor, "on_arrows", "u", "idA")
    bad_F1 = _misframed(F1, "on_one_cells", "u", "idA")
    bad_G = _misframed(G, "on_one_cells", "k", "iA")
    bad_F = _misframed(F, "on_one_cells", "k", "iA")
    return {
        "validate_category": (validate_category, (C,), (_misframed(C, "compose", ("idB", "u"), "idB"),)),
        "validate_functor": (validate_functor, (functor, C, C), (bad_functor, C, C)),
        "functor_from_morphism": (functor_from_morphism, (F1, X1, X1), (bad_F1, X1, X1)),
        "validate_bicategory": (validate_bicategory, (B,), (_misframed(B, "vcomp", ("a0", "1k"), "1k2"),)),
        "validate_lax_functor": (validate_lax_functor, (G, B, B), (bad_G, B, B)),
        "morphism_from_lax_functor": (morphism_from_lax_functor, (G, B, B), (bad_G, B, B)),
        "validate_op_morphism": (validate_op_morphism, (F, X, X), (bad_F, X, X)),
        "lax_functor_from_morphism": (lax_functor_from_morphism, (F, X, X, b, b), (bad_F, X, X, b, b)),
        "classify_morphism": (classify_morphism, (F, X, X, b, b), (bad_F, X, X, b, b)),
    }


@pytest.mark.parametrize("name", list(_cases()))
def test_list_frames_give_the_tuple_framed_outcome(name):
    fn, valid, misframed = _cases()[name]
    outcomes = [_outcome(fn, *args) for args in (valid, misframed)]
    assert outcomes[0] != outcomes[1]  # the misframed entry is seen
    for args, outcome in zip((valid, misframed), outcomes):
        assert _outcome(fn, *(_listed(arg) for arg in args)) == outcome
