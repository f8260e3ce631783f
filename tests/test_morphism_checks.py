"""Morphism checks: one structural check per kind, and the translations.

- ``validate_lax_functor`` equals its oracle in ``classical_oracles``, rule,
  witness, message and order, on seeded single-entry corruptions of four lax
  functors, and ``morphism_from_lax_functor`` raises ``InvalidInput`` exactly
  when that report breaks a ``totality``, ``frame`` or ``hom functor`` rule;
  every functor the translation's old hand-written check rejected is still
  rejected.
- Translating a composite of lax functors equals composing the translated
  morphisms, and translating back gives the composite.
- The ``check=True`` translations raise only ``InvalidInput`` or
  ``InvalidBiasing`` on corrupted input, never a bare lookup error; so do
  ``validate_lax_functor`` and ``morphism_from_lax_functor`` when a
  bicategory is not valid.
- A change of biasing is a weak functor that is not strict: the identity
  morphism between the generated biasing of ``sign`` at bound 4 and each of
  its other 31 universal biasings, in both directions, classifies ``weak``
  and translates to a valid lax functor whose constraints are invertible.
  So does the identity morphism between two of the other biasings, on a
  seeded sample of pairs, and it is ``strict`` when the two are one.
- The morphism validators report a map entry keyed by no cell of the source
  as ``dangling id``, and the ``check=True`` translations reject it with
  that report; a constraint for a non-composable pair is ``frame``;
  ``functor_from_morphism`` names a missing row on either side.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import re
from collections import Counter

import pytest

import classical_oracles as old
import opetokit.equivalences as eq
from opetokit import (
    Biasing,
    CatFunctor,
    InvalidBiasing,
    InvalidInput,
    LaxFunctor,
    OpMorphism,
    classify_morphism,
    from_bicategory,
    from_category,
    functor_from_morphism,
    is_invertible_2cell,
    is_universal_2cell,
    lax_functor_from_morphism,
    morphism_from_lax_functor,
    to_bicategory,
    validate_bicategory,
    validate_functor,
    validate_lax_functor,
    validate_op_morphism,
)
from opetokit.fixtures import (
    absorbing_constraint_functor,
    arrow_bicategory,
    identity_lax_functor,
    sign_bicategory,
    sign_twisted_endofunctor,
    small_category_family,
    z2_category,
)

STRUCTURAL = {"totality", "frame", "hom functor"}
SAMPLED_PAIRS, SAMPLED_DIAGONAL = 400, 16  # changes of biasing between two other biasings


def _collapse(sign) -> LaxFunctor:
    """The hom collapse of the sign bicategory onto the idempotent one, with
    the absorbing constraint on (s, s): a lax functor that is not strict."""
    return LaxFunctor(
        on_objects={"pt": "pt"},
        on_one_cells={"e": "i", "s": "i"},
        on_two_cells={a: "1" for a in sign.two_cells},
        phi_pair={**{pair: "1" for pair in sign.hcomp1}, ("s", "s"): "t"},
        phi_obj={"pt": "1"},
    )


@pytest.fixture(scope="module")
def functors(sign, sign_op, idem, idem_op, terminal, terminal_op):
    """(functor, source, target, and their generated presentations) for the
    four lax functors."""
    return [
        (identity_lax_functor(sign), sign, sign, sign_op, sign_op),
        (sign_twisted_endofunctor(), sign, sign, sign_op, sign_op),
        (_collapse(sign), sign, idem, sign_op, idem_op),
        (absorbing_constraint_functor(), terminal, idem, terminal_op, idem_op),
    ]


def _corrupt(tables: dict, ids_of: dict, rng: random.Random) -> dict:
    """One entry of one table dropped, sent to an unknown id, or sent to
    another id of the target; ``ids_of`` names the target's ids per table."""
    name = rng.choice(sorted(tables))
    table = dict(tables[name])
    key = rng.choice(sorted(table))
    how = rng.choice(("drop", "unknown", "other"))
    if how == "drop":
        del table[key]
    elif how == "unknown":
        table[key] = "nowhere"
    else:
        table[key] = rng.choice(sorted(set(ids_of[name]) - {table[key]}) or ["nowhere"])
    return {**tables, name: table}


def _corrupt_lax(G: LaxFunctor, B2, rng: random.Random) -> LaxFunctor:
    ids_of = {
        "on_objects": B2.objects,
        "on_one_cells": B2.one_cells,
        "on_two_cells": B2.two_cells,
        "phi_pair": B2.two_cells,
        "phi_obj": B2.two_cells,
    }
    return LaxFunctor(**_corrupt(dataclasses.asdict(G), ids_of, rng))


def _corrupt_op(F: OpMorphism, Y, rng: random.Random) -> OpMorphism:
    """As ``_corrupt_lax``; a 1-dimensional ``Y`` has no 2-cell table."""
    ids_of = {"on_objects": Y.objects, "on_one_cells": Y.cells1, "on_two_cells": getattr(Y, "cells2", ())}
    tables = {name: table for name, table in dataclasses.asdict(F).items() if table}
    return OpMorphism(**_corrupt(tables, ids_of, rng))


def _raises(call, errors=InvalidInput) -> bool:
    try:
        call()
    except errors:
        return True
    return False


# -- one structural check for lax functors ---------------------------------------


def test_lax_functor_checks_agree_with_the_oracles(functors):
    counts = {"rejected": 0, "translated": 0, "escaped the old check": 0}
    for seed in range(400):
        rng = random.Random(seed)
        G, B, B2, _, _ = functors[seed % len(functors)]
        H = _corrupt_lax(G, B2, rng)
        report = validate_lax_functor(H, B, B2)
        assert report == old.validate_lax_functor(H, B, B2), seed
        rejected = _raises(lambda: morphism_from_lax_functor(H, B, B2))
        assert rejected == bool(report.rules() & STRUCTURAL), (seed, str(report))
        old_rejected = _raises(lambda: old.morphism_from_lax_functor_check(H, B, B2))
        assert rejected or not old_rejected, seed
        counts["rejected" if rejected else "translated"] += 1
        counts["escaped the old check"] += rejected and not old_rejected
    # the corruptions reach both outcomes, and some structurally broken
    # functors got past the old check
    assert min(counts.values()) > 0, counts


# -- functoriality of the translation --------------------------------------------


def _compose_lax(H: LaxFunctor, G: LaxFunctor, B2) -> LaxFunctor:
    """H after G, where H lands in ``B2``: level maps compose, and each
    constraint is H's constraint on G's images followed by H of G's."""
    return LaxFunctor(
        on_objects={a: H.on_objects[x] for a, x in G.on_objects.items()},
        on_one_cells={f: H.on_one_cells[x] for f, x in G.on_one_cells.items()},
        on_two_cells={a: H.on_two_cells[x] for a, x in G.on_two_cells.items()},
        phi_pair={
            (g, f): B2.then2(
                H.phi_pair[(G.on_one_cells[g], G.on_one_cells[f])], H.on_two_cells[p]
            )
            for (g, f), p in G.phi_pair.items()
        },
        phi_obj={
            a: B2.then2(H.phi_obj[G.on_objects[a]], H.on_two_cells[p])
            for a, p in G.phi_obj.items()
        },
    )


def _compose_op(F2: OpMorphism, F1: OpMorphism) -> OpMorphism:
    """F2 after F1, level by level."""
    return OpMorphism(
        {a: F2.on_objects[x] for a, x in F1.on_objects.items()},
        {f: F2.on_one_cells[x] for f, x in F1.on_one_cells.items()},
        {c: F2.on_two_cells[x] for c, x in F1.on_two_cells.items()},
    )


@pytest.mark.parametrize(
    "outer, inner",
    [
        ("twisted", "twisted"),
        ("twisted", "identity"),
        ("identity", "twisted"),
        ("collapse", "twisted"),
        ("idem identity", "collapse"),
        ("collapse", "identity"),
    ],
)
def test_translation_preserves_composites(sign, sign_op, idem, idem_op, outer, inner):
    made = {  # name: (lax functor, source, target)
        "identity": (identity_lax_functor(sign), "sign", "sign"),
        "twisted": (sign_twisted_endofunctor(), "sign", "sign"),
        "collapse": (_collapse(sign), "sign", "idem"),
        "idem identity": (identity_lax_functor(idem), "idem", "idem"),
    }
    bicategories = {"sign": (sign, sign_op), "idem": (idem, idem_op)}
    H, middle, last = made[outer]
    G, first, middle_again = made[inner]
    assert middle == middle_again
    (B, (X, b)), (B1, _), (B2, (X2, b2)) = (bicategories[n] for n in (first, middle, last))
    HG = _compose_lax(H, G, B2)
    assert validate_lax_functor(HG, B, B2).ok
    F = morphism_from_lax_functor(HG, B, B2)
    assert F == _compose_op(morphism_from_lax_functor(H, B1, B2), morphism_from_lax_functor(G, B, B1))
    assert lax_functor_from_morphism(F, X, X2, b, b2) == HG


# -- the translations raise domain errors only -------------------------------------


def test_op1_translation_raises_domain_errors_only():
    categories = [z2_category(), *small_category_family()[::97]]
    outcomes = set()
    for seed in range(200):
        rng = random.Random(seed)
        C = categories[seed % len(categories)]
        X, Y = from_category(C, rng.randint(2, 4)), from_category(C, rng.randint(2, 4))
        identity = OpMorphism({a: a for a in C.objects}, {f: f for f in C.arrows})
        F = _corrupt_op(identity, Y, rng) if rng.random() < 0.8 else identity
        outcomes.add(_raises(lambda: functor_from_morphism(F, X, Y)))
    assert outcomes == {True, False}


def test_op2_translations_raise_domain_errors_only(functors):
    outcomes = set()
    for seed in range(200):
        rng = random.Random(seed)
        G, B, B2, (X, b), (X2, b2) = functors[seed % len(functors)]
        outcomes.add(_raises(lambda: morphism_from_lax_functor(_corrupt_lax(G, B2, rng), B, B2)))
        F = _corrupt_op(morphism_from_lax_functor(G, B, B2), X2, rng)
        for translate in (lax_functor_from_morphism, classify_morphism):
            outcomes.add(_raises(lambda: translate(F, X, X2, b, b2), (InvalidInput, InvalidBiasing)))
    assert outcomes == {True, False}


@pytest.mark.parametrize("broken", ["source", "target", "both"])
def test_an_invalid_bicategory_is_a_domain_error(sign, broken):
    # the 1-cell s without its identity 2-cell: the functor's own rules would
    # look that identity up, so both calls check the bicategories first
    bad = dataclasses.replace(sign, id2={"e": "1e"})
    B = sign if broken == "target" else bad
    B2 = sign if broken == "source" else bad
    expected = str(validate_bicategory(bad))
    for call in (validate_lax_functor, morphism_from_lax_functor):
        with pytest.raises(InvalidInput) as info:
            call(identity_lax_functor(sign), B, B2)
        assert str(info.value) == expected, call.__name__


# -- entries outside the source's domain -------------------------------------------


def _violations(report) -> list[tuple]:
    return [(v.rule, v.witness, v.message) for v in report.violations]


@pytest.mark.parametrize("base, table, entry, expected", [
    ("sign", "on_objects", ("zz", "pt"), ("dangling id", ("zz",), "on_objects entry for an unknown object")),
    ("sign", "on_one_cells", ("zz", "e"),
     ("dangling id", ("zz",), "on_one_cells entry for an unknown 1-cell")),
    ("sign", "on_two_cells", ("zz", "1e"),
     ("dangling id", ("zz",), "on_two_cells entry for an unknown 2-cell")),
    ("sign", "phi_pair", (("zz", "e"), "1e"),
     ("dangling id", ("zz", "e"), "phi_pair entry for an unknown 1-cell")),
    ("arrow", "phi_pair", (("k", "k"), "1k"), ("frame", ("k", "k"), "phi_pair entry for a non-composable pair")),
    ("sign", "phi_obj", ("zz", "1e"), ("dangling id", ("zz",), "phi_obj entry for an unknown object")),
], ids=["object", "1-cell", "2-cell", "pair of an unknown 1-cell", "non-composable pair", "object constraint"])
def test_lax_functor_entries_outside_the_source_are_reported(base, table, entry, expected):
    B = sign_bicategory() if base == "sign" else arrow_bicategory()
    G = identity_lax_functor(B)
    assert validate_lax_functor(G, B, B).ok
    key, value = entry
    H = dataclasses.replace(G, **{table: {**getattr(G, table), key: value}})
    assert _violations(validate_lax_functor(H, B, B)) == [expected]
    with pytest.raises(InvalidInput):
        morphism_from_lax_functor(H, B, B)


def test_functor_entries_outside_the_source_are_reported(z2cat):
    F = CatFunctor({"o": "o"}, {"e": "e", "s": "s"})
    extra = CatFunctor({"o": "o", "zz": "o"}, {"zz": "e", "e": "e", "s": "s"})
    assert validate_functor(F, z2cat, z2cat).ok
    assert _violations(validate_functor(extra, z2cat, z2cat)) == [
        ("dangling id", ("zz",), "on_objects entry for an unknown object"),
        ("dangling id", ("zz",), "on_arrows entry for an unknown arrow"),
    ]


def test_op_morphism_entries_outside_the_source_are_reported(sign, sign_op):
    X = sign_op[0]
    F = morphism_from_lax_functor(identity_lax_functor(sign), sign, sign)
    assert validate_op_morphism(F, X, X).ok
    extra = OpMorphism({**F.on_objects, "zz": "pt"}, {**F.on_one_cells, "zy": "e"},
                       {"zx": "1e", **F.on_two_cells})
    assert _violations(validate_op_morphism(extra, X, X)) == [
        ("dangling id", ("zz",), "on_objects entry for an unknown object"),
        ("dangling id", ("zy",), "on_one_cells entry for an unknown 1-cell"),
        ("dangling id", ("zx",), "on_two_cells entry for an unknown 2-cell"),
    ]
    # the checked translations reject the same entries, one map at a time
    b = sign_op[1]
    X1, F1 = from_category(z2_category(), 3), OpMorphism({"o": "o"}, {"e": "e", "s": "s"})
    assert classify_morphism(F, X, X, b, b).verdict == "strict"
    assert functor_from_morphism(F1, X1, X1) == CatFunctor({"o": "o"}, {"e": "e", "s": "s"})
    translations = ((lax_functor_from_morphism, F, (X, X, b, b)),
                    (classify_morphism, F, (X, X, b, b)),
                    (functor_from_morphism, F1, (X1, X1)))
    for table, value, what in (("on_objects", "pt", "object"), ("on_one_cells", "e", "1-cell"),
                               ("on_two_cells", "1e", "2-cell")):
        expected = re.escape(f"dangling id: ('zz',): {table} entry for an unknown {what}")
        for translate, base, args in translations:
            one = dataclasses.replace(base, **{table: {**getattr(base, table), "zz": value}})
            with pytest.raises(InvalidInput, match=f"^{expected}$"):
                translate(one, *args)


@pytest.mark.parametrize("side", ["source", "target"])
def test_functor_from_morphism_names_a_missing_row(side):
    X = from_category(z2_category(), 3)
    F = OpMorphism({"o": "o"}, {"e": "e", "s": "s"})
    assert functor_from_morphism(F, X, X) == CatFunctor({"o": "o"}, {"e": "e", "s": "s"})
    dropped = dataclasses.replace(X, comp={k: v for k, v in X.comp.items() if k != (1, "e", "e", "e")})
    expected = {"source": "source has no valid composite for (1, 'e', 'e', 'e')",
                "target": "composition not preserved on (1, 'e', 'e', 'e')"}[side]
    with pytest.raises(InvalidInput, match=r"^" + re.escape(expected) + "$"):
        functor_from_morphism(F, *((dropped, X) if side == "source" else (X, dropped)))


def _universal_biasings(X):
    """Every biasing of X that chooses a universal occupant in each niche."""
    niches = [(kind, place, [c for c in occupants if is_universal_2cell(X, c)])
              for kind, _, place, occupants in eq._biased_niches(X, Biasing({}, {}))]
    for cells in itertools.product(*(universal for _, _, universal in niches)):
        b = Biasing({}, {})
        for (kind, place, _), cell in zip(niches, cells):
            (b.iota if kind == "nullary" else b.c)[place] = cell
        yield b


def _changes_of_biasing(X, biasings, pairs) -> Counter:
    """The verdicts of the identity morphism of ``X`` from ``biasings[i]`` to
    ``biasings[j]``, for each pair (i, j) of ``pairs``.

    Each is ``strict`` exactly when the two biasings are equal and ``weak``
    otherwise, and translates to a lax functor between the two
    ``to_bicategory`` images that validates and whose constraints are
    invertible.
    """
    F = OpMorphism({a: a for a in X.objects}, {f: f for f in X.cells1}, {c: c for c in X.cells2})
    images, verdicts = {}, Counter()
    for i, j in pairs:
        for k in (i, j):
            if k not in images:
                images[k] = to_bicategory(X, biasings[k])
        (b1, B1), (b2, B2) = (biasings[i], images[i]), (biasings[j], images[j])
        verdict = classify_morphism(F, X, X, b1, b2).verdict
        assert verdict == ("strict" if b1 == b2 else "weak"), (i, j)
        G = lax_functor_from_morphism(F, X, X, b1, b2)
        assert validate_lax_functor(G, B1, B2).ok, (i, j)
        assert all(map(is_invertible_2cell, itertools.repeat(B2),
                       [*G.phi_pair.values(), *G.phi_obj.values()])), (i, j)
        verdicts[verdict] += 1
    return verdicts


def _sign_biasings():
    """``from_bicategory(sign_bicategory(), 4)``, its 32 universal biasings
    and the position of the generated one among them."""
    X, generated = from_bicategory(sign_bicategory(), 4)
    biasings = list(_universal_biasings(X))
    return X, biasings, biasings.index(generated)


def test_a_change_of_biasing_is_weak_and_not_strict():
    # the identity morphism from the generated biasing to another one, and
    # back, preserves universality but not the choices
    X, biasings, g = _sign_biasings()
    pairs = [pair for k in range(len(biasings)) for pair in ((g, k), (k, g))]
    assert _changes_of_biasing(X, biasings, pairs) == Counter(strict=2, weak=62)


def test_a_change_between_two_other_biasings_is_weak_and_not_strict():
    # a seeded sample of pairs of biasings, neither of them the generated
    # one; ``python tests/test_morphism_checks.py`` runs all 1,024 pairs
    X, biasings, g = _sign_biasings()
    others = [k for k in range(len(biasings)) if k != g]
    rng = random.Random(5)
    pairs = [tuple(rng.sample(others, 2)) for _ in range(SAMPLED_PAIRS)]
    pairs += [(k, k) for k in rng.sample(others, SAMPLED_DIAGONAL)]
    assert _changes_of_biasing(X, biasings, pairs) == Counter(
        strict=SAMPLED_DIAGONAL, weak=SAMPLED_PAIRS)


if __name__ == "__main__":  # every pair of the 32 universal biasings of sign at bound 4
    import time

    start = time.perf_counter()
    X, biasings, _ = _sign_biasings()
    everything = list(itertools.product(range(len(biasings)), repeat=2))
    verdicts = _changes_of_biasing(X, biasings, everything)
    print(f"{len(everything)} pairs in {time.perf_counter() - start:.1f} s: {dict(verdicts)}")
