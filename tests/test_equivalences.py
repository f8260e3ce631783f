"""Conversions in both directions, morphism translation, classification."""

from __future__ import annotations

import dataclasses
import itertools
import random
import re

import pytest

from opetokit import (
    ArityBoundExceeded,
    Bracketing,
    CatFunctor,
    InvalidBiasing,
    InvalidInput,
    NonUniqueSolution,
    NoSolution,
    NoUniversalOccupant,
    OpMorphism,
    TwoCellTree,
    all_bracketings,
    check_coherence,
    choose_biasing,
    classify_morphism,
    coherence_cell,
    composite_of_tree,
    empty_path,
    from_bicategory,
    from_category,
    from_set,
    functor_from_morphism,
    graft,
    is_invertible_2cell,
    lax_functor_from_morphism,
    morphism_from_lax_functor,
    occupants_of_niche,
    path,
    to_bicategory,
    to_category,
    to_set,
    validate_functor,
    validate_lax_functor,
    validate_op2,
    validate_op_morphism,
)
from opetokit import serialize
from opetokit.core import FiniteOpOneCat, FiniteOpZeroCat, TwoCell
import opetokit.equivalences as eq
from opetokit.fixtures import (
    absorbing_constraint_functor,
    identity_lax_functor,
    sign_twisted_endofunctor,
    small_category_family,
)


# -- dimension 0 ---------------------------------------------------------------


def test_set_round_trip():
    S = ("x", "y", "z")
    Z = from_set(S)
    assert to_set(Z) == S
    assert sorted(Z.cells1.values()) == [("x", "x"), ("y", "y"), ("z", "z")]
    assert to_set(from_set(())) == ()


def test_set_validation_failure():
    bad = FiniteOpZeroCat(("x",), {"f": ("x", "x"), "g": ("x", "x")})
    with pytest.raises(InvalidInput):
        to_set(bad)


# -- dimension 1 ---------------------------------------------------------------


def test_category_round_trip_on_group(z2cat, z2_op):
    assert to_category(z2_op) == z2cat
    assert z2_op.comp[path("s", "s").key()] == "e"
    assert z2_op.comp[empty_path("o").key()] == "e"


def test_op1_round_trip(z2cat, z2_op):
    # rebuilding the table from the read-off category recovers it exactly
    assert from_category(to_category(z2_op), z2_op.arity_bound) == z2_op


def test_single_loop_gives_terminal_category():
    X = FiniteOpOneCat(
        objects=("o",),
        cells1={"l": ("o", "o")},
        comp={empty_path("o").key(): "l", **{(1,) + ("l",) * n: "l" for n in (1, 2, 3, 4)}},
    )
    C = to_category(X)
    assert C.objects == ("o",)
    assert C.arrows == {"l": ("o", "o")}
    assert C.compose == {("l", "l"): "l"}


def test_to_category_rejects_invalid(z2_op):
    broken = dataclasses.replace(z2_op, comp={**z2_op.comp, path("s").key(): "e"})
    with pytest.raises(InvalidInput):
        to_category(broken)


def test_category_conversion_rejects_a_negative_bound(z2cat):
    with pytest.raises(ArityBoundExceeded, match="must not be negative, got -1"):
        from_category(z2cat, -1)
    # the bound is checked before the category is validated
    with pytest.raises(ArityBoundExceeded):
        from_category(dataclasses.replace(z2cat, compose={}), -1)
    # the smallest accepted bound still survives the document round trip
    X = from_category(z2cat, 0)
    assert serialize.from_doc(serialize.loads(serialize.dumps(serialize.to_doc(X)))) == X


def test_category_round_trip_over_family():
    for C in small_category_family():
        assert to_category(from_category(C)) == C


def test_identity_morphism_gives_identity_functor(z2_op):
    F = OpMorphism({"o": "o"}, {"e": "e", "s": "s"})
    G = functor_from_morphism(F, z2_op, z2_op)
    assert G.on_objects == {"o": "o"}
    assert G.on_arrows == {"e": "e", "s": "s"}


def test_composition_breaking_morphism_rejected(z2_op):
    # swapping e and s maps the identity loop to a non-identity: composition
    # with the empty path is not preserved
    F = OpMorphism({"o": "o"}, {"e": "s", "s": "e"})
    with pytest.raises(InvalidInput):
        functor_from_morphism(F, z2_op, z2_op)


def test_frame_breaking_morphism_rejected():
    # collapsing both objects while keeping a crossing 1-cell breaks its frame
    from opetokit import FiniteCategory

    iso = FiniteCategory(
        objects=("A", "B"),
        arrows={"1A": ("A", "A"), "1B": ("B", "B"), "u": ("A", "B"), "w": ("B", "A")},
        identities={"A": "1A", "B": "1B"},
        compose={
            ("1A", "1A"): "1A", ("1B", "1B"): "1B",
            ("u", "1A"): "u", ("1B", "u"): "u",
            ("w", "1B"): "w", ("1A", "w"): "w",
            ("w", "u"): "1A", ("u", "w"): "1B",
        },
    )
    X = from_category(iso)
    F = OpMorphism(
        {"A": "A", "B": "A"}, {"1A": "1A", "1B": "1A", "u": "u", "w": "w"}
    )
    with pytest.raises(InvalidInput):
        functor_from_morphism(F, X, X)


def test_functor_into_a_lower_bound_rejected(z2cat):
    # the bound-2 target has no composites for the source's paths of arity 3
    F = OpMorphism({"o": "o"}, {"e": "e", "s": "s"})
    with pytest.raises(InvalidInput, match=re.escape("composition not preserved on (1, 'e', 'e', 'e')")):
        functor_from_morphism(F, from_category(z2cat, 4), from_category(z2cat, 2))


def _candidate_functor(C, D, rng):
    """A seeded candidate functor C -> D: the identity when C is D, otherwise
    a random object map with each arrow sent to a random arrow of the right
    frame where one exists; then, one time in three, one entry redirected
    to a random arrow or object."""
    if C is D:
        F0, F1 = {a: a for a in C.objects}, {f: f for f in C.arrows}
    else:
        F0 = {a: rng.choice(D.objects) for a in C.objects}
        F1 = {}
        for f, (s, t) in C.arrows.items():
            framed = [g for g, frame in D.arrows.items() if frame == (F0[s], F0[t])]
            F1[f] = rng.choice(framed or sorted(D.arrows))
    if rng.random() < 1 / 3:
        if rng.random() < 0.5:
            F1[rng.choice(sorted(F1))] = rng.choice(sorted(D.arrows))
        else:
            F0[rng.choice(sorted(F0))] = rng.choice(D.objects)
    return F0, F1


def test_validate_functor_agrees_with_functor_from_morphism():
    # a functor is exactly a morphism of the composition tables
    family = small_category_family()
    presented = {}
    verdicts = []
    for seed in range(300):
        rng = random.Random(seed)
        i = rng.randrange(len(family))
        j = i if seed % 3 == 0 else rng.randrange(len(family))
        C, D = family[i], family[j]
        F0, F1 = _candidate_functor(C, D, rng)
        for k in (i, j):
            if k not in presented:
                presented[k] = from_category(family[k])
        ok = validate_functor(CatFunctor(F0, F1), C, D).ok
        try:
            functor_from_morphism(OpMorphism(F0, F1), presented[i], presented[j])
        except InvalidInput:
            translated = False
        else:
            translated = True
        assert ok == translated, seed
        verdicts.append((ok, C is D))
    assert set(verdicts) == {(True, True), (True, False), (False, True), (False, False)}


# -- biasing -------------------------------------------------------------------


def test_choose_biasing_matches_generated(sign_op, idem_op):
    for X, b in (sign_op, idem_op):
        assert choose_biasing(X) == b
        assert choose_biasing(X) == choose_biasing(X)


def test_choose_biasing_tie_break_is_least_id(sign_op):
    X, _ = sign_op
    b = choose_biasing(X)
    # the nullary niche has two universal occupants; the least id wins
    occupants = sorted(occupants_of_niche(X, empty_path("pt")))
    assert b.iota["pt"] == occupants[0]


def _without_cell(X, cid):
    cells2 = {k: v for k, v in X.cells2.items() if k != cid}
    table = {k: r for k, r in X.graft.items() if cid not in (k[0], k[2], r)}
    return dataclasses.replace(X, cells2=cells2, graft=table)


def test_choose_biasing_without_universal_occupant(idem_op):
    X, _ = idem_op
    with pytest.raises(NoUniversalOccupant):
        choose_biasing(_without_cell(X, "@pt|1"))


def test_solver_error_types(idem_op):
    # with checking off, a doctored grafting table surfaces as a failed or
    # ambiguous unique-factorisation solve
    X, b = idem_op
    c = b.c[("i", "i")]
    no_solution = dataclasses.replace(X, graft={**X.graft, ("1", 0, c): "i;i|t"})
    with pytest.raises(NoSolution):
        to_bicategory(no_solution, b, check=False)
    two_solutions = dataclasses.replace(X, graft={**X.graft, ("t", 0, c): "i;i|1"})
    with pytest.raises(NonUniqueSolution):
        to_bicategory(two_solutions, b, check=False)


def test_to_bicategory_rejects_bad_biasing(idem_op):
    X, b = idem_op
    bad = eq.Biasing({"pt": "@pt|t"}, dict(b.c))
    with pytest.raises(InvalidBiasing):
        to_bicategory(X, bad)


# -- dimension 2 round trips -----------------------------------------------------


def test_bicategory_round_trips(sign, sign_op, idem, idem_op, arrow, arrow_op, terminal, terminal_op):
    for B, (X, b) in ((sign, sign_op), (idem, idem_op), (arrow, arrow_op), (terminal, terminal_op)):
        assert to_bicategory(X, b) == B


def test_terminal_structure_is_terminal(terminal_op):
    X, _ = terminal_op
    assert len(X.objects) == 1 and len(X.cells1) == 1
    # one occupant per niche
    seen = {}
    for cell in X.cells2.values():
        seen.setdefault(cell.source.key(), []).append(cell.id)
    assert all(len(v) == 1 for v in seen.values())


def test_identity_horizontal_composites(sign_op, idem_op, arrow_op):
    for X, b in (sign_op, idem_op, arrow_op):
        B2 = to_bicategory(X, b)
        for (g, f) in B2.hcomp1:
            assert B2.beside2(B2.id2[g], B2.id2[f]) == B2.id2[B2.beside1(g, f)]


def test_generated_binary_niche_occupants(sign_op):
    X, _ = sign_op
    assert occupants_of_niche(X, path("s", "s")) == {"s;s|1e", "s;s|ne"}


def test_generated_nullary_occupants_idem(idem_op):
    X, _ = idem_op
    occupants = occupants_of_niche(X, empty_path("pt"))
    assert occupants == {"@pt|1", "@pt|t"}
    universal = {c for c in occupants if c in check_coherence(X).universal_two_cells}
    assert universal == {"@pt|1"}


def test_generated_round_trip_from_e_and_back(sign, sign_op):
    X, b = sign_op
    regenerated, b2 = from_bicategory(to_bicategory(X, b), X.arity_bound)
    assert regenerated == X
    assert b2 == b


def _chosen_tree(B, b, bracketing, edges):
    def build(t, lo):
        if t.is_leaf:
            return None, edges[lo], lo + 1
        lt, lv, mid = build(t.left, lo)
        rt, rv, hi = build(t.right, mid)
        return TwoCellTree(b.c[(lv, rv)], (lt, rt)), B.beside1(rv, lv), hi

    tree, _, _ = build(bracketing, 0)
    return tree


def test_bracketed_occupants_renormalise_through_coherence_cells(sign, sign_op):
    # composites of chosen binary occupants are the canonical cells labelled
    # by coherence cells, and reassociation 1-cells carry one canonical
    # occupant to another
    X, b = sign_op
    gen = eq._generate(sign, 4)
    for m in (2, 3, 4):
        brackets = list(all_bracketings(m))
        head_first = Bracketing.canonical(m)
        for edges in itertools.product(("e", "s"), repeat=m):
            u = {}
            for g in brackets:
                u[g] = composite_of_tree(X, _chosen_tree(sign, b, g, edges))
                expected = gen.cell_of[
                    (path(*edges).key(), coherence_cell(sign, edges, head_first, g))
                ]
                assert u[g] == expected
            for g1, g2 in itertools.product(brackets, repeat=2):
                connector = coherence_cell(sign, edges, g1, g2)
                assert graft(X, connector, 0, u[g1]) == u[g2]


def test_from_bicategory_validates_and_coheres(sign_op, idem_op, arrow_op):
    for X, _ in (sign_op, idem_op, arrow_op):
        assert validate_op2(X).ok
        assert check_coherence(X).ok


def test_from_bicategory_rejects_invalid():
    from opetokit.fixtures import sign_bicategory_broken_pentagon

    with pytest.raises(InvalidInput):
        from_bicategory(sign_bicategory_broken_pentagon())


def test_smaller_arity_bound_round_trip(sign):
    X, b = from_bicategory(sign, 3)
    assert validate_op2(X).ok
    assert to_bicategory(X, b) == sign


# -- morphisms -------------------------------------------------------------------


def test_identity_morphism_round_trip(sign, sign_op):
    X, b = sign_op
    G = identity_lax_functor(sign)
    F = morphism_from_lax_functor(G, sign, sign)
    assert validate_op_morphism(F, X, X).ok
    assert lax_functor_from_morphism(F, X, X, b, b) == G
    assert classify_morphism(F, X, X, b, b).verdict == "strict"


def test_sign_twisted_morphism_is_weak(sign, sign_op):
    X, b = sign_op
    G = sign_twisted_endofunctor()
    assert validate_lax_functor(G, sign, sign).ok
    F = morphism_from_lax_functor(G, sign, sign)
    assert validate_op_morphism(F, X, X).ok
    # the chosen binary occupants move to their sign-twisted companions
    assert F.on_two_cells[b.c[("e", "e")]] == "e;e|ne"
    result = classify_morphism(F, X, X, b, b)
    assert result.verdict == "weak"
    assert lax_functor_from_morphism(F, X, X, b, b) == G


def test_absorbing_morphism_is_lax(terminal, terminal_op, idem, idem_op):
    XT, bT = terminal_op
    XI, bI = idem_op
    # G breaks the unit axioms, so this pins that classify_morphism(check=True)
    # checks the shape only; a valid lax witness is pinned below
    G = absorbing_constraint_functor()
    F = morphism_from_lax_functor(G, terminal, idem)
    assert F.on_two_cells[bT.iota["pt"]] == "@pt|t"
    result = classify_morphism(F, XT, XI, bT, bI)
    assert result.verdict == "lax"
    assert result.witness[1] == "@pt|t"
    # the translation still recovers the constraints exactly
    assert lax_functor_from_morphism(F, XT, XI, bT, bI) == G
    # but it is not a morphism of the structures: grafting is not preserved
    assert "grafting" in validate_op_morphism(F, XT, XI).rules()


def test_collapse_with_an_absorbing_pair_constraint_is_a_lax_morphism(sign, idem):
    # a valid lax functor, unlike absorbing_constraint_functor() above: its
    # translation is a morphism, and classify_morphism finds it lax
    from opetokit import LaxFunctor

    G = LaxFunctor(
        on_objects={"pt": "pt"},
        on_one_cells={f: "i" for f in sign.one_cells},
        on_two_cells={a: "1" for a in sign.two_cells},
        phi_pair={pair: "t" if pair == ("s", "s") else "1" for pair in sign.hcomp1},
        phi_obj={"pt": "1"},
    )
    assert validate_lax_functor(G, sign, idem).ok
    (X, b), (XI, bI) = from_bicategory(sign, 3), from_bicategory(idem, 3)
    F = morphism_from_lax_functor(G, sign, idem, 3)
    assert validate_op_morphism(F, X, XI).ok
    result = classify_morphism(F, X, XI, b, bI)
    assert (result.verdict, result.witness) == ("lax", ("e;s;s|1e", "i;i;i|t"))
    assert lax_functor_from_morphism(F, X, XI, b, bI) == G


def test_a_1cell_that_stops_being_universal_makes_a_morphism_lax(sign):
    # X2 adds a loop z, and for each pair through z one binary cell into s
    # whose only row is its left unit; b2 moves (e, e) to its other occupant.
    # No 2-cell loses universality, but no universal occupant through e
    # reaches z, so e does.  X2 fails validate_op2: this pins what the
    # shape-only check=True accepts.
    X, b = from_bicategory(sign, 3)
    cells2, graft, ident2, c = dict(X.cells2), dict(X.graft), dict(X.ident2), dict(b.c)
    cells2["1z"], ident2["z"] = TwoCell("1z", path("z"), "z"), "1z"
    graft[("1z", 0, "1z")] = "1z"
    for f, g in (("e", "z"), ("z", "e"), ("s", "z"), ("z", "s"), ("z", "z")):
        u = f"{f};{g}|u"
        cells2[u] = TwoCell(u, path(f, g), "s")
        graft[(X.ident2["s"], 0, u)] = u
        c[(f, g)] = u
    c[("e", "e")] = "e;e|ne"
    X2 = dataclasses.replace(
        X, cells1={**X.cells1, "z": ("pt", "pt")}, cells2=cells2, graft=graft, ident2=ident2
    )
    b2 = dataclasses.replace(b, c=c)
    F = OpMorphism({a: a for a in X.objects}, {f: f for f in X.cells1}, {a: a for a in X.cells2})
    result = classify_morphism(F, X, X2, b, b2)
    assert (result.verdict, result.witness) == ("lax", ("e", "e"))
    assert not validate_op2(X2).ok


def test_classification_stable_across_runs(sign, sign_op, terminal, terminal_op, idem, idem_op):
    X, b = sign_op
    XT, bT = terminal_op
    XI, bI = idem_op
    runs = set()
    for _ in range(3):
        runs.add(
            (
                classify_morphism(
                    morphism_from_lax_functor(identity_lax_functor(sign), sign, sign),
                    X, X, b, b,
                ).verdict,
                classify_morphism(
                    morphism_from_lax_functor(sign_twisted_endofunctor(), sign, sign),
                    X, X, b, b,
                ).verdict,
                classify_morphism(
                    morphism_from_lax_functor(absorbing_constraint_functor(), terminal, idem),
                    XT, XI, bT, bI,
                ).verdict,
            )
        )
    assert runs == {("strict", "weak", "lax")}


def test_weak_iff_constraints_invertible(sign, sign_op, terminal, terminal_op, idem, idem_op):
    X, b = sign_op
    XT, bT = terminal_op
    XI, bI = idem_op
    cases = [
        (morphism_from_lax_functor(identity_lax_functor(sign), sign, sign), X, X, b, b, sign),
        (morphism_from_lax_functor(sign_twisted_endofunctor(), sign, sign), X, X, b, b, sign),
        (morphism_from_lax_functor(absorbing_constraint_functor(), terminal, idem), XT, XI, bT, bI, idem),
    ]
    for F, A, A2, ba, ba2, target in cases:
        lax = lax_functor_from_morphism(F, A, A2, ba, ba2)
        invertible = all(
            is_invertible_2cell(target, c) for c in lax.phi_pair.values()
        ) and all(is_invertible_2cell(target, c) for c in lax.phi_obj.values())
        verdict = classify_morphism(F, A, A2, ba, ba2).verdict
        assert (verdict in ("strict", "weak")) == invertible


def test_vertical_breaking_morphism_rejected(arrow_op):
    # identity everywhere except the idempotent endo-cell, which collapses;
    # then the image of a0 . xk disagrees with the composite of the images
    X, b = arrow_op
    on_two = {cid: cid for cid in X.cells2}
    on_two["xk"] = "1k"
    F = OpMorphism(
        {a: a for a in X.objects}, {f: f for f in X.cells1}, on_two
    )
    with pytest.raises(InvalidInput):
        lax_functor_from_morphism(F, X, X, b, b)


@pytest.mark.parametrize("bound", [1, 0, -1])
def test_generation_rejects_bounds_below_two(sign, bound):
    from opetokit.fixtures import sign_bicategory_broken_pentagon

    with pytest.raises(ArityBoundExceeded, match="generation needs arity bound at least 2"):
        morphism_from_lax_functor(identity_lax_functor(sign), sign, sign, arity_bound=bound)
    # the bound is checked before the bicategory is validated
    with pytest.raises(ArityBoundExceeded, match="generation needs arity bound at least 2"):
        from_bicategory(sign_bicategory_broken_pentagon(), bound)


@pytest.fixture
def no_generation(monkeypatch):
    def fail(B, bound):
        raise AssertionError("generated before the functor was checked")

    monkeypatch.setattr(eq, "_generate", fail)


def test_malformed_lax_functor_rejected_before_generation(sign, no_generation):
    G = dataclasses.replace(identity_lax_functor(sign), on_objects={})
    with pytest.raises(InvalidInput, match=re.escape("totality: ('pt',): object has no image")):
        morphism_from_lax_functor(G, sign, sign)


@pytest.mark.parametrize(
    "table, message, witness",
    [
        ("phi_pair", "pair constraint missing", ("e", "e")),
        ("phi_obj", "object constraint missing", ("pt",)),
    ],
)
def test_missing_constraint_rejected_before_generation(sign, no_generation, table, message, witness):
    G = dataclasses.replace(identity_lax_functor(sign), **{table: {}})
    with pytest.raises(InvalidInput, match=re.escape(f"totality: {witness!r}: {message}")):
        morphism_from_lax_functor(G, sign, sign)


@pytest.mark.parametrize(
    "table, key, cell, message",
    [
        ("phi_pair", ("e", "e"), "1s", "frame: ('e', 'e', '1s'): pair constraint mistyped"),
        ("phi_obj", "pt", "1s", "frame: ('pt', '1s'): object constraint mistyped"),
        ("phi_pair", ("s", "s"), "nowhere", "totality: ('s', 's'): pair constraint missing"),
    ],
    ids=["mistyped pair", "mistyped object", "dangling id"],
)
def test_bad_constraint_rejected_before_generation(sign, no_generation, table, key, cell, message):
    # a constraint of the wrong frame, or naming no 2-cell, used to pass the
    # translation's own check and fail during generation
    G = identity_lax_functor(sign)
    G = dataclasses.replace(G, **{table: {**getattr(G, table), key: cell}})
    with pytest.raises(InvalidInput, match=re.escape(message)):
        morphism_from_lax_functor(G, sign, sign)


@pytest.mark.parametrize(
    "table, place, message",
    [("c", ("s", "s"), "no chosen binary occupant"), ("iota", "pt", "no chosen nullary occupant")],
)
def test_morphism_translations_reject_a_target_biasing_without_a_choice(
    sign, sign_op, table, place, message
):
    X, b = sign_op
    F = morphism_from_lax_functor(identity_lax_functor(sign), sign, sign)
    choices = {key: cell for key, cell in getattr(b, table).items() if key != place}
    b2 = dataclasses.replace(b, **{table: choices})
    for translate in (lax_functor_from_morphism, classify_morphism):
        with pytest.raises(InvalidBiasing, match=re.escape(message)):
            translate(F, X, X, b, b2)


def test_lax_functor_constraints_compose_head_first(sign):
    # a pair constraint that tells (s, e) from (e, s), so that along a chain
    # (f, g, h) the order of the tail (g, h) shows in the translated cells:
    # the tail's constraint composite first, then the head's constraint
    identity = identity_lax_functor(sign)
    phi = {**identity.phi_pair, ("s", "e"): "ns"}
    assert phi[("s", "e")] != phi[("e", "s")]
    G = dataclasses.replace(identity, phi_pair=phi)
    F = morphism_from_lax_functor(G, sign, sign)
    id2, then2, beside2 = sign.id2, sign.then2, sign.beside2
    checked = 0
    for f, g, h in itertools.product(sign.one_cells, repeat=3):
        tail = then2(beside2(id2[h], id2[g]), phi[(h, g)])
        chain = then2(beside2(tail, id2[f]), phi[(sign.beside1(h, g), f)])
        composite = sign.beside1(sign.beside1(h, g), f)
        for alpha, (s, _) in sign.two_cells.items():
            if s == composite:
                cell = f"{f};{g};{h}|{alpha}"
                assert F.on_two_cells[cell] == f"{f};{g};{h}|{then2(chain, alpha)}", cell
                checked += 1
    assert checked == 16


def test_faithfulness_by_enumeration(idem, idem_op):
    X, b = idem_op
    cells = sorted(X.cells2)
    per_cell = [sorted(occupants_of_niche(X, X.cells2[c].source)) for c in cells]
    valid = []
    for choice in itertools.product(*per_cell):
        F = OpMorphism({"pt": "pt"}, {"i": "i"}, dict(zip(cells, choice)))
        if validate_op_morphism(F, X, X).ok:
            valid.append(F)
    # the identity and the collapse of the absorbing cell
    assert len(valid) == 2
    functors = [lax_functor_from_morphism(F, X, X, b, b) for F in valid]
    assert functors[0] != functors[1]
    for F, G in zip(valid, functors):
        assert morphism_from_lax_functor(G, idem, idem) == F


def test_twisted_unit_round_trip():
    # non-identity unitors ride through generation: the unit-deletion grafts
    # carry the unitor inverses and the solved tables recover them exactly
    from opetokit.fixtures import sign_bicategory_twisted_units

    tw = sign_bicategory_twisted_units()
    X, b = from_bicategory(tw)
    assert check_coherence(X).ok
    assert graft(X, b.c[("e", "s")], 0, b.iota["pt"]) == "ns"
    B2 = to_bicategory(X, b)
    assert B2 == tw
    assert B2.runit == tw.runit and B2.lunit == tw.lunit


def test_collapse_functors_onto_idempotent(sign, idem, sign_op, idem_op):
    # the only hom-collapse lax functors have identity constraints except
    # possibly an absorbing constraint on the (s, s) pair; that one is
    # genuinely lax, the other strict
    import itertools as it
    from opetokit import LaxFunctor

    base = dict(
        on_objects={"pt": "pt"},
        on_one_cells={"e": "i", "s": "i"},
        on_two_cells={a: "1" for a in sign.two_cells},
    )
    pairs = sorted(sign.hcomp1)
    valid = []
    for phis in it.product(("1", "t"), repeat=len(pairs)):
        for phi_o in ("1", "t"):
            G = LaxFunctor(**base, phi_pair=dict(zip(pairs, phis)), phi_obj={"pt": phi_o})
            if validate_lax_functor(G, sign, idem).ok:
                valid.append(G)
    assert len(valid) == 2
    absorbing = {G.phi_pair[("s", "s")] for G in valid}
    assert absorbing == {"1", "t"}
    X, b = sign_op
    XI, bI = idem_op
    verdicts = {}
    for G in valid:
        F = morphism_from_lax_functor(G, sign, idem)
        assert lax_functor_from_morphism(F, X, XI, b, bI) == G
        verdicts[G.phi_pair[("s", "s")]] = classify_morphism(F, X, XI, b, bI).verdict
    assert verdicts == {"1": "strict", "t": "lax"}


def test_lax_functor_axioms_agree_with_the_morphism_laws(sign, idem, sign_op, idem_op):
    # both sides of the equivalence judge every hom-collapse candidate of
    # test_collapse_functors_onto_idempotent alike, and each translates back
    from opetokit import LaxFunctor

    X, b = sign_op
    XI, bI = idem_op
    base = dict(
        on_objects={"pt": "pt"},
        on_one_cells={"e": "i", "s": "i"},
        on_two_cells={a: "1" for a in sign.two_cells},
    )
    pairs = sorted(sign.hcomp1)
    verdicts = []
    for phis in itertools.product(("1", "t"), repeat=len(pairs)):
        for phi_o in ("1", "t"):
            G = LaxFunctor(**base, phi_pair=dict(zip(pairs, phis)), phi_obj={"pt": phi_o})
            F = morphism_from_lax_functor(G, sign, idem, check=False)
            lax = validate_lax_functor(G, sign, idem).ok
            assert validate_op_morphism(F, X, XI).ok == lax, G
            assert lax_functor_from_morphism(F, X, XI, b, bI) == G
            verdicts.append(lax)
    assert (verdicts.count(True), verdicts.count(False)) == (2, 30)


def test_disjoint_union_round_trip(sign, idem):
    # two objects, one component with a sign associator and one with an
    # absorbing hom; generation and solving stay componentwise
    import dataclasses

    B = type(sign)(
        objects=("p", "q"),
        one_cells={
            **{f: ("p", "p") for f in sign.one_cells},
            **{f: ("q", "q") for f in idem.one_cells},
        },
        two_cells={**sign.two_cells, **idem.two_cells},
        id2={**sign.id2, **idem.id2},
        vcomp={**sign.vcomp, **idem.vcomp},
        id1={"p": "e", "q": "i"},
        hcomp1={**sign.hcomp1, **idem.hcomp1},
        hcomp2={**sign.hcomp2, **idem.hcomp2},
        assoc={**sign.assoc, **idem.assoc},
        lunit={**sign.lunit, **idem.lunit},
        runit={**sign.runit, **idem.runit},
    )
    X, b = from_bicategory(B)
    assert check_coherence(X).ok
    assert to_bicategory(X, b) == B
