"""Differential tests of the opetopic side's index lookups and biased walk.

The oracles in ``niche_oracles`` find neighbouring cells by scanning whole
tables and walk the biased niches in loops of their own; the library takes
the cells from ``X.occupants`` and ``X.out_edges`` and walks the biased
niches once.  The two must give the same value, or the same exception type
and message, with every table and report in the same order:

- ``choose_biasing``, ``validate_biasing`` and ``classify_morphism`` (with
  and without ``check``) on the structures of ``test_op2_oracle``, the Z2
  and Z3 2-groups, the 60 seeded op2 corruptions and seeded corruptions of
  their biasings: a dropped choice, a choice for an unknown object or for a
  non-composable pair, a chosen cell off its niche or not universal;
- ``is_universal_1cell`` and ``is_universal_factorization_1`` on every cell
  of those structures;
- ``hom_category_of_frame`` on every pair of objects, whose 1-cells now come
  edge by edge in sorted order: the oracle's, stably sorted by edge;
- ``is_equivalence_1cell`` on every 1-cell of the fixture bicategories, Z2,
  Z3 and the seeded single-entry corruptions of ``test_classical_oracle``.
"""

from __future__ import annotations

import dataclasses
import functools
import random

import pytest

import niche_oracles as old
import opetokit.equivalences as eq
from opetokit import fixtures, serialize
from opetokit.bicat import FiniteBicategory, LaxFunctor, is_equivalence_1cell
from opetokit.core import hom_category_of_frame
from opetokit.equivalences import Biasing, OpMorphism
from opetokit.universality import (
    is_universal_1cell,
    is_universal_2cell,
    is_universal_factorization_1,
)
from test_classical_oracle import _corruptions, groups
from test_op2_oracle import FIXTURE, _corrupt, _outcome, _structures

CORRUPTIONS = ("dropped", "unknown object", "non-composable pair", "off-niche", "non-universal")


@functools.cache
def _biased() -> dict[str, tuple]:
    """Named (structure, biasing) pairs: ``test_op2_oracle``'s, Z2 and Z3."""
    named = dict(_structures())
    for n in (2, 3):
        named[f"z{n}"] = eq.from_bicategory(groups.zn_bicategory(n, FiniteBicategory), 4)
    return named


def _corrupt_biasing(X, b: Biasing, how: str, seed: int) -> Biasing | None:
    """One seeded corruption of ``b``; None when ``X`` has no non-universal
    occupant to choose."""
    rng = random.Random(f"{how}/{seed}")
    iota, c = dict(b.iota), dict(b.c)
    if how == "dropped":
        table = rng.choice([iota, c])
        del table[rng.choice(sorted(table))]
    elif how == "unknown object":
        iota["nowhere"] = rng.choice(sorted(X.cells2))
    elif how == "non-composable pair":
        f = rng.choice(sorted(X.cells1))
        loose = [g for g in sorted(X.cells1) if X.src1(g) != X.tgt1(f)] or ["nowhere"]
        c[(f, rng.choice(loose))] = rng.choice(sorted(X.cells2))
    else:
        places = [(table, place) for table in (iota, c) for place in sorted(table)]
        table, place = rng.choice(places)
        niche = X.cells2[table[place]].source.key()
        if how == "off-niche":
            table[place] = rng.choice(sorted(set(X.cells2) - set(X.occupants[niche])))
        else:
            weak = [
                (table, place, cid)
                for table, place in places
                for cid in X.occupants[X.cells2[table[place]].source.key()]
                if not is_universal_2cell(X, cid)
            ]
            if not weak:
                return None
            table, place, cid = rng.choice(weak)
            table[place] = cid
    return Biasing(iota, c)


def _biasing_inputs():
    """(label, structure, biasing, the base's biasing): each base with its own
    biasing and three seeded corruptions of each kind, then the 60 op2
    corruptions with the biasing of their base."""
    for name, (X, b) in _biased().items():
        yield name, X, b, b
        for how in CORRUPTIONS:
            for seed in range(3):
                corrupt = _corrupt_biasing(X, b, how, seed)
                if corrupt is not None:
                    yield f"{name}/{how}/{seed}", X, corrupt, b
    for seed in range(60):
        X, b = _corrupt(seed)
        yield f"op2/{seed}", X, b, b


def _biasing_items(b) -> tuple:
    return (list(b.iota.items()), list(b.c.items())) if isinstance(b, Biasing) else b


def _identity(X) -> OpMorphism:
    return OpMorphism(
        {a: a for a in X.objects}, {f: f for f in X.cells1}, {c: c for c in X.cells2}
    )


def test_biasings_agree_with_oracle():
    rules = set()
    for label, X, b, _ in _biasing_inputs():
        assert _biasing_items(_outcome(eq.choose_biasing, X)) == _biasing_items(
            _outcome(old.choose_biasing, X)
        ), label
        report = _outcome(eq.validate_biasing, X, b)
        assert report == _outcome(old.validate_biasing, X, b), label
        rules |= {(v.rule, v.message) for v in report.violations}
    assert len(rules) == 8  # every rule and message of validate_biasing


def test_classifications_agree_with_oracle():
    # the identity morphism, against its own biasing and a corrupted one on
    # either side, then the translated lax functors of the fixtures
    verdicts = set()
    for label, X, b, clean in _biasing_inputs():
        F = _identity(X)
        for args in ((F, X, X, b, clean), (F, X, X, clean, b)):
            for check in (True, False):
                new = _outcome(eq.classify_morphism, *args, check)
                assert new == _outcome(old.classify_morphism, *args, check), (label, check)
                verdicts.add(new[0] if isinstance(new, tuple) else new.verdict)
    sign = fixtures.sign_bicategory()
    idem = fixtures.idempotent_bicategory()
    terminal = fixtures.terminal_bicategory()
    (X, b), (XI, bI), (XT, bT) = map(eq.from_bicategory, (sign, idem, terminal))
    collapse = LaxFunctor(
        {"pt": "pt"}, {"e": "i", "s": "i"}, {a: "1" for a in sign.two_cells},
        {pair: "1" for pair in sign.hcomp1}, {"pt": "1"},
    )
    absorbing = dataclasses.replace(collapse, phi_pair={**collapse.phi_pair, ("s", "s"): "t"})
    cases = [
        (fixtures.identity_lax_functor(sign), sign, sign, X, X, b, b),
        (fixtures.sign_twisted_endofunctor(), sign, sign, X, X, b, b),
        (fixtures.absorbing_constraint_functor(), terminal, idem, XT, XI, bT, bI),
        (collapse, sign, idem, X, XI, b, bI),
        (absorbing, sign, idem, X, XI, b, bI),
    ]
    for G, B, B2, *args in cases:
        F = eq.morphism_from_lax_functor(G, B, B2)
        new = eq.classify_morphism(F, *args)
        assert new == old.classify_morphism(F, *args)
        verdicts.add(new.verdict)
    fixture, fb = _biased()["fixture"]
    morphism = serialize.from_doc(serialize.load_path(str(FIXTURE.parent / "opmorphism.json")))
    args = (morphism, fixture, fixture, fb, fb)
    assert eq.classify_morphism(*args) == old.classify_morphism(*args)
    assert {"strict", "weak", "lax"} <= verdicts


@pytest.mark.parametrize("seed", [None, *range(60)])
def test_universality_and_homs_agree_with_oracle(seed):
    structures = [X for X, _ in _biased().values()] if seed is None else [_corrupt(seed)[0]]
    for X in structures:
        for f in X.cells1:
            assert is_universal_1cell(X, f) == old.is_universal_1cell(X, f), f
        for u in X.cells2:
            assert _outcome(is_universal_factorization_1, X, u) == _outcome(
                old.is_universal_factorization_1, X, u
            ), u
        for a in X.objects:
            for b in X.objects:
                new = _outcome(hom_category_of_frame, X, a, b)
                oracle = _outcome(old.hom_category_of_frame, X, a, b)
                assert new == oracle, (a, b)
                if hasattr(new, "comp"):
                    by_edge = sorted(oracle.cells1.items(), key=lambda item: item[1][0])
                    assert list(new.cells1.items()) == by_edge, (a, b)
                    assert list(new.comp.items()) == list(oracle.comp.items()), (a, b)


def test_equivalence_1cells_agree_with_oracle():
    bases = [
        fixtures.sign_bicategory(),
        fixtures.sign_bicategory_twisted_units(),
        fixtures.idempotent_bicategory(),
        fixtures.terminal_bicategory(),
        fixtures.arrow_bicategory(),
        groups.zn_bicategory(2, FiniteBicategory),
        groups.zn_bicategory(3, FiniteBicategory),
    ]
    verdicts = []
    for label, B in [*enumerate(bases), *_corruptions()]:
        for f in B.one_cells:
            new = _outcome(is_equivalence_1cell, B, f)
            assert new == _outcome(old.is_equivalence_1cell, B, f), (label, f)
            verdicts.append(new)
    assert {True, False} <= set(verdicts)
