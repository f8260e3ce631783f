"""Validator sensitivity across the equivalence.

A single-entry corruption of one table drops an entry, replaces its value by
another cell of its kind, or adds an entry at a key outside the table's
domain.  Whatever the validator on one side accepts must convert to a
structure that the validator on the other side accepts:

- a corrupted sign, idempotent, arrow or Z3 bicategory that
  ``validate_bicategory`` accepts generates, at bound 3, a structure that
  validates and coheres and that solves back to the corrupted bicategory;
- a corrupted op1cat fixture that ``validate_op1`` accepts converts to a
  category that ``validate_category`` accepts;
- a corrupted Z3 presentation that ``validate_op2`` and ``check_coherence``
  accept converts to a bicategory that ``validate_bicategory`` accepts;
- a corrupted map of a morphism that its validator (``validate_functor``,
  ``validate_lax_functor`` or ``validate_op_morphism``) accepts translates to
  the other side, where the validator accepts it and the translation back
  gives it unchanged.  The morphisms are the identity functor on Z2, the
  identity and the sign-twisted lax functors on sign, and the translation of
  the identity on sign at bound 3.

Tier-1 runs a seeded sample; ``python tests/test_sensitivity.py`` runs the
full sweep and prints, for each table or map, how many corruptions were
flagged and how many accepted.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from opetokit import (
    CatFunctor,
    FiniteBicategory,
    FiniteOpOneCat,
    LaxFunctor,
    OpMorphism,
    check_coherence,
    choose_biasing,
    from_bicategory,
    from_category,
    functor_from_morphism,
    lax_functor_from_morphism,
    morphism_from_lax_functor,
    serialize,
    to_bicategory,
    to_category,
    validate_bicategory,
    validate_category,
    validate_functor,
    validate_lax_functor,
    validate_op1,
    validate_op2,
    validate_op_morphism,
)
from opetokit.fixtures import (
    arrow_bicategory,
    identity_lax_functor,
    idempotent_bicategory,
    sign_bicategory,
    sign_twisted_endofunctor,
    z2_category,
)
from test_generated_families import BOUND, check_equivalence, groups

FIXTURES = Path(__file__).resolve().parent.parent / "docs" / "fixtures"
BASES = {
    "sign": sign_bicategory,
    "idempotent": idempotent_bicategory,
    "arrow": arrow_bicategory,
    "z3": lambda: groups.zn_bicategory(3, FiniteBicategory),
}
TABLES = ("one_cells", "two_cells", "id2", "vcomp", "id1", "hcomp1", "hcomp2", "assoc",
          "lunit", "runit")
MODES = ("drop", "replace", "add")
SAMPLE_SEEDS = 10  # per (base, table, mode) in tier-1
SWEEP_SEEDS = 100  # per (base, table, mode) in the full sweep
OP_SAMPLE_SEEDS = 10
OP_SWEEP_SEEDS = 100
UNKNOWN = "zz"


def _key_cells(B: FiniteBicategory, table: str):
    """The cells a key of ``table`` is made of, and the key's length."""
    if table == "id1":
        return B.objects, 1
    if table in ("id2", "lunit", "runit"):
        return tuple(B.one_cells), 1
    if table in ("vcomp", "hcomp2"):
        return tuple(B.two_cells), 2
    return tuple(B.one_cells), (2 if table == "hcomp1" else 3)


def _values(B: FiniteBicategory, table: str) -> list:
    """Every value an entry of ``table`` can hold."""
    if table == "one_cells":
        return list(itertools.product(B.objects, repeat=2))
    if table == "two_cells":
        return list(itertools.product(B.one_cells, repeat=2))
    return sorted(B.one_cells if table in ("id1", "hcomp1") else B.two_cells)


def _new_key(B: FiniteBicategory, table: str, entries: dict, rng: random.Random):
    """A key outside the table: known cells that the table lacks if there are
    any, else a key naming an unknown cell."""
    if table in ("one_cells", "two_cells"):
        return UNKNOWN
    cells, n = _key_cells(B, table)
    keys = [k if n > 1 else k[0] for k in itertools.product(cells, repeat=n)]
    missing = [k for k in keys if k not in entries]
    if missing:
        return rng.choice(missing)
    if n == 1:
        return UNKNOWN
    key = list(rng.choice(keys))
    key[rng.randrange(n)] = UNKNOWN
    return tuple(key)


def _drop_or_replace(entries: dict, values: list, mode: str, rng: random.Random) -> str:
    """Drop a random entry, or replace its value by another of ``values``; the
    mode really used: a value with no other of its kind is dropped instead."""
    key = rng.choice(sorted(entries))
    others = [v for v in values if v != entries[key]]
    if mode == "drop" or not others:
        del entries[key]
        return "drop"
    entries[key] = rng.choice(others)
    return mode


def corrupt_bicategory(name: str, table: str, mode: str, seed: int):
    """One corruption of one table of a base bicategory, and the mode it
    really used."""
    rng = random.Random(f"{name}/{table}/{mode}/{seed}")
    B = BASES[name]()
    entries = dict(getattr(B, table))
    values = _values(B, table)
    if mode == "add":
        entries[_new_key(B, table, entries, rng)] = rng.choice(values)
    else:
        mode = _drop_or_replace(entries, values, mode, rng)
    return dataclasses.replace(B, **{table: entries}), mode


def _bicategory_cases(seeds: int):
    for name, table, mode in itertools.product(BASES, TABLES, MODES):
        for seed in range(seeds):
            yield name, table, mode, seed


def _check_bicategory(B: FiniteBicategory) -> bool:
    """Whether ``validate_bicategory`` accepts ``B``; if it does, the
    equivalence must hold for it."""
    if not validate_bicategory(B).ok:
        return False
    check_equivalence(B, BOUND)
    return True


@pytest.mark.parametrize("name", BASES)
def test_bicategory_corruptions_are_flagged_or_harmless(name):
    for _, table, mode, seed in (c for c in _bicategory_cases(SAMPLE_SEEDS) if c[0] == name):
        B, _ = corrupt_bicategory(name, table, mode, seed)
        _check_bicategory(B)


def test_an_accepted_associator_change_is_a_different_valid_bicategory():
    # the trivial associator on the sign bicategory: accepted, and not a miss
    sign = sign_bicategory()
    changed = dataclasses.replace(sign, assoc={**sign.assoc, ("s", "s", "s"): "1s"})
    assert changed != sign
    assert _check_bicategory(changed)


def test_added_entries_are_always_flagged():
    for name, table, _, seed in _bicategory_cases(SAMPLE_SEEDS):
        B, _ = corrupt_bicategory(name, table, "add", seed)
        assert not validate_bicategory(B).ok, (name, table, seed)


# -- the opetopic side ------------------------------------------------------------


def _op_bases():
    op1 = serialize.from_doc(serialize.load_path(str(FIXTURES / "op1cat.json")))
    z3, _ = from_bicategory(groups.zn_bicategory(3, FiniteBicategory), BOUND)
    return {"op1cat": op1, "z3": z3}


OP_BASES = _op_bases()
OP_TABLES = {"op1cat": ("cells1", "comp"), "z3": ("ident2", "graft")}


def corrupt_opetopic(name: str, table: str, mode: str, seed: int):
    """One corruption of one table of the op1cat fixture or of Z3's
    presentation at bound 3."""
    rng = random.Random(f"{name}/{table}/{mode}/{seed}")
    X = OP_BASES[name]
    entries = dict(getattr(X, table))
    if table == "cells1":
        values = list(itertools.product(X.objects, repeat=2))
    else:
        values = sorted(X.cells1 if table == "comp" else X.cells2)
    if mode == "add":
        while True:
            if table == "comp":
                cells = [*X.cells1, UNKNOWN]
                key = (1, *(rng.choice(cells) for _ in range(rng.randint(1, X.arity_bound + 1))))
            elif table == "graft":
                outer, inner = rng.choice(values), rng.choice(values)
                key = (outer, rng.randrange(X.cells2[outer].source.arity + 1), inner)
            else:
                key = UNKNOWN
            if key not in entries:
                break
        entries[key] = rng.choice(values)
    else:
        mode = _drop_or_replace(entries, values, mode, rng)
    return dataclasses.replace(X, **{table: entries}), mode


def _check_opetopic(X) -> bool:
    """Whether the opetopic validators accept ``X``; if they do, it must
    convert to a structure that the classical validator accepts."""
    if isinstance(X, FiniteOpOneCat):
        if not validate_op1(X).ok:
            return False
        assert validate_category(to_category(X)).ok
        return True
    if not (validate_op2(X).ok and check_coherence(X).ok):
        return False
    assert validate_bicategory(to_bicategory(X, choose_biasing(X))).ok
    return True


def _opetopic_cases(seeds: int):
    for name, tables in OP_TABLES.items():
        for table, mode in itertools.product(tables, MODES):
            for seed in range(seeds):
                yield name, table, mode, seed


def test_opetopic_corruptions_are_flagged_or_convert_to_valid_structures():
    for case in _opetopic_cases(OP_SAMPLE_SEEDS):
        X, _ = corrupt_opetopic(*case)
        _check_opetopic(X)


# -- morphisms --------------------------------------------------------------------


Z2, SIGN = z2_category(), sign_bicategory()
Z2_OP = from_category(Z2)
SIGN_OP, SIGN_BIASING = from_bicategory(SIGN, 3)
MORPHISMS = {
    "functor": CatFunctor({"o": "o"}, {f: f for f in Z2.arrows}),
    "identity": identity_lax_functor(SIGN),
    "twisted": sign_twisted_endofunctor(),
    "op morphism": morphism_from_lax_functor(identity_lax_functor(SIGN), SIGN, SIGN, 3),
}
MAP_VALUES = {  # the cells a map's values are drawn from
    "on_objects": SIGN.objects,
    "on_one_cells": tuple(SIGN.one_cells),
    "on_two_cells": tuple(SIGN.two_cells),
    "phi_pair": tuple(SIGN.two_cells),
    "phi_obj": tuple(SIGN.two_cells),
}
MORPHISM_VALUES = {
    "functor": {"on_objects": Z2.objects, "on_arrows": tuple(Z2.arrows)},
    "identity": MAP_VALUES,
    "twisted": MAP_VALUES,
    "op morphism": {"on_objects": SIGN_OP.objects, "on_one_cells": tuple(SIGN_OP.cells1),
                    "on_two_cells": tuple(SIGN_OP.cells2)},
}


def corrupt_morphism(name: str, table: str, mode: str, seed: int):
    """One corruption of one map of a morphism; an added entry is keyed by an
    unknown cell (every map is total, so no known key is missing)."""
    rng = random.Random(f"{name}/{table}/{mode}/{seed}")
    F = MORPHISMS[name]
    entries = dict(getattr(F, table))
    values = sorted(MORPHISM_VALUES[name][table])
    if mode == "add":
        key = rng.choice(sorted(entries))
        if isinstance(key, tuple):
            key = list(key)
            key[rng.randrange(len(key))] = UNKNOWN
            key = tuple(key)
        else:
            key = UNKNOWN
        entries[key] = rng.choice(values)
    else:
        mode = _drop_or_replace(entries, values, mode, rng)
    return dataclasses.replace(F, **{table: entries}), mode


def _check_morphism(F) -> bool:
    """Whether the validator of ``F``'s kind accepts it; if it does, its
    translation must pass the other side's check and translate back to ``F``."""
    if isinstance(F, CatFunctor):
        if not validate_functor(F, Z2, Z2).ok:
            return False
        assert functor_from_morphism(OpMorphism(F.on_objects, F.on_arrows), Z2_OP, Z2_OP) == F
        return True
    X, b = SIGN_OP, SIGN_BIASING
    if isinstance(F, LaxFunctor):
        if not validate_lax_functor(F, SIGN, SIGN).ok:
            return False
        image = morphism_from_lax_functor(F, SIGN, SIGN, 3)
        assert validate_op_morphism(image, X, X).ok
        assert lax_functor_from_morphism(image, X, X, b, b) == F
        return True
    if not validate_op_morphism(F, X, X).ok:
        return False
    image = lax_functor_from_morphism(F, X, X, b, b)
    assert validate_lax_functor(image, SIGN, SIGN).ok
    assert morphism_from_lax_functor(image, SIGN, SIGN, 3) == F
    return True


def _morphism_cases(seeds: int):
    for name, F in MORPHISMS.items():
        for field, mode in itertools.product(dataclasses.fields(F), MODES):
            for seed in range(seeds):
                yield name, field.name, mode, seed


def test_morphism_corruptions_are_flagged_or_round_trip():
    counts = _sweep(_morphism_cases(OP_SAMPLE_SEEDS), corrupt_morphism, _check_morphism)
    # every added entry is flagged; some replacements are other valid morphisms
    assert not any(key[2] == "add" and key[3] == "accepted" for key in counts)
    assert any(key[3] == "accepted" for key in counts)


def _sweep(cases, corrupt, check) -> Counter:
    counts = Counter()
    for name, table, mode, seed in cases:
        S, used = corrupt(name, table, mode, seed)
        counts[name, table, used, "accepted" if check(S) else "flagged"] += 1
    return counts


if __name__ == "__main__":  # the full sweep, one line per (base, table, mode)
    sweeps = (_sweep(_bicategory_cases(SWEEP_SEEDS), corrupt_bicategory, _check_bicategory),
              _sweep(_opetopic_cases(OP_SWEEP_SEEDS), corrupt_opetopic, _check_opetopic),
              _sweep(_morphism_cases(OP_SWEEP_SEEDS), corrupt_morphism, _check_morphism))
    for counts in sweeps:
        for group in sorted({key[:3] for key in counts}):
            flagged, accepted = (counts[(*group, verdict)] for verdict in ("flagged", "accepted"))
            print(*group, f"flagged {flagged}", f"accepted {accepted}")
