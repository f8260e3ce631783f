"""Differential tests of path keys and prefix folds.

The oracles in ``path_oracles`` enumerate ``PastingPath`` objects and fold or
search every path from scratch.  The library enumerates path keys, builds
every per-path table from the row of the path's prefix, and derives the
coherence occupant of a long niche from its prefix's.  Within one process the
two must give the same key sequence, the same tables in the same insertion
order, and equal coherence reports in both modes (or the same exception), on
the generated sign, idempotent and arrow presentations at bounds 2 to 5, the
Z3 2-group at bound 4, the category family and the seeded op2 corruptions of
``test_op2_oracle``.

The one intended difference: the oracle emits its ``composite 1-cell not
universal`` violations, its last group, in frozenset order; the library in
``cells2`` order.  The comparison puts the oracle's group in ``cells2``
order first.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
from pathlib import Path

import pytest

import opetokit.equivalences as eq
import path_oracles as old
from opetokit.bicat import FiniteBicategory
from opetokit.core import PastingPath, hom_category_of_frame, iter_paths
from opetokit.fixtures import (
    arrow_bicategory,
    idempotent_bicategory,
    sign_bicategory,
    small_category_family,
    z2_category,
)
from opetokit.universality import check_coherence
from test_op2_oracle import _corrupt, _outcome

ROOT = Path(__file__).resolve().parent.parent
FAMILY = [z2_category()] + small_category_family()
BICATEGORIES = {
    "sign": sign_bicategory,
    "idempotent": idempotent_bicategory,
    "arrow": arrow_bicategory,
}


def _z3_bicategory() -> FiniteBicategory:
    spec = importlib.util.spec_from_file_location("groups", ROOT / "perfbench" / "groups.py")
    groups = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(groups)
    return groups.zn_bicategory(3, FiniteBicategory)


@functools.cache
def _generated(name: str, bound: int):
    """The library's and the oracle's ``_generate`` on one bicategory."""
    B = _z3_bicategory() if name == "z3" else BICATEGORIES[name]()
    return eq._generate(B, bound), old._generate(B, bound)


GENERATED = [(name, bound) for name in BICATEGORIES for bound in (2, 3, 4, 5)] + [("z3", 4)]


def _assert_same_keys(X):
    assert list(iter_paths(X)) == [p.key() for p in old.iter_paths(X)]


def _in_table_order(report, X):
    """The oracle's report with its frozenset-ordered last group in cells2 order."""
    if not hasattr(report, "violations"):
        return report
    rule = "composite 1-cell not universal"
    position = {cid: n for n, cid in enumerate(X.cells2)}
    rest = [v for v in report.violations if v.rule != rule]
    group = sorted(
        (v for v in report.violations if v.rule == rule), key=lambda v: position[v.witness[0]]
    )
    return dataclasses.replace(report, violations=tuple(rest + group))


def _assert_same_coherence(X):
    for direct in (False, True):
        new = _outcome(check_coherence, X, direct)
        oracle = _in_table_order(_outcome(old.check_coherence, X, direct), X)
        assert new == oracle, direct
        if hasattr(new, "niche_universals"):
            assert list(new.niche_universals) == list(oracle.niche_universals)


def _assert_same_homs(X):
    for a in X.objects:
        for b in X.objects:
            new = _outcome(hom_category_of_frame, X, a, b)
            oracle = _outcome(old.hom_category_of_frame, X, a, b)
            assert new == oracle, (a, b)
            if hasattr(new, "comp"):
                assert list(new.comp.items()) == list(oracle.comp.items()), (a, b)


@pytest.mark.parametrize("name, bound", GENERATED)
def test_generation_agrees_with_oracle(name, bound):
    new, oracle = _generated(name, bound)
    X, Y = new.structure, oracle.structure
    assert X == Y
    for table in ("cells2", "ident2", "graft"):
        assert list(getattr(X, table).items()) == list(getattr(Y, table).items()), table
    assert all(type(cell.source) is PastingPath for cell in X.cells2.values())
    assert list(new.biasing.iota.items()) == list(oracle.biasing.iota.items())
    assert list(new.biasing.c.items()) == list(oracle.biasing.c.items())
    assert list(new.cell_of.items()) == list(oracle.cell_of.items())
    assert list(new.value_of.items()) == [
        (cid, (p.key(), alpha)) for cid, (p, alpha) in oracle.value_of.items()
    ]


@pytest.mark.parametrize("name, bound", GENERATED)
def test_paths_homs_and_coherence_agree_on_generated_structures(name, bound):
    X = _generated(name, bound)[0].structure
    _assert_same_keys(X)
    _assert_same_homs(X)
    _assert_same_coherence(X)


@pytest.mark.parametrize("seed", range(60))
def test_homs_and_coherence_agree_on_corruptions(seed):
    X, _ = _corrupt(seed)
    _assert_same_keys(X)
    _assert_same_homs(X)
    _assert_same_coherence(X)


@pytest.mark.parametrize("bound", range(6))
def test_category_family_agrees_with_oracle(bound):
    # every category at bound 4, every 17th at the other bounds
    for n, C in enumerate(FAMILY if bound == 4 else FAMILY[::17]):
        X, Y = eq.from_category(C, bound), old.from_category(C, bound)
        assert X == Y, n
        assert list(X.comp.items()) == list(Y.comp.items()), n
        _assert_same_keys(X)


def test_the_oracle_group_reorder_is_exercised():
    # a corruption whose coherence report holds several composite 1-cell
    # violations, so that their order is compared at all
    counts = [
        sum(v.rule == "composite 1-cell not universal" for v in check_coherence(_corrupt(s)[0]).violations)
        for s in range(60)
    ]
    assert max(counts) >= 2
