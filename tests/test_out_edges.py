"""The out-edge index ``out_edges`` of ``FiniteOpOneCat`` and
``FiniteOpTwoCat``: one per structure, read by ``fold_paths``, by
``validate_op1`` and by the universality predicates, not by the path
index, which is shared per 1-skeleton.

- It maps each source object to the 1-cells out of it, sorted: the sorted
  buckets of a scan of ``cells1``.
- ``from_category`` builds it once, for its fold; ``from_bicategory``
  builds none.  Validating the result and asking every universality
  predicate on every 1-cell builds it at most once.
- A structure from ``dataclasses.replace`` starts without it, builds its
  own once, and gives the same verdicts as the indexed structure and as the
  predicates' scanning oracles.
"""

from __future__ import annotations

import dataclasses

import pytest

import classical_oracles
import niche_oracles
from opetokit import core
from opetokit.core import validate_op1
from opetokit.equivalences import from_bicategory, from_category
from opetokit.fixtures import (
    arrow_bicategory,
    idempotent_bicategory,
    sign_bicategory,
    terminal_bicategory,
)
from opetokit.universality import (
    check_coherence,
    is_universal_1cell,
    is_universal_1cell_op1,
    is_universal_factorization_1,
)
from test_op1_oracle import FAMILY

BICATEGORIES = (sign_bicategory, idempotent_bicategory, arrow_bicategory, terminal_bicategory)


@pytest.fixture
def builds(monkeypatch):
    """The cell tables ``core._out_edges`` is called on, in call order,
    starting from an empty path-index memo."""
    calls: list = []
    real = core._out_edges

    def counted(cells):
        calls.append(cells)
        return real(cells)

    monkeypatch.setattr(core, "_out_edges", counted)
    core._skeleton_paths.cache_clear()
    yield calls
    core._skeleton_paths.cache_clear()


def _scanned(cells1) -> dict:
    sources = {s for s, _ in cells1.values()}
    return {a: tuple(sorted(g for g, (s, _) in cells1.items() if s == a)) for a in sources}


def _op1_verdicts(X) -> dict:
    return {f: is_universal_1cell_op1(X, f) for f in X.cells1}


def _op2_verdicts(X) -> dict:
    binary = [u for u, cell in X.cells2.items() if cell.source.arity == 2]
    return {
        "1-cells": {f: is_universal_1cell(X, f) for f in X.cells1},
        "factorisations": {u: is_universal_factorization_1(X, u) for u in binary},
    }


def test_the_index_is_the_sorted_buckets_of_a_scan():
    for C in FAMILY[::7]:
        X = from_category(C, 3)
        assert X.out_edges == _scanned(X.cells1)
    for make in BICATEGORIES:
        X, _ = from_bicategory(make(), 3)
        assert X.out_edges == _scanned(X.cells1)


def test_from_category_output_builds_one_index(builds):
    for C in FAMILY[::25]:
        builds.clear()
        X = from_category(C, 4)
        assert builds == [X.cells1]
        assert validate_op1(X).ok
        _op1_verdicts(X)
        assert builds == [X.cells1]


def test_from_bicategory_output_builds_one_index(builds):
    for make in BICATEGORIES:
        builds.clear()
        X, _ = from_bicategory(make(), 4)
        assert builds == []  # generation reads the path index only
        assert check_coherence(X).ok
        _op2_verdicts(X)
        assert builds == [X.cells1]


def test_indexed_and_fresh_agree_in_dimension_1(builds):
    verdicts = set()
    for C in FAMILY[::5]:
        indexed = from_category(C, 2)
        fresh = dataclasses.replace(indexed)
        expected = _op1_verdicts(indexed)
        assert "out_edges" not in vars(fresh)
        builds.clear()
        for _ in range(2):
            assert _op1_verdicts(fresh) == expected
        assert builds == [fresh.cells1]
        assert fresh.out_edges == indexed.out_edges
        assert expected == {f: classical_oracles.is_universal_1cell_op1(fresh, f) for f in fresh.cells1}
        verdicts |= set(expected.values())
    assert verdicts == {True, False}


@pytest.mark.parametrize("make", BICATEGORIES, ids=lambda make: make.__name__)
def test_indexed_and_fresh_agree_in_dimension_2(builds, make):
    indexed, _ = from_bicategory(make(), 4)
    fresh = dataclasses.replace(indexed)
    expected = _op2_verdicts(indexed)
    assert "out_edges" not in vars(fresh)
    builds.clear()
    for _ in range(2):
        assert _op2_verdicts(fresh) == expected
    assert builds == [fresh.cells1]
    assert fresh.out_edges == indexed.out_edges
    assert expected == {
        "1-cells": {f: niche_oracles.is_universal_1cell(fresh, f) for f in fresh.cells1},
        "factorisations": {
            u: niche_oracles.is_universal_factorization_1(fresh, u) for u in expected["factorisations"]
        },
    }
