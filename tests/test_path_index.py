"""The path index of ``FiniteOpOneCat``: built once, read by position.

- ``from_category`` enumerates the paths once, for the index of the
  structure it returns; ``validate_op1`` and ``to_category`` read that index
  and enumerate nothing more.
- A structure from a document, from ``dataclasses.replace`` or from the
  constructor builds its own index on first use, exactly once.
- The prefix rows that ``prefix_rows`` reads by position are the rows of the
  keys without their last edge, on the category family at bounds 0 to 5.
- ``validate_op1`` reports the same on a structure whose index is built and
  on a fresh copy, on the seeded and the aimed corruptions.
- The layered fold raises a missing composite as the row-by-row fold did.
"""

from __future__ import annotations

import dataclasses

import pytest

import path_oracles as old
from opetokit import MissingComposite, core, serialize
from opetokit.core import FiniteOpOneCat, prefix_rows, validate_op1
from opetokit.equivalences import from_category, to_category
from opetokit.fixtures import z2_category
from test_op1_layers import AIMED, oracle_validate_op1
from test_op1_oracle import FAMILY, _corrupt


@pytest.fixture
def enumerations(monkeypatch):
    """The structures ``core.path_layers`` is called on, in call order."""
    calls: list = []
    real = core.path_layers

    def counted(X):
        calls.append(X)
        return real(X)

    monkeypatch.setattr(core, "path_layers", counted)
    return calls


def test_from_category_output_is_not_enumerated_again(enumerations):
    for C in FAMILY[::50]:
        enumerations.clear()
        X = from_category(C, 4)
        assert enumerations == [X]
        assert validate_op1(X).ok
        assert to_category(X, check=True) == C
        assert enumerations == [X]


def _copies(X: FiniteOpOneCat) -> dict[str, FiniteOpOneCat]:
    return {
        "document": serialize.from_doc(serialize.loads(serialize.dumps(serialize.to_doc(X)))),
        "replace": dataclasses.replace(X),
        "constructor": FiniteOpOneCat(X.objects, X.cells1, X.comp, X.arity_bound),
    }


@pytest.mark.parametrize("origin", ["document", "replace", "constructor"])
def test_a_new_structure_builds_its_own_index_once(enumerations, origin):
    X = from_category(z2_category(), 4)
    Y = _copies(X)[origin]
    assert "paths" not in vars(Y)
    enumerations.clear()
    for _ in range(2):
        assert validate_op1(Y).ok
        assert to_category(Y) == z2_category()
    assert enumerations == [Y]
    assert Y.paths == X.paths


@pytest.mark.parametrize("bound", range(6))
def test_prefix_rows_by_position_are_the_prefixes_rows(bound):
    for C in FAMILY if bound < 5 else FAMILY[::34]:
        X = from_category(C, bound)
        prefixes = prefix_rows(X.cells1)
        for before, layer in zip(X.paths[1:], X.paths[2:]):
            rows = [X.comp[key] for key in before]
            assert list(prefixes(before, rows)) == [X.comp[key[:-1]] for key in layer]


def _indexed_and_fresh(X: FiniteOpOneCat) -> None:
    indexed, fresh = X, dataclasses.replace(X)
    indexed.paths  # built before the validator runs
    report = validate_op1(indexed)
    assert "paths" not in vars(fresh)
    assert validate_op1(fresh) == report == validate_op1(indexed)
    assert report == oracle_validate_op1(X)


def test_indexed_and_fresh_agree_on_the_seeded_corruptions():
    for seed in range(400):
        _indexed_and_fresh(_corrupt(seed))


@pytest.mark.parametrize("name", sorted(AIMED))
def test_indexed_and_fresh_agree_on_the_aimed_corruptions(name):
    _indexed_and_fresh(dataclasses.replace(AIMED[name]))


def _without(C, pair):
    return dataclasses.replace(C, compose={k: v for k, v in C.compose.items() if k != pair})


def test_a_missing_composite_raises_as_the_row_by_row_fold_did():
    with pytest.raises(MissingComposite, match=r"^no composite for \('e', 'e'\)$"):
        from_category(_without(z2_category(), ("e", "e")), 3, check=False)
    for C in FAMILY[::40]:
        for pair in C.compose:
            broken = _without(C, pair)
            with pytest.raises(MissingComposite) as new:
                from_category(broken, 3, check=False)
            with pytest.raises(MissingComposite) as oracle:
                old.from_category(broken, 3, check=False)
            assert str(new.value) == str(oracle.value), pair
