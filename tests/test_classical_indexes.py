"""The by-source indexes of ``FiniteBicategory``: ``after``, the 1-cells
out of each object, and ``out_of``, the 2-cells out of each 1-cell.  The
pentagon of ``validate_bicategory``, ``_generate`` and
``is_equivalence_1cell`` read them.

- Each maps a source to the ids of its table with that source, in table
  order, not sorted: the buckets of a scan, on every fixture bicategory, the
  Z3 2-group, the labelled Z2 bicategory of ``test_bicat`` and the
  broken-pentagon fixture with its cell tables reversed.
- ``from_bicategory`` (with its ``validate_bicategory``) builds each once,
  and asking ``is_equivalence_1cell`` of every 1-cell afterwards builds
  neither again.
- A structure from ``dataclasses.replace`` starts without them, builds each
  once, and gives the verdicts of the indexed structure and of the scanning
  oracle ``niche_oracles.is_equivalence_1cell``.
"""

from __future__ import annotations

import dataclasses

import pytest

import niche_oracles
from opetokit import bicat
from opetokit.bicat import is_equivalence_1cell
from opetokit.equivalences import from_bicategory
from opetokit.fixtures import terminal_bicategory
from test_classical_oracle import BASES

MAKERS = {**BASES, "terminal": terminal_bicategory}
VALID = ("sign", "twisted", "idempotent", "arrow", "terminal", "z3")


@pytest.fixture
def builds(monkeypatch):
    """The tables ``bicat._by_source`` is called on, in call order."""
    calls: list = []
    real = bicat._by_source

    def counted(cells):
        calls.append(cells)
        return real(cells)

    monkeypatch.setattr(bicat, "_by_source", counted)
    return calls


def _own(builds: list, B) -> list[str]:
    """The names of ``B``'s cell tables among ``builds``, in call order."""
    return [name for cells in builds for name in ("one_cells", "two_cells") if cells is getattr(B, name)]


def _scanned(cells) -> dict:
    sources = dict.fromkeys(s for s, _ in cells.values())
    return {a: [c for c, (s, _) in cells.items() if s == a] for a in sources}


def _verdicts(B) -> dict:
    return {f: is_equivalence_1cell(B, f) for f in B.one_cells}


@pytest.mark.parametrize("name", MAKERS)
def test_the_indexes_are_the_buckets_of_a_scan_in_table_order(name):
    B = MAKERS[name]()
    assert list(B.after.items()) == list(_scanned(B.one_cells).items())
    assert list(B.out_of.items()) == list(_scanned(B.two_cells).items())


@pytest.mark.parametrize("name", VALID)
def test_from_bicategory_and_the_verdicts_build_each_index_once(builds, name):
    B = MAKERS[name]()
    from_bicategory(B, 4)
    assert _own(builds, B) == ["one_cells", "two_cells"]
    _verdicts(B)
    assert _own(builds, B) == ["one_cells", "two_cells"]


@pytest.mark.parametrize("name", MAKERS)
def test_indexed_and_fresh_agree(builds, name):
    indexed = MAKERS[name]()
    expected = _verdicts(indexed)
    read = _own(builds, indexed)  # out_of is not read where every composite is an identity
    assert read in (["one_cells"], ["one_cells", "two_cells"])
    fresh = dataclasses.replace(indexed)
    assert "after" not in vars(fresh) and "out_of" not in vars(fresh)
    builds.clear()  # the copy shares the tables
    for _ in range(2):
        assert _verdicts(fresh) == expected
    assert _own(builds, fresh) == read
    assert expected == {f: niche_oracles.is_equivalence_1cell(fresh, f) for f in fresh.one_cells}


def test_the_verdicts_reach_both_answers():
    verdicts = {v for name in MAKERS for v in _verdicts(MAKERS[name]()).values()}
    assert verdicts == {True, False}
