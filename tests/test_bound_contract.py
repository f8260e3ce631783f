"""The arity-bound contract: a structure at bound b holds nothing past b.

In both dimensions, the structure generated at bound b + 1 and cut to the
cells (or ``comp`` keys) of arity at most b is the one generated at b, table
order and biasing included.  Read at bound b without that cut, it is
rejected with one ``dangling id`` per cell (or key) past b, and nothing else.
"""

from __future__ import annotations

import dataclasses
import functools
import tracemalloc
from pathlib import Path

import pytest

from opetokit import fixtures, serialize
from opetokit.bicat import FiniteBicategory
from opetokit.core import validate_op1, validate_op2
from opetokit.equivalences import from_bicategory, from_category
from test_classical_oracle import groups

BICATEGORIES = {
    "sign": fixtures.sign_bicategory,
    "idempotent": fixtures.idempotent_bicategory,
    "arrow": fixtures.arrow_bicategory,
    "terminal": fixtures.terminal_bicategory,
    "z3": lambda: groups.zn_bicategory(3, FiniteBicategory),
}
BOUNDS = (2, 3, 4)
CASES = [(name, b) for name in BICATEGORIES for b in BOUNDS]
# the cells of the bound-(b + 1) generation longer than b, at b = 2, 3, 4
PAST_THE_BOUND = {
    "sign": (16, 32, 64),
    "idempotent": (2, 2, 2),
    "arrow": (17, 22, 27),
    "terminal": (1, 1, 1),
    "z3": (81, 243, 729),
}
CELL_PAST = "2-cell on a path that does not exist at this bound"
KEY_PAST = "comp entry for a path that does not exist at this bound"


@functools.cache
def _generated(name: str, bound: int):
    return from_bicategory(BICATEGORIES[name](), bound)


def _arity(key: tuple) -> int:
    return len(key) - 1 if key[0] else 0


@pytest.mark.parametrize("name, b", CASES)
def test_op2_cut_to_the_bound_is_the_generation_at_the_bound(name, b):
    X, biasing = _generated(name, b)
    Y, longer_biasing = _generated(name, b + 1)
    cells = {cid: cell for cid, cell in Y.cells2.items() if cell.source.arity <= b}
    rows = {
        key: result
        for key, result in Y.graft.items()
        if key[0] in cells and key[2] in cells and result in cells
    }
    cut = dataclasses.replace(Y, cells2=cells, graft=rows, arity_bound=b)
    assert cut == X
    assert list(cut.cells2) == list(X.cells2)
    assert list(cut.graft) == list(X.graft)
    assert longer_biasing == biasing


@pytest.mark.parametrize("name, b", CASES)
def test_op2_read_below_its_bound_names_only_the_cells_past_it(name, b):
    # only the rows whose result is within b are kept, so no unit row of a
    # cell past b is there: the cells are reported, not their unit laws
    Y, _ = _generated(name, b + 1)
    rows = {key: result for key, result in Y.graft.items() if Y.arity(result) <= b}
    report = validate_op2(dataclasses.replace(Y, graft=rows, arity_bound=b))
    past = [cid for cid, cell in Y.cells2.items() if cell.source.arity > b]
    assert len(past) == PAST_THE_BOUND[name][BOUNDS.index(b)]
    assert [(v.rule, v.witness, v.message) for v in report.violations] == [
        ("dangling id", (cid,), CELL_PAST) for cid in past
    ]


@pytest.mark.parametrize("b", BOUNDS)
def test_op1_cut_to_the_bound_is_the_generation_at_the_bound(b):
    family = fixtures.small_category_family()
    assert len(family) == 673
    for C in family:
        X, Y = from_category(C, b), from_category(C, b + 1)
        rows = {key: result for key, result in Y.comp.items() if _arity(key) <= b}
        cut = dataclasses.replace(Y, comp=rows, arity_bound=b)
        assert cut == X
        assert list(cut.comp) == list(X.comp)


def test_op1_read_below_its_bound_names_only_the_keys_past_it():
    Y = from_category(fixtures.z2_category(), 5)
    report = validate_op1(dataclasses.replace(Y, arity_bound=4))
    past = [key for key in Y.comp if _arity(key) == 5]
    assert len(past) == 32
    assert [(v.rule, v.witness, v.message) for v in report.violations] == [
        ("dangling id", (key,), KEY_PAST) for key in past
    ]


def _validated_at(X, bound):
    tracemalloc.start()
    try:
        report = validate_op2(dataclasses.replace(X, arity_bound=bound))
        return report, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_op2_validation_is_sized_by_its_cells_not_by_its_bound():
    # the op2cat fixture (bound 4) relabelled to bound 10 or 100,000 lacks
    # the same in-bound rows at both, and no index grows with the bound
    fixture = Path(__file__).resolve().parent.parent / "docs" / "fixtures" / "op2cat.json"
    X, _ = serialize.from_doc(serialize.load_path(str(fixture)))
    assert len(X.cells2) == 62
    at_ten, peak_at_ten = _validated_at(X, 10)
    far, peak_far = _validated_at(X, 100_000)
    assert len(at_ten.violations) == 4992
    assert {v.rule for v in at_ten.violations} == {"totality"}
    assert far.violations == at_ten.violations
    assert peak_far <= 1.1 * peak_at_ten
