"""The contract of generation's memos, against the memo-free oracles.

``_normalize`` takes a ``memo`` of the subtrees normalised so far, and
``_generate`` keeps it, with the inverses of the normalisation legs and the
per-path whiskerings, for one call.  A memo may only hand back what the same
call already computed without raising.  So one memo shared by every tree of
a bicategory gives each tree the outcome of the verbatim ``_normalize`` in
``classical_oracles``, a tree whose normalisation raised is never left in it,
and two generations back to back, on a bicategory and on a corrupt copy of
it in either order, each give the row-by-row oracle's outcome.
"""

from __future__ import annotations

import itertools

import pytest

import classical_oracles as old
import opetokit.equivalences as eq
import path_oracles
from opetokit.bicat import FiniteBicategory, _LEAF, _comb_tree, _normalize, _tree_of, all_bracketings
from test_classical_oracle import _base
from test_op2_oracle import _outcome
from test_path_keys import CORRUPTION_SEEDS, _bicategory, _corrupt_bicategory, _tables

NAMES = ("sign", "idempotent", "arrow", "z3")  # the bases of _corrupt_bicategory, by seed % 4


def _trees(B: FiniteBicategory):
    """Every bracketing of every chain of two to four edges, and its comb."""
    for m in (2, 3, 4):
        for edges in itertools.product(B.one_cells, repeat=m):
            if all(B.tgt1(f) == B.src1(g) for f, g in zip(edges, edges[1:])):
                yield from (_tree_of(g, edges) for g in all_bracketings(m))
                yield _comb_tree([(_LEAF, e) for e in edges])


def _assert_shared_memo_agrees(B: FiniteBicategory) -> int:
    """Normalise every tree through one memo; return how many raised."""
    memo, raised = {}, 0
    for t in _trees(B):
        new = _outcome(_normalize, B, t, memo)
        assert new == _outcome(old._normalize, B, t), t
        if not isinstance(new[0], tuple):  # an exception: (type, message)
            raised += 1
            assert t not in memo, t
    for t, value in memo.items():
        assert value == old._normalize(B, t), t
    return raised


@pytest.mark.parametrize("name", ("sign", "twisted", "arrow", "z3"))
def test_one_memo_normalises_every_bracketed_chain(name):
    assert _assert_shared_memo_agrees(_base(name)) == 0


def test_one_memo_normalises_the_chains_of_corrupt_bicategories():
    raised = [_assert_shared_memo_agrees(_corrupt_bicategory(seed)[0]) for seed in CORRUPTION_SEEDS]
    assert sum(n > 0 for n in raised) >= 100  # 110 of the 240 seeds raise on some tree


def _generations(B: FiniteBicategory, bound: int):
    new = _outcome(lambda: _tables(eq._generate(B, bound)))
    return new, _outcome(lambda: _tables(path_oracles._generate(B, bound)))


@pytest.mark.parametrize("seed", range(0, 240, 5))
def test_back_to_back_generations_share_no_state(seed):
    bad, bound = _corrupt_bicategory(seed)
    good = _bicategory(NAMES[seed % 4])
    for order in ((good, bad), (bad, good)):
        for B in order:
            new, oracle = _generations(B, bound)
            assert new == oracle

