"""The contract of generation's memos, against the memo-free oracles.

``bicat._join`` builds a node's normal form from its children's, through
``_merge``'s memo (``merges``) and a memo of ``invert_two_cell``
(``inverses``).  ``_generate`` keeps one such pair for a call, beside its
flat memos of legs (the comb of a chain is its leg at its own first edge),
whiskerings and tail composites.  A memo may only hand back what the same
call already computed without raising.  So one pair shared by
``_normalize``'s walk of every bracketed chain of a bicategory gives each
chain the outcome of the verbatim tree walk ``_normalize`` in
``classical_oracles``, and no entry whose computation raises is left in
either memo.  ``coherence_cell``, which shares one pair between its two
bracketings, gives the cell or the first exception of the verbatim
``coherence_cell`` there on every ordered pair of bracketings.  Within one
generation each leg, combs included, and each whiskering is computed once,
and two generations back to back, on a bicategory and on a corrupt copy of it in
either order, each give the row-by-row oracle's outcome; a replay that
meets nothing re-raises the first exception.  Neither generation nor
``coherence_cell`` leaves cyclic garbage.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
from collections import Counter

import pytest

import classical_oracles as old
import opetokit.equivalences as eq
import path_oracles
from opetokit.bicat import (
    FiniteBicategory,
    _join,
    _merge,
    _normalize,
    all_bracketings,
    coherence_cell,
    invert_two_cell,
)
from test_classical_oracle import _base
from test_op2_oracle import _outcome
from test_path_keys import CORRUPTION_SEEDS, _bicategory, _corrupt_bicategory, _tables

NAMES = ("sign", "idempotent", "arrow", "z3")  # the bases of _corrupt_bicategory, by seed % 4


def _chains(B: FiniteBicategory, lengths=(2, 3, 4)):
    """Every composable chain of the given numbers of edges."""
    for m in lengths:
        for edges in itertools.product(B.one_cells, repeat=m):
            if all(B.tgt1(f) == B.src1(g) for f, g in zip(edges, edges[1:])):
                yield edges


def _assert_shared_memo_agrees(B: FiniteBicategory) -> tuple[int, int]:
    """Normalise every bracketing of every chain of two to four edges through
    one pair of memos, and build the coherence cell of every ordered pair of
    bracketings of every chain of one to four edges; return how many of each
    raised."""
    merges, inverses, raised = {}, {}, 0
    for edges in _chains(B):
        for g in all_bracketings(len(edges)):
            new = _outcome(_normalize, B, g, edges, merges, inverses)
            assert new == _outcome(old._normalize, B, old._tree_of(g, edges)), (edges, g)
            raised += not isinstance(new[0], tuple)  # an exception: (type, message)
    for (xs, rv), value in merges.items():
        assert _merge(B, xs, rv, {}, {}) == value, (xs, rv)
    for a, inverse in inverses.items():
        assert invert_two_cell(B, a) == inverse, a
    cells_raised = 0
    for edges in _chains(B, (1, 2, 3, 4)):
        for g1, g2 in itertools.product(all_bracketings(len(edges)), repeat=2):
            new = _outcome(coherence_cell, B, edges, g1, g2)
            assert new == _outcome(old.coherence_cell, B, edges, g1, g2), (edges, g1, g2)
            cells_raised += isinstance(new[0], type)
    return raised, cells_raised


@pytest.mark.parametrize("name", ("sign", "twisted", "arrow", "z3"))
def test_one_memo_normalises_every_bracketed_chain(name):
    assert _assert_shared_memo_agrees(_base(name)) == (0, 0)


def test_one_memo_normalises_the_chains_of_corrupt_bicategories():
    raised = [_assert_shared_memo_agrees(_corrupt_bicategory(seed)[0]) for seed in CORRUPTION_SEEDS]
    assert sum(n > 0 for n, _ in raised) >= 100  # 110 of the 240 seeds raise on some tree
    assert sum(n > 0 for _, n in raised) >= 100  # 117 raise on some coherence cell
    # with no identity 2-cells every leaf raises on its own 1-cell, so a walk
    # that reads a node's right part first raises on another leaf
    assert _assert_shared_memo_agrees(dataclasses.replace(_base("sign"), id2={}))[1] > 0


def test_each_leg_and_whiskering_is_computed_once(monkeypatch):
    # a helper computes only a key missing from the memo it is given (its
    # argument ``memo_at``), so counting those calls counts computations
    computed = Counter()

    def count(name: str, key_of, memo_at: int) -> None:
        helper = getattr(eq, name)

        def counted(*args):
            if key_of(args) not in args[memo_at]:
                computed[name, key_of(args)] += 1
            return helper(*args)

        monkeypatch.setattr(eq, name, counted)

    count("_leg", lambda args: args[1:4], 4)
    count("_whisk", lambda args: args[1:4], 4)
    joins = Counter()

    def join(*args):
        joins["_join"] += 1
        return _join(*args)

    monkeypatch.setattr(eq, "_join", join)
    gen = eq._generate(_bicategory("z3"), 4)

    assert set(computed.values()) == {1}
    rows = [
        (gen.value_of[outer][0][1:], slot, *gen.value_of[inner])
        for outer, slot, inner in gen.structure.graft
    ]
    assert {("_leg", (edges, slot, q)) for edges, slot, q, _ in rows} <= computed.keys()
    assert {("_whisk", (edges, slot, label)) for edges, slot, _, label in rows} <= computed.keys()
    # a leg, combs included, joins unless it is slot 0 of a one-edge path
    legs = [key for name, key in computed if name == "_leg"]
    assert joins["_join"] == sum(slot > 0 or len(edges) > 1 for edges, slot, _ in legs)


def _without_identity(B: FiniteBicategory, f: str) -> FiniteBicategory:
    id2 = dict(B.id2)
    del id2[f]
    return dataclasses.replace(B, id2=id2)


@pytest.mark.parametrize("seed", CORRUPTION_SEEDS)
def test_leg_and_whisker_steps_raise_where_the_tree_walk_does(seed):
    # generation reads every identity 2-cell before its first leg, so only a
    # direct call meets a missing one; with one dropped on top of a corrupt
    # table, reading ``B.id2[edges[0]]`` after the shorter entry, or the
    # comb of ``edges[1:]`` before the inner part, raises another exception
    bad = _corrupt_bicategory(seed)[0]
    inner = [(0, a) for a in bad.objects] + [(1, *q) for q in _chains(bad, (1, 2, 3))]
    for f in bad.one_cells:
        B = _without_identity(bad, f)
        for edges in _chains(B, (1, 2, 3)):
            for slot, q in itertools.product(range(len(edges)), inner):
                trees = [(old._LEAF, e) for e in edges]
                trees[slot] = old._comb_tree([(old._LEAF, e) for e in q[1:]]) if q[0] else (old._UNIT, q[1])
                new = _outcome(eq._leg, B, edges, slot, q, {}, {}, {})
                assert new == _outcome(old._normalize, B, old._comb_tree(trees)), (f, edges, slot, q)
            for slot, beta in itertools.product(range(len(edges)), B.two_cells):
                new = _outcome(eq._whisk, B, edges, slot, beta, {}, {})
                assert new == _outcome(old._whisker_at, B, edges, slot, beta), (f, edges, slot, beta)


def test_a_row_meets_its_leg_before_its_whiskering():
    # with its 2-cells in reversed order, the first label of each inner path
    # of the broken-pentagon base is not an identity, so a row's whiskering
    # can read a composite its leg does not; of the pairs of a dropped
    # unitor, associator, vertical or 1-cell composite and a dropped 2-cell
    # composite, some make a row whose leg and whiskering both raise, and
    # the leg's exception must come first
    B = _base("broken pentagon, reversed")
    firsts = [(field, key) for field in ("runit", "lunit", "assoc", "vcomp", "hcomp1")
              for key in getattr(B, field)]
    for (field, key), pair in itertools.product(firsts, B.hcomp2):
        C = dataclasses.replace(
            B,
            **{field: {k: v for k, v in getattr(B, field).items() if k != key}},
            hcomp2={k: v for k, v in B.hcomp2.items() if k != pair},
        )
        new, oracle = _generations(C, 3)
        assert isinstance(new[0], type), (field, key, pair)  # an exception: (type, message)
        assert new == oracle, (field, key, pair)


def test_generation_and_coherence_cells_leave_no_cyclic_garbage():
    # the memo helpers are module-level functions, not closures that refer to
    # themselves, so every memo a call drops is freed at once
    B, sign = _bicategory("z3"), _base("sign")
    chains = list(_chains(sign))
    gc.collect()
    gc.disable()
    try:
        eq._generate(B, 4)
        for edges in chains:
            for g1, g2 in itertools.product(all_bracketings(len(edges)), repeat=2):
                coherence_cell(sign, edges, g1, g2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_replay_that_meets_nothing_raises_the_first_exception(monkeypatch):
    # a whiskering that raises once and then succeeds leaves the replay
    # nothing to meet, so the exception first met is raised
    calls, first, whisk = [], RuntimeError("first whiskering"), eq._whisk

    def once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise first
        return whisk(*args)

    monkeypatch.setattr(eq, "_whisk", once)
    with pytest.raises(RuntimeError) as info:
        eq._generate(_bicategory("sign"), 3)
    assert info.value is first
    assert len(calls) == 33  # the first, then the replay's of every occupant's rows


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
