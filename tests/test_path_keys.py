"""Differential tests of path keys and prefix folds.

The oracles in ``path_oracles`` enumerate ``PastingPath`` objects and fold or
search every path from scratch.  The library enumerates path keys, builds
every per-path table from the row of the path's prefix, and derives the
coherence occupant of a long niche from its prefix's.  Within one process the
two must give the same key sequence, the same tables in the same insertion
order, and equal coherence reports in both modes (or the same exception), on
the generated sign, idempotent and arrow presentations at bounds 2 to 5, the
Z3 2-group at bound 4, the category family and the seeded op2 corruptions of
``test_op2_oracle``.  The hom categories are also compared, rows in order, on
the shipped op2cat fixture, the generated presentations and Z3 read at bounds
3 to 5.

Generation, which caches its per-shape graft legs and cuts each inner bucket
at the bound, is also compared on the Z2 and Z3 2-groups at bounds 2 to 5, on
Z4 at bound 4, on seeded single-entry corruptions of the bicategories' tables
and on every dropped or moved 2-cell of sign and arrow; there the same first
exception counts as agreement.  Three kinds of corruption are aimed at the
row writer, which computes a path's legs before any occupant writes: a
vertical composite missing for a later occupant only, a cell missing for a
later occupant's composite only, and a first occupant's row failing before
a later row's leg of the same path.  The oracle's traceback says where its
loop raised, so each kind is picked out of every single-entry corruption.

The one intended difference: the oracle emits its ``composite 1-cell not
universal`` violations, its last group, in frozenset order; the library in
``cells2`` order.  The comparison puts the oracle's group in ``cells2``
order first.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import inspect
import random
from pathlib import Path

import pytest

import opetokit.equivalences as eq
import path_oracles as old
from opetokit import serialize
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
from test_op2_oracle import FIXTURE, _corrupt, _outcome

ROOT = Path(__file__).resolve().parent.parent
FAMILY = [z2_category()] + small_category_family()
BICATEGORIES = {
    "sign": sign_bicategory,
    "idempotent": idempotent_bicategory,
    "arrow": arrow_bicategory,
}


_spec = importlib.util.spec_from_file_location("groups", ROOT / "perfbench" / "groups.py")
groups = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(groups)


def _bicategory(name: str) -> FiniteBicategory:
    """A fixture bicategory by name, or the Z_n 2-group for ``"z<n>"``."""
    if name in BICATEGORIES:
        return BICATEGORIES[name]()
    return groups.zn_bicategory(int(name[1:]), FiniteBicategory)


@functools.cache
def _generated(name: str, bound: int):
    """The library's and the oracle's ``_generate`` on one bicategory."""
    B = _bicategory(name)
    return eq._generate(B, bound), old._generate(B, bound)


GENERATED = [(name, bound) for name in BICATEGORIES for bound in (2, 3, 4, 5)] + [("z3", 4)]
WIDER = [(name, bound) for name in ("z2", "z3") for bound in (2, 3, 5)] + [("z4", 4)]


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


def _tables(gen) -> tuple:
    """Every table of a generation as item lists, in insertion order.

    The oracle's ``value_of`` holds ``PastingPath`` sources; their keys stand
    in for them.
    """
    X = gen.structure
    return (
        X,
        *(list(getattr(X, table).items()) for table in ("cells2", "ident2", "graft")),
        list(gen.biasing.iota.items()),
        list(gen.biasing.c.items()),
        list(gen.cell_of.items()),
        [
            (cid, (p.key() if isinstance(p, PastingPath) else p, alpha))
            for cid, (p, alpha) in gen.value_of.items()
        ],
    )


@pytest.mark.parametrize("name, bound", GENERATED + WIDER)
def test_generation_agrees_with_oracle(name, bound):
    B = _bicategory(name)
    new = eq._generate(B, bound)
    assert _tables(new) == _tables(old._generate(B, bound))
    assert all(type(cell.source) is PastingPath for cell in new.structure.cells2.values())
    assert all(type(key) is tuple for key, _ in new.value_of.values())


@pytest.mark.parametrize("n", (2, 3, 4))
def test_graft_rows_match_the_group_law(n):
    # the row count of the Z_n presentation, computed from the group law
    # alone, pins the arity cut independently of both implementations
    for bound in (2, 3, 4, 5):
        graft = eq._generate(groups.zn_bicategory(n, FiniteBicategory), bound).structure.graft
        assert len(graft) == groups.zn_graft_rows(n, bound), bound


CORRUPTED_TABLES = ("vcomp", "hcomp1", "hcomp2", "assoc", "lunit", "runit")
CORRUPTION_SEEDS = range(240)


def _corrupt_bicategory(seed: int) -> tuple[FiniteBicategory, int]:
    """One entry of one table of sign, idempotent, arrow or Z3 dropped or
    replaced by another cell of its kind, with a bound to generate at."""
    rng = random.Random(seed)
    name = ("sign", "idempotent", "arrow", "z3")[seed % 4]
    B = _bicategory(name)
    field = CORRUPTED_TABLES[seed // 4 % len(CORRUPTED_TABLES)]
    table = dict(getattr(B, field))
    key = rng.choice(sorted(table))
    cells = B.one_cells if field == "hcomp1" else B.two_cells
    others = sorted(c for c in cells if c != table[key])
    if seed // 24 % 3 == 0 or not others:
        del table[key]
    else:
        table[key] = rng.choice(others)
    bound = 3 if name == "z3" else rng.choice((2, 3, 4))
    return dataclasses.replace(B, **{field: table}), bound


@pytest.mark.parametrize("seed", CORRUPTION_SEEDS)
def test_generation_agrees_with_oracle_on_corrupt_bicategories(seed):
    # no validate_bicategory in front: both loops meet the corrupt entry
    B, bound = _corrupt_bicategory(seed)
    new = _outcome(lambda: _tables(eq._generate(B, bound)))
    oracle = _outcome(lambda: _tables(old._generate(B, bound)))
    assert new == oracle


def _reframed(B: FiniteBicategory):
    """Every single-entry corruption of ``B.two_cells``: one 2-cell dropped,
    or moved to the frame of another."""
    frames = sorted(set(B.two_cells.values()))
    for alpha, frame in B.two_cells.items():
        for other in [None] + [f for f in frames if f != frame]:
            two_cells = dict(B.two_cells)
            if other is None:
                del two_cells[alpha]
            else:
                two_cells[alpha] = other
            yield dataclasses.replace(B, two_cells=two_cells)


@pytest.mark.parametrize("name", ("sign", "arrow"))
def test_generation_agrees_with_oracle_on_reframed_two_cells(name):
    # here a graft leg can fail after a row of the same outer path already
    # failed, which tells caches filled in visiting order from caches filled
    # for all slots up front
    for n, B in enumerate(_reframed(_bicategory(name))):
        new = _outcome(lambda: _tables(eq._generate(B, 3)))
        assert new == _outcome(lambda: _tables(old._generate(B, 3))), n


def test_corrupt_bicategories_reach_the_error_path():
    raised = [
        seed
        for seed in CORRUPTION_SEEDS
        if type(_outcome(eq._generate, *_corrupt_bicategory(seed))) is tuple
    ]
    assert len(raised) >= 50


_ORACLE_LINES, _ORACLE_START = inspect.getsourcelines(old._generate)
_VALUE_LINE, _CELL_LINE = (
    _ORACLE_START + next(n for n, line in enumerate(_ORACLE_LINES) if text in line)
    for text in ("value = B.then2(", "graft_table[(outer_id")
)


def _oracle_failure(B: FiniteBicategory, bound: int, rows: dict):
    """Where the oracle's row-by-row loop first raises on ``B``: ``(read,
    outer id, row index)`` with ``read`` one of ``"leg"``, ``"composite"``
    (the occupant's vertical composite) and ``"cell"`` (the cell of that
    composite), and the row's index among the outer cell's ``rows``;
    ``None`` if the oracle raises outside its graft loop or not at all."""
    try:
        old._generate(B, bound)
    except Exception as exc:
        tb, frame = exc.__traceback__, None
        while tb is not None:
            if tb.tb_frame.f_code is old._generate.__code__:
                frame, line = tb.tb_frame.f_locals, tb.tb_lineno
            tb = tb.tb_next
        if frame is None or "inner_id" not in frame:
            return None
        if line == _CELL_LINE:
            read = "cell"
        elif line == _VALUE_LINE and (frame["whisk"], frame["coh"]) in B.vcomp:
            read = "composite"
        else:
            read = "leg"
        outer_id, row = frame["outer_id"], (frame["slot"], frame["inner_id"])
        return read, outer_id, rows[outer_id].index(row)
    return None


@functools.cache
def _shape(name: str, bound: int):
    """The first occupant of each path and each outer cell's rows (slot,
    inner id) in order, as generated from the sound bicategory."""
    gen = eq._generate(_bicategory(name), bound)
    first = {}
    for cid, (key, _) in gen.value_of.items():
        first.setdefault(key, cid)
    rows: dict[str, list] = {}
    for outer_id, slot, inner_id in gen.structure.graft:
        rows.setdefault(outer_id, []).append((slot, inner_id))
    return set(first.values()), rows


WRITER_CASES = [("z3", 3), ("sign", 3), ("arrow", 3)]


@functools.cache
def _single_failures(name: str, bound: int):
    """Each single corruption of the vertical and horizontal 2-cell tables
    with the oracle's failure on it: every ``vcomp`` entry dropped or set to
    the first 2-cell of another frame, every ``hcomp2`` entry dropped."""
    B = _bicategory(name)
    corruptions = []
    for key, value in B.vcomp.items():
        other = next(c for c in sorted(B.two_cells) if B.two_cells[c] != B.two_cells[value])
        for entry in (None, other):
            table = dict(B.vcomp)
            if entry is None:
                del table[key]
            else:
                table[key] = entry
            corruptions.append(("vcomp", table))
    for key in B.hcomp2:
        table = dict(B.hcomp2)
        del table[key]
        corruptions.append(("hcomp2", table))
    rows = _shape(name, bound)[1]
    return [
        (field, table, _oracle_failure(dataclasses.replace(B, **{field: table}), bound, rows))
        for field, table in corruptions
    ]


def _assert_writer_agrees(B: FiniteBicategory, bound: int):
    new = _outcome(lambda: _tables(eq._generate(B, bound)))
    assert isinstance(new[0], type), new  # an exception: (type, message)
    assert new == _outcome(lambda: _tables(old._generate(B, bound)))


@pytest.mark.parametrize("read", ("composite", "cell"))
@pytest.mark.parametrize("name, bound", WRITER_CASES)
def test_a_later_occupant_fails_where_the_first_did_not(name, bound, read):
    # the path's first occupant writes every row; a later occupant's
    # composite with one of the path's legs is missing ("composite"), or is
    # a 2-cell of another frame, so the spliced path has no cell with that
    # label ("cell")
    B = _bicategory(name)
    first, _ = _shape(name, bound)
    cases = [
        table
        for field, table, failure in _single_failures(name, bound)
        if field == "vcomp" and failure and failure[0] == read and failure[1] not in first
    ]
    assert len(cases) >= 2
    for vcomp in cases:
        _assert_writer_agrees(dataclasses.replace(B, vcomp=vcomp), bound)


@pytest.mark.parametrize("name, bound", WRITER_CASES)
def test_a_first_occupant_row_fails_before_a_later_leg(name, bound):
    # the writer computes all of a path's legs before the first occupant
    # writes a row, so it meets the leg failure of a later row first; the
    # row-by-row loop meets the first occupant's failure at row r first,
    # and so must the replay
    B = _bicategory(name)
    first, rows = _shape(name, bound)
    singles = _single_failures(name, bound)
    pairs = 0
    for field, table, failure in singles:
        if field != "vcomp" or not failure or failure[0] == "leg" or failure[1] not in first:
            continue
        _, outer_id, r = failure
        for _, legs, (read, leg_outer, leg_row) in (s for s in singles if s[0] == "hcomp2" and s[2]):
            if read == "leg" and leg_outer == outer_id and leg_row > r:
                C = dataclasses.replace(B, vcomp=table, hcomp2=legs)
                assert _oracle_failure(C, bound, rows) == failure
                _assert_writer_agrees(C, bound)
                pairs += 1
    assert pairs >= 10


@pytest.mark.parametrize("name, bound", GENERATED)
def test_paths_homs_and_coherence_agree_on_generated_structures(name, bound):
    X = _generated(name, bound)[0].structure
    _assert_same_keys(X)
    _assert_same_homs(X)
    _assert_same_coherence(X)


@pytest.mark.parametrize("bound", (3, 4, 5))
def test_homs_agree_on_the_fixtures_and_z3(bound):
    # the shipped op2cat fixture, the generated fixtures and Z3 at bound 4,
    # each read at another bound: hom tables long enough to be read by position
    fixture = serialize.from_doc(serialize.load_path(str(FIXTURE)))[0]
    named = {name: _generated(name, 4)[0].structure for name in (*BICATEGORIES, "z3")}
    for name, X in {"op2cat.json": fixture, **named}.items():
        _assert_same_homs(dataclasses.replace(X, arity_bound=bound))


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
