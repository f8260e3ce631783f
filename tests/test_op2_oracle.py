"""Differential tests of the indexed niche lookups and law checks.

The oracles below are the earlier linear-scan implementations, kept as they
were (``validate_op2`` with its one-line splice helper inlined, counting
the law instances it compares and, instance by instance, those it leaves
out because the unit laws settle them):
``occupants_of_niche`` and ``factorizations_through`` scan all of ``cells2``,
``validate_op2`` enumerates every law instance and skips the ones whose
composites have no table entry (it pairs rows with no arity cut, so an
instance whose composite would be longer than the bound reads an absent
row), and the universality predicates and
``_solve_unique`` scan ``cells2`` per query.  The library must agree with
them, report for report and in the same order, on the shipped fixture, the
generated structures and seeded corruptions of their grafting tables.

``python tests/test_op2_oracle.py`` runs the full differential sweep of
``validate_op2``: seeded one- and two-entry corruptions of the fixture, of
``sign`` at bounds 3 to 5 and of Z3, some breaking a unit row and some
leaving the units clean.  Each report must equal the oracle's, and its
violations those of the oracle comparing every instance.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import itertools
import random
import re
from pathlib import Path

import pytest

import opetokit.core as core
import opetokit.equivalences as eq
import opetokit.universality as uni
from opetokit import serialize
from opetokit.bicat import FiniteBicategory
from opetokit.core import (
    FiniteOpTwoCat,
    TwoCell,
    occupants_of_niche,
    path,
    path_endpoints,
    validate_op2,
)
from opetokit.errors import (
    ArityError,
    DanglingId,
    FrameMismatch,
    NicheMismatch,
    NonUniqueSolution,
    NoSolution,
    ValidationReport,
    _Collector,
)
from opetokit.fixtures import (
    arrow_bicategory,
    idempotent_bicategory,
    sign_bicategory,
)
from opetokit.universality import factorizations_through
from path_oracles import iter_paths  # the enumerator of PastingPath objects

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "docs" / "fixtures" / "op2cat.json"

_spec = importlib.util.spec_from_file_location("groups", ROOT / "perfbench" / "groups.py")
groups = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(groups)


# ---------------------------------------------------------------------------
# oracles: the linear-scan implementations


def oracle_occupants_of_niche(X, p):
    path_endpoints(X, p)
    return {cid for cid, cell in X.cells2.items() if cell.source == p}


def oracle_factorizations_through(X, a, c):
    cell_a = X.cell(a)
    cell_c = X.cell(c)
    if cell_a.source != cell_c.source:
        raise NicheMismatch(f"{a!r} and {c!r} occupy different niches")
    wanted = path(cell_a.target)
    return {
        b
        for b, cell in X.cells2.items()
        if cell.source == wanted and X.graft.get((b, 0, a)) == c
    }


def oracle_is_universal_2cell(X, a):
    cell = X.cell(a)
    for c in oracle_occupants_of_niche(X, cell.source):
        if len(oracle_factorizations_through(X, a, c)) != 1:
            return False
    return True


def oracle_is_universal_factorization_1(X, u):
    cell = X.cell(u)
    if cell.source.arity != 2:
        raise ArityError(f"{u!r} has arity {cell.source.arity}, expected 2")
    f, gbar = cell.source.edges
    frame = X.cells1[gbar]
    for h, fr in X.cells1.items():
        if fr != frame:
            continue
        probe = path(f, h)
        for v, vc in X.cells2.items():
            if vc.source != probe or vc.target != cell.target:
                continue
            matches = [
                t
                for t, tc in X.cells2.items()
                if tc.source == path(h)
                and tc.target == gbar
                and X.graft.get((u, 1, t)) == v
            ]
            if len(matches) != 1:
                return False
    return True


def oracle_is_universal_1cell(X, f):
    if f not in X.cells1:
        raise DanglingId(f"unknown 1-cell {f!r}")
    src_f = X.src1(f)
    for g, (s, _) in X.cells1.items():
        if s != src_f:
            continue
        universal_through = [
            u
            for u, uc in X.cells2.items()
            if uc.source.arity == 2
            and uc.source.edges[0] == f
            and uc.target == g
            and oracle_is_universal_2cell(X, u)
        ]
        if not universal_through:
            return False
        for u in universal_through:
            if not oracle_is_universal_factorization_1(X, u):
                return False
    return True


def oracle_solve_unique(X, base, composite, what):
    src_needed = X.cells2[base].target
    matches = [
        t
        for t, cell in X.cells2.items()
        if cell.source == path(src_needed) and X.graft.get((t, 0, base)) == composite
    ]
    if not matches:
        raise NoSolution(f"no {what} over {base!r} reaching {composite!r}")
    if len(matches) > 1:
        raise NonUniqueSolution(f"{what} over {base!r} not unique: {sorted(matches)}")
    return matches[0]


def oracle_validate_op2(X: FiniteOpTwoCat, imply: bool = True) -> ValidationReport:
    out = _Collector()
    for f, (s, t) in X.cells1.items():
        if s not in X.objects or t not in X.objects:
            out.add("dangling id", (f,), "endpoint object missing")
    for cid, cell in X.cells2.items():
        if cid != cell.id:
            out.add("dangling id", (cid,), "cell stored under a different id")
        if cell.target not in X.cells1:
            out.add("dangling id", (cid, cell.target), "target 1-cell missing")
            continue
        try:
            s, t = path_endpoints(X, cell.source)
        except (DanglingId, FrameMismatch) as exc:
            out.add("dangling id", (cid,), str(exc))
            continue
        if X.cells1[cell.target] != (s, t):
            out.add("frame", (cid,), "source path endpoints differ from target endpoints")
        if cell.source.arity > X.arity_bound:
            out.add("dangling id", (cid,), "2-cell on a path that does not exist at this bound")
    if out.items:
        return out.report(arity_bound=X.arity_bound)

    for f in X.cells1:
        ident = X.ident2.get(f)
        if ident is None or ident not in X.cells2:
            out.add("identity", (f,), "no identity 2-cell recorded")
            continue
        cell = X.cells2[ident]
        if cell.source != path(f) or cell.target != f:
            out.add("identity", (f, ident), "identity 2-cell has the wrong frame")
    for f in set(X.ident2) - set(X.cells1):
        out.add("dangling id", (f,), "identity recorded for an unknown 1-cell")

    # totality and frame agreement of the grafting table
    by_target: dict[str, list[str]] = {}
    for cid, cell in X.cells2.items():
        by_target.setdefault(cell.target, []).append(cid)
    for cid, outer in sorted(X.cells2.items()):
        for slot, edge in enumerate(outer.source.edges):
            for inner_id in by_target.get(edge, ()):
                inner = X.cells2[inner_id]
                if outer.source.arity + inner.source.arity - 1 > X.arity_bound:
                    continue
                key = (cid, slot, inner_id)
                if key not in X.graft:
                    out.add("totality", key, "in-bound graft has no table entry")
    for (cid, slot, inner_id), result in X.graft.items():
        if cid not in X.cells2 or inner_id not in X.cells2 or result not in X.cells2:
            out.add("dangling id", (cid, slot, inner_id, result))
            continue
        outer, inner = X.cells2[cid], X.cells2[inner_id]
        if not 0 <= slot < outer.source.arity:
            out.add("frame", (cid, slot, inner_id), "slot out of range")
            continue
        if inner.target != outer.source.edges[slot]:
            out.add("frame", (cid, slot, inner_id), "inner target differs from the slot edge")
            continue
        res = X.cells2[result]
        if res.source != outer.source.splice(slot, inner.source):
            out.add("frame", (cid, slot, inner_id), "result source is not the spliced path")
        if res.target != outer.target:
            out.add("frame", (cid, slot, inner_id), "result target differs from the outer target")
    if out.items:
        return out.report(arity_bound=X.arity_bound)

    # unit laws
    for cid, outer in X.cells2.items():
        for slot, edge in enumerate(outer.source.edges):
            key = (cid, slot, X.ident2[edge])
            if X.graft.get(key) != cid:
                out.add("right unit", key, "grafting an identity must not change the cell")
    for cid, cell in X.cells2.items():
        ident = X.ident2[cell.target]
        key = (ident, 0, cid)
        if X.graft.get(key) != cid:
            out.add("left unit", key, "grafting under an identity must not change the cell")

    # the instances compared and those the unit laws settle, per law: once
    # both hold, an instance grafting an identity as b or c is not compared
    # (with ``imply`` off, every instance is)
    checked = dict.fromkeys(("sequential associativity", "parallel commutation"), 0)
    implied = dict.fromkeys(checked, 0)
    units = set(X.ident2.values()) if imply and not out.items else set()

    # sequential associativity: graft(graft(a,i,b), i+j, c) = graft(a, i, graft(b,j,c))
    entries_by_inner: dict[str, list[tuple[str, int, str]]] = {}
    for key in X.graft:
        entries_by_inner.setdefault(key[2], []).append(key)
    for (b, j, c), bc in X.graft.items():
        for (a, i, _b) in entries_by_inner.get(b, ()):
            ab = X.graft[(a, i, b)]
            lhs = X.graft.get((ab, i + j, c))
            rhs = X.graft.get((a, i, bc))
            if lhs is None or rhs is None:
                # the composite leaves the bound; nothing to compare
                continue
            if b in units or c in units:
                implied["sequential associativity"] += 1
                continue
            checked["sequential associativity"] += 1
            if lhs != rhs:
                out.add("sequential associativity", (a, i, b, j, c), f"{lhs} != {rhs}")

    # parallel commutation for disjoint slots of one outer cell
    by_outer: dict[str, list[tuple[int, str, str]]] = {}
    for (a, i, b), r in X.graft.items():
        by_outer.setdefault(a, []).append((i, b, r))
    for a, rows in by_outer.items():
        for (i, b, r_ib), (j, c, r_jc) in itertools.combinations(sorted(rows), 2):
            if i == j:
                continue
            if i > j:
                (i, b, r_ib), (j, c, r_jc) = (j, c, r_jc), (i, b, r_ib)
            shift = X.cells2[b].source.arity - 1
            lhs = X.graft.get((r_ib, j + shift, c))
            rhs = X.graft.get((r_jc, i, b))
            if lhs is None or rhs is None:
                continue
            if b in units or c in units:
                implied["parallel commutation"] += 1
                continue
            checked["parallel commutation"] += 1
            if lhs != rhs:
                out.add("parallel commutation", (a, i, b, j, c), f"{lhs} != {rhs}")
    return out.report(arity_bound=X.arity_bound, checked=checked, implied=implied)


# ---------------------------------------------------------------------------
# structures


@functools.cache
def _structures() -> dict[str, tuple]:
    """Named (structure, biasing) pairs: the fixture and generated ones.

    ``sign-5-at-4`` keeps the arity-5 cells of a bound-5 generation under
    bound 4, cells that do not exist at that bound.  ``sign-5-sparse-at-4``
    also drops every graft row, other than a unit row, whose result is
    longer than 4.
    """
    X5, b5 = eq.from_bicategory(sign_bicategory(), 5)
    units = set(X5.ident2.values())
    sparse = {
        key: result
        for key, result in X5.graft.items()
        if X5.arity(result) <= 4 or key[0] in units or key[2] in units
    }
    return {
        "fixture": serialize.from_doc(serialize.load_path(str(FIXTURE))),
        "sign": eq.from_bicategory(sign_bicategory()),
        "sign-5": (X5, b5),
        "sign-5-at-4": (dataclasses.replace(X5, arity_bound=4), b5),
        "sign-5-sparse-at-4": (dataclasses.replace(X5, graft=sparse, arity_bound=4), b5),
        "idempotent": eq.from_bicategory(idempotent_bicategory()),
        "arrow": eq.from_bicategory(arrow_bicategory()),
    }


STRUCTURE_NAMES = (
    "fixture", "sign", "sign-5", "sign-5-at-4", "sign-5-sparse-at-4", "idempotent", "arrow"
)
CORRUPTED_BASES = ("fixture", "sign", "idempotent", "arrow", "sign-5")


def _corrupt(seed: int):
    """A seeded corruption of one structure's grafting table.

    Drops a row, swaps a row's result (any row's, or a unit row's) for
    another occupant of its niche, or both.  Returns the corrupted structure
    and the biasing of the original.
    """
    rng = random.Random(seed)
    name = CORRUPTED_BASES[seed % len(CORRUPTED_BASES)]
    X, b = _structures()[name]
    table = dict(X.graft)
    how = ("drop", "swap", "unit swap", "both")[seed // len(CORRUPTED_BASES) % 4]
    rows = _unit_rows(X) if how == "unit swap" else list(table)
    if how != "drop":
        _swap_row(X, table, rng, rows)
    if how in ("drop", "both"):
        del table[rng.choice(rows)]
    return dataclasses.replace(X, graft=table), b


@functools.cache
def _zn(n: int) -> FiniteOpTwoCat:
    """The Z_n 2-group's presentation at bound 4."""
    return eq.from_bicategory(groups.zn_bicategory(n, FiniteBicategory), 4)[0]


def _swap_row(X: FiniteOpTwoCat, table: dict, rng: random.Random, rows) -> None:
    """Swap, in ``table``, the result of one of ``rows`` for another occupant
    of its niche with the same target, which keeps every frame intact."""

    def others(key):
        cell = X.cells2[X.graft[key]]
        return [
            cid
            for cid in X.occupants[cell.source.key()]
            if cid != X.graft[key] and X.cells2[cid].target == cell.target
        ]

    key = rng.choice([key for key in rows if others(key)])
    table[key] = rng.choice(others(key))


def _swap_result(X: FiniteOpTwoCat, seed: int) -> FiniteOpTwoCat:
    """One seeded graft row's result swapped for another occupant of its niche."""
    table = dict(X.graft)
    _swap_row(X, table, random.Random(seed), list(X.graft))
    return dataclasses.replace(X, graft=table)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception is part of the compared outcome
        return (type(exc), str(exc))


def _with_oracles(monkeypatch, fn, *args):
    with monkeypatch.context() as m:
        m.setattr(uni, "is_universal_2cell", oracle_is_universal_2cell)
        m.setattr(uni, "is_universal_1cell", oracle_is_universal_1cell)
        m.setattr(eq, "is_universal_2cell", oracle_is_universal_2cell)
        m.setattr(eq, "_solve_unique", oracle_solve_unique)
        return _outcome(fn, *args)


def _assert_agrees(monkeypatch, X, b):
    report = validate_op2(X)
    assert report == oracle_validate_op2(X)
    for cid, cell in X.cells2.items():
        assert occupants_of_niche(X, cell.source) == oracle_occupants_of_niche(X, cell.source)
        assert _outcome(uni.is_universal_2cell, X, cid) == _outcome(
            oracle_is_universal_2cell, X, cid
        ), cid
        if cell.source.arity == 2:
            assert _outcome(uni.is_universal_factorization_1, X, cid) == _outcome(
                oracle_is_universal_factorization_1, X, cid
            ), cid
    niches: dict[tuple, list[str]] = {}
    for cid, cell in X.cells2.items():
        niches.setdefault(cell.source.key(), []).append(cid)
    for niche in niches.values():
        for a, c in itertools.product(niche, repeat=2):
            assert factorizations_through(X, a, c) == oracle_factorizations_through(X, a, c)
    for f in X.cells1:
        assert uni.is_universal_1cell(X, f) == oracle_is_universal_1cell(X, f), f
    for p in iter_paths(X):
        assert occupants_of_niche(X, p) == oracle_occupants_of_niche(X, p)
    for run in (
        (uni.check_coherence, X),
        (uni.check_coherence, X, True),
        (eq.choose_biasing, X),
        (eq.to_bicategory, X, b, False),
    ):
        assert _outcome(*run) == _with_oracles(monkeypatch, *run), run[0].__name__
    return report


@pytest.mark.parametrize("name", STRUCTURE_NAMES)
def test_agrees_with_oracle_on_clean_structures(monkeypatch, name):
    # a structure read below the bound it was generated at is rejected
    X, b = _structures()[name]
    assert _assert_agrees(monkeypatch, X, b).ok == (not name.endswith("-at-4"))


@pytest.mark.parametrize("seed", range(60))
def test_agrees_with_oracle_on_corruptions(monkeypatch, seed):
    X, b = _corrupt(seed)
    _assert_agrees(monkeypatch, X, b)


def test_corruptions_reach_every_law():
    rules: set[str] = set()
    several_in_one_group = False
    for seed in range(60):
        X, _ = _corrupt(seed)
        violations = validate_op2(X).violations
        rules |= {v.rule for v in violations}
        for rule in ("sequential associativity", "parallel commutation"):
            witnesses = [v.witness for v in violations if v.rule == rule]
            several_in_one_group |= len(witnesses) != len(set(w[2:] for w in witnesses))
    assert {"totality", "right unit", "left unit", "sequential associativity",
            "parallel commutation"} <= rules
    assert several_in_one_group


def test_agrees_with_oracle_on_z3():
    report = validate_op2(_zn(3))
    assert report == oracle_validate_op2(_zn(3))
    assert report.ok


@pytest.mark.parametrize("seed", range(6))
def test_agrees_with_oracle_on_z3_swaps(seed):
    # each law's batches hold many outer cells; only some of them fail
    Y = _swap_result(_zn(3), seed)
    assert validate_op2(Y) == oracle_validate_op2(Y)


def test_z3_swaps_reach_both_laws():
    rules: set[str] = set()
    for seed in range(6):
        rules |= validate_op2(_swap_result(_zn(3), seed)).rules()
    assert {"sequential associativity", "parallel commutation"} <= rules


def test_law_instances_checked_on_z4():
    # checked + implied: every instance in bound, for sequential
    # associativity perfbench's core.assoc_in_bound on Z4; implied: those
    # grafting an identity as b or c
    assert validate_op2(_zn(4)).notes == {
        "arity_bound": 4,
        "checked": {"sequential associativity": 592_320, "parallel commutation": 267_264},
        "implied": {"sequential associativity": 141_184, "parallel commutation": 97_600},
    }
    assert 592_320 + 141_184 == 733_504 and 267_264 + 97_600 == 364_864


def _unit_rows(X: FiniteOpTwoCat) -> list[tuple]:
    """The graft rows the unit laws read: an identity as outer or inner cell."""
    units = set(X.ident2.values())
    return [key for key in X.graft if key[0] in units or key[2] in units]


def test_a_broken_unit_row_makes_every_instance_compared():
    # both sides of an implied instance are one cell only by the unit laws,
    # so a unit violation sends every instance to the comparison
    X, clean = _zn(3), validate_op2(_zn(3)).notes
    units, table = set(X.ident2.values()), dict(X.graft)
    right_unit_rows = [key for key in X.graft if key[2] in units and key[0] not in units]
    _swap_row(X, table, random.Random(0), right_unit_rows)
    Y = dataclasses.replace(X, graft=table)
    report = validate_op2(Y)
    assert "right unit" in report.rules()
    assert report.notes["implied"] == {"sequential associativity": 0, "parallel commutation": 0}
    for law, checked in report.notes["checked"].items():
        assert checked == clean["checked"][law] + clean["implied"][law]
    assert report == oracle_validate_op2(Y)


def _walked(monkeypatch, X, walk="_compare"):
    """``validate_op2``'s report on X and the number of calls of ``core.<walk>``:
    law batches walked pair by pair, or with ``_walk_table``, tables walked
    row by row."""
    walks = []
    walker = getattr(core, walk)

    def counting(*args):
        walks.append(args)
        return walker(*args)

    with monkeypatch.context() as m:
        m.setattr(core, walk, counting)
        return validate_op2(X), len(walks)


@pytest.mark.parametrize("name", ("z3", "sign", "arrow", "sign-5"))
def test_clean_batches_pass_without_a_walk(monkeypatch, name):
    # every entry a getter reads is present, so every batch is accepted by
    # its getters alone
    X = _zn(3) if name == "z3" else _structures()[name][0]
    report, walked = _walked(monkeypatch, X)
    assert report.ok and walked == 0


@pytest.mark.parametrize("name", ("z3", "fixture", "sign", "arrow", "idempotent"))
def test_clean_tables_pass_without_a_walk(monkeypatch, name):
    # every block of rows passes and the blocks cover the whole table
    X = _zn(3) if name == "z3" else _structures()[name][0]
    report, walked = _walked(monkeypatch, X, "_walk_table")
    assert report.ok and walked == 0


@pytest.mark.parametrize("unit_row", (False, True), ids=("units hold", "unit row broken"))
def test_a_block_with_several_failing_batches_walks_only_those(monkeypatch, unit_row):
    # one swapped Z3 row breaks several batches (b, c) of one parallel block
    # (slot pair and arity pair), a block holding a unit c; only the batches
    # that differ are walked, not every batch of the block
    X = _zn(3)
    units, table = set(X.ident2.values()), dict(X.graft)
    _swap_row(X, table, random.Random(35), sorted(X.graft.keys() - set(_unit_rows(X))))
    if unit_row:
        right_unit_rows = [key for key in X.graft if key[2] in units and key[0] not in units]
        _swap_row(X, table, random.Random(0), right_unit_rows)
    Y = dataclasses.replace(X, graft=table)
    report, walked = _walked(monkeypatch, Y)
    assert report == oracle_validate_op2(Y)
    blocks: dict[tuple, set] = {}
    for v in report.filter("parallel commutation"):
        a, i, b, j, c = v.witness
        edges = X.cells2[a].source.edges
        blocks.setdefault((i, edges[i], j, edges[j], X.arity(b), X.arity(c)), set()).add((b, c))
    # a block with kc = 1 holds the unit c = 1_ej
    assert any(len(batches) > 1 for (*_, kc), batches in blocks.items() if kc == 1)
    laws = ("sequential associativity", "parallel commutation")
    assert walked == len({(v.rule, v.witness[1:]) for v in report.violations if v.rule in laws})
    clean = validate_op2(X).notes["implied"]
    assert report.notes["implied"] == (dict.fromkeys(laws, 0) if unit_row else clean)


@functools.cache
def _sign_6_at_4() -> FiniteOpTwoCat:
    """``sign`` generated at bound 6 and kept under bound 4: cells past the
    bound by one and by two."""
    return dataclasses.replace(eq.from_bicategory(sign_bicategory(), 6)[0], arity_bound=4)


@pytest.mark.parametrize("name", ("sign-5-at-4", "sign-5-sparse-at-4", "sign-6-at-4"))
def test_cells_longer_than_the_bound_are_dangling(monkeypatch, name):
    # the cell phase names each cell past the bound, in cells2 order, and
    # stops before the table
    X = _sign_6_at_4() if name == "sign-6-at-4" else _structures()[name][0]
    report, walked = _walked(monkeypatch, X, "_walk_table")
    past = [cid for cid, cell in X.cells2.items() if cell.source.arity > 4]
    assert past and walked == 0
    assert [(v.rule, v.witness, v.message) for v in report.violations] == [
        ("dangling id", (cid,), "2-cell on a path that does not exist at this bound")
        for cid in past
    ]
    assert report == oracle_validate_op2(X)


REJECT_BASES = ("sign", "arrow", "idempotent", "sign-5", "z3")
REJECTIONS = (
    "other niche", "other target", "unknown id", "slot out of range",
    "inner off the edge", "longer than the bound", "drop",
)


def _reject(seed: int) -> FiniteOpTwoCat:
    """A seeded corruption of one structure's grafting table that its table
    phase rejects: a result swapped for a cell of another niche, for an
    occupant (else any cell) with another target or for an unknown id, an
    added row with a slot out of range, with an inner cell that targets
    another edge or longer than the bound, or a dropped in-bound row.  A
    corruption that needs a second 1-cell moves on to the next base."""
    rng = random.Random(seed)
    how = REJECTIONS[seed // len(REJECT_BASES) % len(REJECTIONS)]
    for shift in range(len(REJECT_BASES)):
        name = REJECT_BASES[(seed + shift) % len(REJECT_BASES)]
        X = _zn(3) if name == "z3" else _structures()[name][0]
        if len(X.cells1) > 1 or how not in ("other target", "inner off the edge"):
            break
    cells, bound, table = X.cells2, X.arity_bound, dict(X.graft)
    arity = {cid: cell.source.arity for cid, cell in cells.items()}
    by_target: dict[str, list[str]] = {}
    for cid, cell in cells.items():
        by_target.setdefault(cell.target, []).append(cid)
    key = rng.choice(sorted(table))
    result = cells[table[key]]
    if how == "other niche":
        table[key] = rng.choice(sorted(c for c, cell in cells.items() if cell.source != result.source))
    elif how == "other target":
        other = sorted(c for c, cell in cells.items() if cell.target != result.target)
        same_niche = [c for c in other if cells[c].source == result.source]
        table[key] = rng.choice(same_niche or other)
    elif how == "unknown id":
        table[key] = "ghost"
    elif how == "drop":
        del table[rng.choice(sorted(k for k in table if arity[k[0]] + arity[k[2]] <= bound + 1))]
    else:
        a = rng.choice(sorted(c for c in cells if arity[c]))
        if how == "slot out of range":
            row = (a, arity[a], rng.choice(sorted(cells)))
        elif how == "inner off the edge":
            i = rng.randrange(arity[a])
            edge = cells[a].source.edges[i]
            row = (a, i, rng.choice(sorted(c for c, cell in cells.items() if cell.target != edge)))
        else:  # "longer than the bound"
            a = rng.choice(sorted(c for c in cells if arity[c] == max(arity.values())))
            row = rng.choice(sorted(
                (a, i, b)
                for i, edge in enumerate(cells[a].source.edges)
                for b in by_target.get(edge, ())
                if arity[a] + arity[b] > bound + 1 and (a, i, b) not in table
            ))
        table[row] = rng.choice(sorted(cells))
    return dataclasses.replace(X, graft=table)


@pytest.mark.parametrize("seed", range(len(REJECT_BASES) * len(REJECTIONS)))
def test_agrees_with_oracle_on_table_rejections(seed):
    Y = _reject(seed)
    report = validate_op2(Y)
    assert not report.ok
    assert report == oracle_validate_op2(Y)


def test_table_rejections_reach_every_table_rule():
    reached = set()
    for seed in range(len(REJECT_BASES) * len(REJECTIONS)):
        reached |= {(v.rule, v.message) for v in validate_op2(_reject(seed)).violations}
    assert {("totality", "in-bound graft has no table entry"), ("dangling id", "")} | {
        ("frame", message) for message in (
            "slot out of range",
            "inner target differs from the slot edge",
            "result source is not the spliced path",
            "result target differs from the outer target",
        )
    } <= reached


def test_getter_of_one_key_returns_a_one_tuple():
    # a bare itemgetter("ab") returns the value, which a getter built over
    # it would read character by character
    assert core._getter(["ab"])({"ab": "cd"}) == ("cd",)
    assert core._getter(["ab", "x"])({"ab": "cd", "x": "y"}) == ("cd", "y")
    with pytest.raises(KeyError):
        core._getter(["ab"])({})


def _single_outer_batches(X: FiniteOpTwoCat) -> dict[tuple, str]:
    """Parallel-commutation batches (i, b, j, c) with one outer cell: that cell."""
    rows: dict[str, list[tuple[int, str]]] = {}
    for a, i, b in X.graft:
        rows.setdefault(a, []).append((i, b))
    outers: dict[tuple, list[str]] = {}
    for a, slots in rows.items():
        for (i, b), (j, c) in itertools.permutations(slots, 2):
            shift = X.cells2[b].source.arity - 1
            if (
                i < j
                and (X.graft[(a, i, b)], j + shift, c) in X.graft
                and (X.graft[(a, j, c)], i, b) in X.graft
            ):
                outers.setdefault((i, b, j, c), []).append(a)
    return {batch: cells[0] for batch, cells in outers.items() if len(cells) == 1}


def test_swap_in_a_single_outer_batch_is_reported():
    X, _ = _structures()["arrow"]
    singles = _single_outer_batches(X)
    assert singles
    # the first such batch whose composite has another occupant to swap in
    for (i, b, j, c), a in singles.items():
        key = (X.graft[(a, i, b)], j + X.cells2[b].source.arity - 1, c)
        result = X.cells2[X.graft[key]]
        others = [
            cid
            for cid in X.occupants[result.source.key()]
            if cid != X.graft[key] and X.cells2[cid].target == result.target
        ]
        if others:
            break
    else:
        pytest.fail("no single-outer batch reads a swappable entry")
    Y = dataclasses.replace(X, graft={**X.graft, key: others[0]})
    report = validate_op2(Y)
    assert report == oracle_validate_op2(Y)
    assert (a, i, b, j, c) in [v.witness for v in report.filter("parallel commutation")]


def test_coherence_counts_searched_and_derived_niches_on_z4():
    assert uni.check_coherence(_zn(4)).notes == {"niches": {"searched": 21, "derived": 320}}
    direct = uni.check_coherence(_zn(4), direct_niche_search=True)
    assert direct.notes == {"niches": {"searched": 341, "derived": 0}}
    assert len(direct.niche_universals) == 341
    assert dataclasses.replace(direct, notes={}) == direct  # notes take no part in equality


def _first_phase_corruption(how: str):
    """A copy of ``sign`` (``arrow`` for ``frame``) broken in its cells or
    identities, and the one violation ``validate_op2`` must report."""
    X, _ = _structures()["arrow" if how == "frame" else "sign"]
    cells1, cells2, ident2 = dict(X.cells1), dict(X.cells2), dict(X.ident2)
    if how == "endpoint object":
        cells1["stray"] = ("nowhere", "pt")
        expected = ("dangling id", ("stray",), "endpoint object missing")
    elif how == "stored under another id":
        cells2["alias"] = X.cells2["1e"]
        expected = ("dangling id", ("alias",), "cell stored under a different id")
    elif how == "target 1-cell":
        cells2["lost"] = TwoCell("lost", path("e"), "ghost")
        expected = ("dangling id", ("lost", "ghost"), "target 1-cell missing")
    elif how == "frame":
        cells2["skew"] = TwoCell("skew", path("iA"), "iB")
        expected = ("frame", ("skew",), "source path endpoints differ from target endpoints")
    elif how == "no identity":
        del ident2["s"]
        expected = ("identity", ("s",), "no identity 2-cell recorded")
    elif how == "identity frame":
        ident2["e"] = "1s"
        expected = ("identity", ("e", "1s"), "identity 2-cell has the wrong frame")
    else:  # "identity on an unknown 1-cell"
        ident2["ghost"] = "1e"
        expected = ("dangling id", ("ghost",), "identity recorded for an unknown 1-cell")
    return dataclasses.replace(X, cells1=cells1, cells2=cells2, ident2=ident2), expected


@pytest.mark.parametrize("how", (
    "endpoint object", "stored under another id", "target 1-cell", "frame",
    "no identity", "identity frame", "identity on an unknown 1-cell",
))
def test_cell_and_identity_rules_name_their_witness(how):
    Y, expected = _first_phase_corruption(how)
    report = validate_op2(Y)
    assert [(v.rule, v.witness, v.message) for v in report.violations] == [expected]
    assert report == oracle_validate_op2(Y)


def test_graft_row_on_a_nullary_outer_is_out_of_range():
    # slot 0 of an empty source key (0, anchor) holds no edge, though the key
    # has an entry at the slot edge's index
    X, _ = _structures()["sign"]
    Y = dataclasses.replace(X, graft={**X.graft, ("@pt|1e", 0, "1e"): "1e"})
    report = validate_op2(Y)
    assert report == oracle_validate_op2(Y)
    assert [(v.witness, v.message) for v in report.violations] == [
        (("@pt|1e", 0, "1e"), "slot out of range")
    ]


def test_empty_inner_in_a_one_edge_outer_splices_to_the_inner_key():
    X, _ = _structures()["sign"]
    rows = [key for key in X.graft if key[0] in ("1e", "ne") and key[2].startswith("@")]
    assert len(rows) == 4
    for key in rows:
        assert X.cells2[X.graft[key]].source.key() == X.cells2[key[2]].source.key() == (0, "pt")
    # a one-edge result in place of the empty one breaks the frame
    Y = dataclasses.replace(X, graft={**X.graft, ("ne", 0, "@pt|1e"): "1e"})
    report = validate_op2(Y)
    assert report == oracle_validate_op2(Y)
    assert [(v.witness, v.message) for v in report.violations] == [
        (("ne", 0, "@pt|1e"), "result source is not the spliced path")
    ]


def test_solve_unique_wraps_the_shared_solver():
    X, b = _structures()["idempotent"]
    iota, t_iota = "@pt|1", "@pt|t"
    assert eq._solve_unique(X, iota, t_iota, "probe") == oracle_solve_unique(X, iota, t_iota, "probe")
    for raising in (eq._solve_unique, oracle_solve_unique):
        with pytest.raises(NoSolution, match=re.escape("no probe over '@pt|t' reaching '@pt|1'")):
            raising(X, t_iota, iota, "probe")
    table = {**X.graft, ("1", 0, iota): t_iota}
    Y = dataclasses.replace(X, graft=table)
    assert _outcome(eq._solve_unique, Y, iota, t_iota, "probe") == _outcome(
        oracle_solve_unique, Y, iota, t_iota, "probe"
    )
    with pytest.raises(NonUniqueSolution):
        eq._solve_unique(Y, iota, t_iota, "probe")


def test_binary_factorisation_reached_twice_or_never():
    # grafting into slot 1 of u: one occupant reached by two 1-ary cells, or
    # by none once a row is gone
    X, b = _structures()["sign"]
    u = b.c[("s", "s")]
    first, second = sorted(
        key for key in X.graft if key[:2] == (u, 1) and X.cells2[key[2]].source.arity == 1
    )[:2]
    twice = dataclasses.replace(X, graft={**X.graft, second: X.graft[first]})
    never = dataclasses.replace(X, graft={k: r for k, r in X.graft.items() if k != second})
    assert oracle_is_universal_factorization_1(X, u) and uni.is_universal_factorization_1(X, u)
    for Y in (twice, never):
        assert not oracle_is_universal_factorization_1(Y, u)
        assert not uni.is_universal_factorization_1(Y, u)


# ---------------------------------------------------------------------------
# the differential sweep: seeded corruptions that break a unit row (every
# instance compared) and corruptions that leave the units clean (the
# instances grafting an identity implied)

SWEEP_HOWS = (
    "unit row", "other row", "drop",
    "unit row + other row", "other row + other row", "other row + drop",
)


@functools.cache
def _sweep_bases() -> dict[str, FiniteOpTwoCat]:
    return {
        "fixture": _structures()["fixture"][0],
        "sign-3": eq.from_bicategory(sign_bicategory(), 3)[0],
        "sign": _structures()["sign"][0],
        "sign-5": _structures()["sign-5"][0],
        "z3": _zn(3),
    }


def _sweep_case(name: str, how: str, seed: int) -> FiniteOpTwoCat:
    """A seeded corruption of a sweep base: each step of ``how`` swaps a unit
    row's or another row's result, or drops a row."""
    X = _sweep_bases()[name]
    rng = random.Random(f"{name}/{how}/{seed}")
    unit_rows = _unit_rows(X)
    rows = {"unit row": unit_rows, "other row": sorted(X.graft.keys() - set(unit_rows))}
    table = dict(X.graft)
    for step in how.split(" + "):
        if step == "drop":
            del table[rng.choice(sorted(table))]
        else:
            _swap_row(X, table, rng, rows[step])
    return dataclasses.replace(X, graft=table)


def _sweep(seeds: range, z3_seeds: range) -> dict[str, int]:
    """Compare whole reports with the oracle over the sweep, and their
    violations with those of the oracle comparing every instance; the number
    of cases by the branch they reached."""
    branches = dict.fromkeys(("stopped before the laws", "every instance compared",
                              "identity instances implied"), 0)
    for name in _sweep_bases():
        for how, seed in itertools.product(SWEEP_HOWS, z3_seeds if name == "z3" else seeds):
            Y = _sweep_case(name, how, seed)
            report = validate_op2(Y)
            assert report == oracle_validate_op2(Y), (name, how, seed)
            # comparing every instance finds the same violations
            full = oracle_validate_op2(Y, imply=False)
            assert full.violations == report.violations, (name, how, seed)
            for law, n in full.notes.get("checked", {}).items():
                assert n == report.notes["checked"][law] + report.notes["implied"][law]
            if "implied" not in report.notes:
                branches["stopped before the laws"] += 1
            elif any(report.notes["implied"].values()):
                branches["identity instances implied"] += 1
            else:
                branches["every instance compared"] += 1
    return branches


def test_sweep_sample_reaches_both_law_branches():
    # each kind of corruption reaches one branch, whatever the seed
    branches = _sweep(range(1), range(0))
    assert all(branches.values()), branches


if __name__ == "__main__":  # the full sweep
    import time

    start = time.perf_counter()
    tally = _sweep(range(40), range(8))
    print(f"{sum(tally.values())} cases agree with the oracle in "
          f"{time.perf_counter() - start:.1f} s: {tally}")
