"""Differential tests of the classical side's composable-tuple lookups.

The oracles in ``classical_oracles`` find the cells that compose with a given
one by scanning a whole table and skipping the rows that do not match; the
library takes them from ``composable_pairs``, ``composable_triples`` and
the bicategory's ``after`` index.  The two must give:

- equal ``validate_bicategory`` reports, rule, witness, message and order,
  on the fixture bicategories, the Z3 2-group, the labelled Z2 bicategory of
  ``test_bicat``, the broken-pentagon fixture with its cell tables in
  reversed order (whose pentagon witnesses follow ``one_cells`` order, not
  sorted order), 1,280 seeded single-entry corruptions of eight tables and
  300 seeded two-defect corruptions of ``vcomp`` and ``hcomp1`` (one entry
  dropped, another replaced), which pin where a table's totality report
  falls among its entries' reports;
- equal ``to_bicategory`` tables, in insertion order, on the presentations
  generated from those corruptions and on presentations with one swapped
  graft row under a chosen occupant (or the same exception);
- equal ``_normalize`` results on every bracketed chain of up to four edges;
- equal ``validate_category`` reports against the oracle that scans every
  pair and triple of arrows, on z2, the 673 family members, and every
  single-entry drop or reassignment of ``compose`` and ``identities`` on z2
  and a seeded sample of 100 family members (9,205 corruptions);
- equal composition tables of the category family, in order, and equal
  sequences of tables, each in insertion order, from ``_category_tables`` on
  every configuration of at most 3 non-identity arrows on 3 objects (220
  configurations, 1,131 tables);
- equal ``is_universal_1cell_op1`` verdicts on every arrow of the family.

The family build must also leave no cyclic garbage.  ``python
tests/test_classical_oracle.py`` runs the full sweep of ``_category_tables``,
which adds the 35 configurations of 4 non-identity arrows on 2 objects.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import importlib.util
import itertools
import random
from pathlib import Path

import pytest

import classical_oracles as old
import opetokit.equivalences as eq
from opetokit import fixtures
from opetokit.bicat import (
    Bracketing,
    FiniteBicategory,
    FiniteCategory,
    _normalize,
    all_bracketings,
    validate_bicategory,
    validate_category,
)
from opetokit.universality import is_universal_1cell_op1
from test_bicat import labelled_z2_bicategory
from test_op2_oracle import _outcome

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("groups", ROOT / "perfbench" / "groups.py")
groups = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(groups)


def _reversed_cells(B: FiniteBicategory) -> FiniteBicategory:
    """``B`` with ``one_cells`` and ``two_cells`` in reversed insertion order."""
    return dataclasses.replace(B, one_cells=dict(reversed(B.one_cells.items())),
                               two_cells=dict(reversed(B.two_cells.items())))


BASES = {
    "sign": fixtures.sign_bicategory,
    "twisted": fixtures.sign_bicategory_twisted_units,
    "broken pentagon": fixtures.sign_bicategory_broken_pentagon,
    "broken pentagon, reversed": lambda: _reversed_cells(fixtures.sign_bicategory_broken_pentagon()),
    "idempotent": fixtures.idempotent_bicategory,
    "arrow": fixtures.arrow_bicategory,
    "z3": lambda: groups.zn_bicategory(3, FiniteBicategory),
    "labelled z2": labelled_z2_bicategory,
}
TABLES = ("vcomp", "hcomp1", "hcomp2", "assoc", "lunit", "runit", "id1", "id2")
SEEDS_PER_TABLE = 20  # 8 bases x 8 tables x 20 = 1,280 corruptions
CATEGORY_SAMPLE = 100  # family members corrupted entry by entry, beside z2


@functools.cache
def _base(name: str) -> FiniteBicategory:
    return BASES[name]()


def _corrupt(name: str, field: str, seed: int) -> FiniteBicategory:
    """One entry of one table dropped, or replaced by another cell of its kind."""
    rng = random.Random(f"{name}/{field}/{seed}")
    B = _base(name)
    table = dict(getattr(B, field))
    key = rng.choice(sorted(table))
    cells = B.one_cells if field in ("hcomp1", "id1") else B.two_cells
    others = sorted(c for c in cells if c != table[key])
    if seed % 3 == 0 or not others:
        del table[key]
    else:
        table[key] = rng.choice(others)
    return dataclasses.replace(B, **{field: table})


def _corruptions():
    for name, field in itertools.product(BASES, TABLES):
        for seed in range(SEEDS_PER_TABLE):
            yield (name, field, seed), _corrupt(name, field, seed)


def _bicategory_tables(B) -> tuple:
    """A bicategory with each table as an item list, in insertion order."""
    if not isinstance(B, FiniteBicategory):
        return B
    return B, *(list(getattr(B, f.name).items()) for f in dataclasses.fields(B)[1:])


@pytest.mark.parametrize("name", BASES)
def test_reports_agree_on_the_bases(name):
    B = _base(name)
    assert validate_bicategory(B) == old.validate_bicategory(B)


@pytest.mark.parametrize("name, field", itertools.product(BASES, TABLES))
def test_reports_agree_on_corruptions(name, field):
    for seed in range(SEEDS_PER_TABLE):
        B = _corrupt(name, field, seed)
        assert _outcome(validate_bicategory, B) == _outcome(old.validate_bicategory, B), seed


def _corrupt_twice(name: str, field: str, seed: int) -> FiniteBicategory:
    """One entry of a composition table dropped and another replaced, by a
    cell of another frame where there is one."""
    rng = random.Random(f"{name}/{field}/twice/{seed}")
    B = _base(name)
    table = dict(getattr(B, field))
    dropped, replaced = rng.sample(sorted(table), 2)
    cells = B.one_cells if field == "hcomp1" else B.two_cells
    value = table[replaced]
    del table[dropped]
    others = sorted(c for c in cells if cells[c] != cells[value])
    table[replaced] = rng.choice(others or sorted(c for c in cells if c != value))
    return dataclasses.replace(B, **{field: table})


TWICE = [(name, field) for name, field in itertools.product(BASES, ("vcomp", "hcomp1"))
         if len(getattr(_base(name), field)) > 1]  # 15 tables x 20 = 300 corruptions


@pytest.mark.parametrize("name, field", TWICE)
def test_reports_agree_on_two_defects_in_one_table(name, field):
    for seed in range(SEEDS_PER_TABLE):
        B = _corrupt_twice(name, field, seed)
        assert _outcome(validate_bicategory, B) == _outcome(old.validate_bicategory, B), seed


def test_two_defect_corruptions_mix_totality_and_entry_reports():
    # the sweep above pins the order only if a report holds both kinds
    for field, entry_rule in (("vcomp", "hom category"), ("hcomp1", "frame")):
        reports = [validate_bicategory(_corrupt_twice(name, field, seed)).rules()
                   for name, seed in itertools.product(BASES, range(SEEDS_PER_TABLE))
                   if (name, field) in TWICE]
        assert sum({"totality", entry_rule} <= rules for rules in reports) >= 5, field


def test_corruptions_reach_the_rewritten_rules():
    rules = {
        v.rule
        for _, B in _corruptions()
        for v in getattr(_outcome(validate_bicategory, B), "violations", ())
    }
    assert {"interchange", "associator naturality", "pentagon", "triangle"} <= rules


def _swap_chosen_row(gen, seed: int):
    """One graft row under a chosen binary occupant, its result swapped for
    another occupant of its niche with the same target: ``to_bicategory``
    reads such rows for ``hcomp2``."""
    X, b = gen.structure, gen.biasing
    rng = random.Random(seed)
    chosen = set(b.c.values())

    def others(key):
        cell = X.cells2[X.graft[key]]
        niche = X.occupants[cell.source.key()]
        return [c for c in niche if c != X.graft[key] and X.cells2[c].target == cell.target]

    key = rng.choice([key for key in X.graft if key[0] in chosen and others(key)])
    return dataclasses.replace(X, graft={**X.graft, key: rng.choice(others(key))})


def _generated_inputs(name: str):
    """Presentations at bound 3, with their biasings, of the corruptions of
    ``name`` that still generate, and of ``name`` with swapped chosen rows."""
    for field, seed in itertools.product(TABLES, range(SEEDS_PER_TABLE)):
        gen = _outcome(eq._generate, _corrupt(name, field, seed), 3)
        if type(gen) is not tuple:
            yield gen.structure, gen.biasing
    gen = eq._generate(_base(name), 3)
    for seed in range(40):
        yield _swap_chosen_row(gen, seed), gen.biasing


def test_to_bicategory_agrees_on_generated_corruptions():
    # solved back without checks: hcomp2 comes out of every pair of
    # composable 1-ary cells, so a corrupt row can raise part-way through
    outcomes = []
    for name in BASES:
        for n, (X, b) in enumerate(_generated_inputs(name)):
            new = _outcome(lambda: _bicategory_tables(eq.to_bicategory(X, b, check=False)))
            oracle = _outcome(lambda: _bicategory_tables(old.to_bicategory(X, b, check=False)))
            assert new == oracle, (name, n)
            outcomes.append(isinstance(new[0], FiniteBicategory))
    assert len(outcomes) >= 400 and len(set(outcomes)) == 2


@pytest.mark.parametrize("name", ("sign", "twisted", "arrow", "z3"))
def test_normalize_agrees_on_bracketed_chains(name):
    B = _base(name)
    chains = [
        edges
        for m in (2, 3, 4)
        for edges in itertools.product(B.one_cells, repeat=m)
        if all(B.tgt1(f) == B.src1(g) for f, g in zip(edges, edges[1:]))
    ]
    for edges in chains:
        pairs = [(g, old._tree_of(g, edges)) for g in all_bracketings(len(edges))]
        comb = old._comb_tree([(old._LEAF, e) for e in edges])
        pairs.append((Bracketing.canonical(len(edges)), comb))
        for g, t in pairs:
            assert _outcome(_normalize, B, g, edges, {}, {}) == _outcome(old._normalize, B, t), (edges, t)


@functools.cache
def _families():
    new = fixtures.small_category_family()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fixtures, "_category_tables", old._category_tables)
        oracle = fixtures.small_category_family()
    return new, oracle


def test_category_family_agrees_with_oracle():
    new, oracle = _families()
    assert len(new) == len(oracle) == 673
    for n, (C, D) in enumerate(zip(new, oracle)):
        assert C == D, n
        assert list(C.compose.items()) == list(D.compose.items()), n


def _category_corruptions(C: FiniteCategory):
    """``C`` with one entry of ``compose`` or ``identities`` dropped, or
    reassigned to another arrow or to an unknown one, in each way."""
    for field in ("compose", "identities"):
        table = getattr(C, field)
        for key, value in table.items():
            yield dataclasses.replace(C, **{field: {k: v for k, v in table.items() if k != key}})
            for f in (*C.arrows, "zz"):
                if f != value:
                    yield dataclasses.replace(C, **{field: {**table, key: f}})


def test_category_reports_agree_with_oracle():
    family = _families()[0]
    for n, C in enumerate([fixtures.z2_category(), *family]):
        assert validate_category(C) == old.validate_category(C), n
    rules = set()
    for C in [fixtures.z2_category(), *random.Random(5).sample(family, CATEGORY_SAMPLE)]:
        for D in _category_corruptions(C):
            report = validate_category(D)
            assert report == old.validate_category(D), D
            rules |= report.rules()
    assert rules == {"dangling id", "identity", "frame", "totality", "unit", "associativity"}


def _arrow_configurations(objects: tuple[str, ...], extra: int):
    """Every arrow configuration on ``objects`` with ``extra`` non-identity
    arrows: one per multiset of homs, the arrows named in hom order."""
    identities = {o: f"id{o}" for o in objects}
    homs = list(itertools.product(objects, repeat=2))
    for chosen in itertools.combinations_with_replacement(homs, extra):
        arrows = {identities[o]: (o, o) for o in objects}
        arrows.update((f"a{k}", hom) for k, hom in enumerate(chosen))
        yield objects, arrows, identities


def _tables_agree(configurations) -> tuple[int, int]:
    """Configurations and tables compared; each sequence of tables, and each
    table's insertion order, must equal the oracle's."""
    configs = tables = 0
    for objects, arrows, identities in configurations:
        new = [list(t.items()) for t in fixtures._category_tables(objects, arrows, identities)]
        oracle = [list(t.items()) for t in old._category_tables(objects, arrows, identities)]
        assert new == oracle, arrows
        configs, tables = configs + 1, tables + len(new)
    return configs, tables


def test_category_tables_agree_with_oracle_on_three_objects():
    configurations = (c for extra in range(4) for c in _arrow_configurations(("A", "B", "C"), extra))
    assert _tables_agree(configurations) == (220, 1131)


def test_the_family_build_leaves_no_cyclic_garbage():
    # the backtracker holds no reference cycle, so every table it drops is
    # freed at once; a cycle would wait for the collector, beside the next
    # build's tables
    gc.collect()
    gc.disable()
    try:
        fixtures.small_category_family()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_universal_1cell_verdicts_agree_on_the_family():
    # every arrow of every category, and of a copy with one length-2 row dropped
    verdicts = set()
    for n, C in enumerate(_families()[0]):
        X = eq.from_category(C, 2)
        rows = [key for key in X.comp if len(key) == 3]
        dropped = dict(X.comp)
        del dropped[random.Random(n).choice(rows)]
        for Y in (X, dataclasses.replace(X, comp=dropped)):
            for f in Y.cells1:
                verdict = is_universal_1cell_op1(Y, f)
                assert verdict == old.is_universal_1cell_op1(Y, f), (n, f)
                verdicts.add(verdict)
    assert verdicts == {True, False}


if __name__ == "__main__":  # the full sweep: also every 2-object configuration with 6 arrows
    for objects, most in ((("A", "B", "C"), 3), (("A", "B"), 4)):
        for extra in range(most + 1):
            configs, tables = _tables_agree(_arrow_configurations(objects, extra))
            print(f"{len(objects)} objects, {extra} non-identity arrows: "
                  f"{configs} configurations, {tables} tables agree")
