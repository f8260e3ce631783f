"""The equivalence over two generated families of bicategories.

- Z_n for n = 2, 3, 4 with associator k times the carry cocycle, for every
  k in Z_n: every class of the carry family, the trivial one included.  The
  tables come from ``perfbench/groups.py``, loaded by file path.
- The locally discrete bicategory of a category (one identity 2-cell per
  arrow, associators and unitors identities), over a seeded sample of
  ``small_category_family()``.

For each, at arity bound 3: ``validate_bicategory`` is ok; ``from_bicategory`` gives a
structure that validates and coheres; solving back with ``choose_biasing``
gives the bicategory; regenerating gives the structure and the biasing.
Both generators live here; no library code builds these bicategories.

Between locally discrete bicategories a lax functor is a functor, so
``validate_functor`` on the categories is an independent oracle for
``validate_lax_functor``; for a functor, translating to a morphism of the
presentations and back gives the lax functor.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

from opetokit import (
    CatFunctor,
    FiniteBicategory,
    LaxFunctor,
    check_coherence,
    choose_biasing,
    from_bicategory,
    lax_functor_from_morphism,
    morphism_from_lax_functor,
    to_bicategory,
    validate_bicategory,
    validate_functor,
    validate_lax_functor,
    validate_op2,
)
from opetokit.fixtures import small_category_family

BOUND = 3
LOCALLY_DISCRETE_SAMPLE = 60
FUNCTOR_SAMPLE = 16  # categories C, each with three maps out of it


def _load_groups():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "groups.py"
    spec = importlib.util.spec_from_file_location("groups", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


groups = _load_groups()


def twisted_zn(n: int, k: int) -> FiniteBicategory:
    """Z_n whose associator on (h, g, f) has index k * carry(h, g, f)."""
    cell = groups.one_cell
    tables = groups.zn_tables(n)
    tables["assoc"] = {
        (cell(h), cell(g), cell(f)): groups.two_cell(k * groups.cocycle(n, h, g, f) % n,
                                                     cell((h + g + f) % n))
        for h in range(n)
        for g in range(n)
        for f in range(n)
    }
    return FiniteBicategory(**tables)


def locally_discrete(C) -> FiniteBicategory:
    """C with one identity 2-cell per arrow; every constraint is an identity."""
    ident = {f: f"1{f}" for f in C.arrows}
    return FiniteBicategory(
        objects=tuple(C.objects),
        one_cells=dict(C.arrows),
        two_cells={ident[f]: (f, f) for f in C.arrows},
        id2=dict(ident),
        vcomp={(a, a): a for a in ident.values()},
        id1=dict(C.identities),
        hcomp1=dict(C.compose),
        hcomp2={(ident[g], ident[f]): ident[gf] for (g, f), gf in C.compose.items()},
        assoc={
            (h, g, f): ident[C.compose[(C.compose[(h, g)], f)]]
            for (g, f) in C.compose
            for (h, g2) in C.compose
            if g2 == g
        },
        lunit=dict(ident),
        runit=dict(ident),
    )


def check_equivalence(B: FiniteBicategory, bound: int = BOUND) -> None:
    report = validate_bicategory(B)
    assert report.ok, report
    X, biasing = from_bicategory(B, bound)
    assert validate_op2(X).ok
    assert check_coherence(X).ok
    chosen = choose_biasing(X)
    assert to_bicategory(X, chosen) == B
    assert from_bicategory(to_bicategory(X, chosen), bound) == (X, biasing)
    assert chosen == biasing


CARRY_CASES = [(n, k) for n in (2, 3, 4) for k in range(n)]


@pytest.mark.parametrize("n, k", CARRY_CASES, ids=[f"Z{n}-k{k}" for n, k in CARRY_CASES])
def test_twisted_zn(n, k):
    check_equivalence(twisted_zn(n, k))


def test_carry_multiples_are_distinct_tables():
    # the k-th multiple changes the associator table unless k = 0
    for n in (2, 3, 4):
        plain = twisted_zn(n, 1)
        assert plain == groups.zn_bicategory(n, FiniteBicategory)
        assert len({tuple(sorted(twisted_zn(n, k).assoc.items())) for k in range(n)}) == n


FAMILY = small_category_family()
SAMPLE = sorted(random.Random(17).sample(range(len(FAMILY)), LOCALLY_DISCRETE_SAMPLE))


@pytest.mark.parametrize("index", SAMPLE)
def test_locally_discrete(index):
    check_equivalence(locally_discrete(FAMILY[index]))


def _maps(C, D, rng: random.Random) -> list[tuple[CatFunctor, object]]:
    """(map, target) pairs: the identity on C; the identity with one arrow
    sent to another arrow of its frame, when C has two parallel arrows; and a
    map C -> D sending each arrow to a random arrow of its image frame (any
    arrow when there is none)."""
    identity = CatFunctor({a: a for a in C.objects}, {f: f for f in C.arrows})
    maps = [(identity, C)]
    parallel = [(f, g) for f in C.arrows for g in C.arrows if f != g and C.arrows[f] == C.arrows[g]]
    if parallel:
        f, g = rng.choice(parallel)
        maps.append((CatFunctor(identity.on_objects, {**identity.on_arrows, f: g}), C))
    on_objects = {a: rng.choice(D.objects) for a in C.objects}
    on_arrows = {}
    for f, (s, t) in C.arrows.items():
        frame = [h for h, st in D.arrows.items() if st == (on_objects[s], on_objects[t])]
        on_arrows[f] = rng.choice(frame or sorted(D.arrows))
    return [*maps, (CatFunctor(on_objects, on_arrows), D)]


def _lax(F: CatFunctor, C) -> LaxFunctor:
    """F between the locally discrete bicategories, with the only possible
    constraints: identity 2-cells on the images of composites and identities."""
    image = F.on_arrows
    return LaxFunctor(
        on_objects=dict(F.on_objects),
        on_one_cells=dict(image),
        on_two_cells={f"1{f}": f"1{image[f]}" for f in C.arrows},
        phi_pair={(g, f): f"1{image[gf]}" for (g, f), gf in C.compose.items()},
        phi_obj={a: f"1{image[i]}" for a, i in C.identities.items()},
    )


FUNCTOR_PAIRS = random.Random(23).sample(range(len(FAMILY)), 2 * FUNCTOR_SAMPLE)


def test_lax_functors_between_locally_discrete_bicategories_are_functors():
    verdicts = []
    for n in range(FUNCTOR_SAMPLE):
        C, D = FAMILY[FUNCTOR_PAIRS[2 * n]], FAMILY[FUNCTOR_PAIRS[2 * n + 1]]
        for F, target in _maps(C, D, random.Random(n)):
            B, B2 = locally_discrete(C), locally_discrete(target)
            G = _lax(F, C)
            functor = validate_functor(F, C, target).ok
            assert validate_lax_functor(G, B, B2).ok == functor
            verdicts.append(functor)
            if functor:
                (X, b), (X2, b2) = from_bicategory(B, BOUND), from_bicategory(B2, BOUND)
                morphism = morphism_from_lax_functor(G, B, B2, BOUND)
                assert lax_functor_from_morphism(morphism, X, X2, b, b2) == G
    assert set(verdicts) == {True, False}
