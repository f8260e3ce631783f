"""Differential tests of the generator-level substitution check.

The oracle is the earlier ``validate_op1``, kept as it was: it checks the
substitution law on every contiguous segment of every path.  The library
checks only the generating segments (the unit laws on one-edge paths, the two
bracketings of three-edge paths, and peeling the last edge off longer paths),
and skips substitution while a row has the wrong endpoints.  Its report
contract against the oracle:

* ``ok`` is the same at every bound;
* every violation other than ``substitution`` is the same, in the same order;
* the ``substitution`` witnesses are an ordered subsequence of the oracle's;
* where a row with the wrong endpoints makes the oracle raise ``KeyError``,
  the library reports ``endpoints``.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from opetokit.core import FiniteOpOneCat, path_endpoints, validate_op1
from opetokit.equivalences import from_category
from opetokit.errors import ValidationReport, _Collector
from opetokit.fixtures import small_category_family, z2_category
from path_oracles import iter_paths  # the enumerator of PastingPath objects

# ---------------------------------------------------------------------------
# oracle: the all-segments checker


def oracle_validate_op1(X: FiniteOpOneCat) -> ValidationReport:
    out = _Collector()
    for f, (s, t) in X.cells1.items():
        if s not in X.objects or t not in X.objects:
            out.add("dangling id", (f,), "endpoint object missing")
    for key, result in X.comp.items():
        if result not in X.cells1:
            out.add("dangling id", (result,), f"comp{key} names an unknown 1-cell")

    paths = list(iter_paths(X))
    known = set(X.comp)
    for p in paths:
        if p.key() not in known:
            out.add("totality", (p.key(),), "composable path has no recorded composite")
    valid_keys = {p.key() for p in paths}
    for key in known - valid_keys:
        out.add("dangling id", (key,), "comp entry for a path that does not exist at this bound")
    if not out.items:
        for p in paths:
            result = X.comp[p.key()]
            s, t = path_endpoints(X, p)
            if X.cells1[result] != (s, t):
                out.add("endpoints", (p.key(), result))
            if p.arity == 1 and result != p.edges[0]:
                out.add("singleton", (p.edges[0], result), "comp of a one-edge path must be that edge")
        comp = X.comp
        bound = X.arity_bound
        for p in paths:
            whole = comp[p.key()]
            edges = p.edges
            m = len(edges)
            # objects sitting at positions 0..m along the path
            if m == 0:
                at = [p.anchor]
            else:
                at = [X.cells1[edges[0]][0]] + [X.cells1[e][1] for e in edges]
            for i in range(m + 1):
                prefix = edges[:i]
                for j in range(i, m + 1):
                    segment = edges[i:j]
                    mid = comp[(1,) + segment if segment else (0, at[i])]
                    collapsed = prefix + (mid,) + edges[j:]
                    if len(collapsed) > bound:
                        continue
                    if comp[(1,) + collapsed] != whole:
                        out.add(
                            "substitution",
                            (p.key(), i, j),
                            f"comp disagrees after collapsing segment [{i}:{j}]",
                        )
    return out.report(arity_bound=X.arity_bound)


def _check_contract(X: FiniteOpOneCat, case: str = "") -> ValidationReport:
    """Assert the report contract against the oracle; return the new report."""
    new = validate_op1(X)
    try:
        old = oracle_validate_op1(X)
    except KeyError:
        assert "endpoints" in new.rules(), case
        return new
    assert new.ok == old.ok, case
    assert new.notes["arity_bound"] == old.notes["arity_bound"], case
    rest_new = [v for v in new.violations if v.rule != "substitution"]
    rest_old = [v for v in old.violations if v.rule != "substitution"]
    assert rest_new == rest_old, case
    old_subst = iter(v for v in old.violations if v.rule == "substitution")
    assert all(v in old_subst for v in new.violations if v.rule == "substitution"), case
    return new


# ---------------------------------------------------------------------------
# inputs

FAMILY = [z2_category()] + small_category_family()


@pytest.mark.parametrize("bound", range(6))
def test_agrees_with_oracle_on_the_category_family(bound):
    # every category up to bound 4, every 34th at bound 5
    for n, C in enumerate(FAMILY if bound < 5 else FAMILY[::34]):
        assert _check_contract(from_category(C, bound), f"category {n}").ok


# categories with two distinct parallel arrows, so that a row can name
# another arrow of the right frame
PARALLEL = [C for C in FAMILY if len(set(C.arrows.values())) < len(C.arrows)]
HOWS = ("one entry", "two entries", "left fold", "right fold", "misframed")


def _others(X: FiniteOpOneCat, key: tuple, framed: bool) -> list[str]:
    """The 1-cells a corruption may put in row ``key`` instead of its own."""
    result = X.comp[key]
    return sorted(
        f for f, frame in X.cells1.items()
        if f != result and (frame == X.cells1[result] or not framed)
    )


def _fold(comp: dict, edges: tuple, left: bool) -> str:
    """Composite of ``edges`` through the binary rows of ``comp``."""
    if left:
        acc = edges[0]
        for e in edges[1:]:
            acc = comp[(1, acc, e)]
        return acc
    acc = edges[-1]
    for e in reversed(edges[:-1]):
        acc = comp[(1, e, acc)]
    return acc


def _corrupt(seed: int) -> FiniteOpOneCat:
    """A seeded corruption of one category's composition table.

    ``one entry`` and ``two entries`` change rows to other arrows of the
    right frame at bound 2, 3 or 4.  The folds change one binary row to
    another arrow of its frame and recompute every longer row as the left or
    the right fold of the changed binary table, at bound 3 or 4: a table
    that only one of the two bracketings can reject.  ``misframed`` changes
    one or two rows to any other arrow, mostly one of the wrong frame.
    """
    rng = random.Random(seed)
    how = HOWS[seed % len(HOWS)]
    C = rng.choice(PARALLEL)
    X = from_category(C, rng.choice((3, 4) if "fold" in how else (2, 3, 4)))
    comp = dict(X.comp)
    framed = how != "misframed"
    rows = [
        key for key in comp
        if key[0] and (len(key) == 3 or "fold" not in how) and _others(X, key, framed)
    ]
    count = 2 if how == "two entries" or (how == "misframed" and seed % 2) else 1
    for key in rng.sample(sorted(rows), count):
        comp[key] = rng.choice(_others(X, key, framed))
    if "fold" in how:
        left = how == "left fold"
        for key in comp:
            if len(key) > 3:
                comp[key] = _fold(comp, key[1:], left)
    return dataclasses.replace(X, comp=comp)


@pytest.mark.parametrize("how", HOWS)
def test_agrees_with_oracle_on_corruptions(how):
    for seed in range(HOWS.index(how), 400, len(HOWS)):
        _check_contract(_corrupt(seed), f"seed {seed}")


def _generator(witness: tuple) -> str:
    key, i, j = witness
    m = len(key) - 1
    if m == 1:
        return "left unit" if i == 0 else "right unit"
    if m == 3:
        return "bracket left" if (i, j) == (0, 2) else "bracket right"
    return "peel"


def test_corruptions_reach_every_generator():
    # for each kind of generating instance, a corruption that only instances
    # of that kind reject: checking one kind fewer changes the verdict there
    alone, misframed_oracle_crashes = set(), 0
    for seed in range(400):
        X = _corrupt(seed)
        report = validate_op1(X)
        kinds = {_generator(v.witness) for v in report.violations if v.rule == "substitution"}
        if len(kinds) == 1 and set(report.rules()) == {"substitution"}:
            alone |= kinds
        if HOWS[seed % len(HOWS)] == "misframed":
            try:
                oracle_validate_op1(X)
            except KeyError:
                misframed_oracle_crashes += 1
    assert alone == {"left unit", "right unit", "bracket left", "bracket right", "peel"}
    assert misframed_oracle_crashes > 0

