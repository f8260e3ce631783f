"""Differential tests of the layered ``validate_op1``.

The oracle is the per-key ``validate_op1`` the layered one replaced, kept as
it was except that it counts the generating instances it compares and reads
its keys off the enumerator of ``PastingPath`` objects.  The library checks
a whole path length at a time and walks only a layer whose sides differ;
its report must equal the oracle's, violations, their order and notes, on
the category family at every bound, on the seeded corruptions of
``test_op1_oracle`` and on corruptions aimed at one batch comparison each.
"""

from __future__ import annotations

import dataclasses

import pytest

from opetokit.core import (
    FiniteOpOneCat,
    FiniteOpTwoCat,
    iter_paths,
    validate_op1,
    validate_op2,
)
from opetokit.equivalences import from_bicategory, from_category
from opetokit.errors import ValidationReport, _Collector
from opetokit.fixtures import sign_bicategory, z2_category
from path_oracles import iter_paths as oracle_iter_paths
from test_op1_oracle import FAMILY, _corrupt

# ---------------------------------------------------------------------------
# oracle: the per-key checker

GENERATOR = {(0, 0): "left unit", (1, 1): "right unit", (0, 2): "bracket left",
             (1, 3): "bracket right"}


def oracle_validate_op1(X: FiniteOpOneCat) -> ValidationReport:
    out = _Collector()
    for f, (s, t) in X.cells1.items():
        if s not in X.objects or t not in X.objects:
            out.add("dangling id", (f,), "endpoint object missing")
    for key, result in X.comp.items():
        if result not in X.cells1:
            out.add("dangling id", (result,), f"comp{key} names an unknown 1-cell")

    keys = [p.key() for p in oracle_iter_paths(X)]
    comp, cells1 = X.comp, X.cells1
    for key in keys:
        if key not in comp:
            out.add("totality", (key,), "composable path has no recorded composite")
    known = set(keys)
    for key in comp:
        if key not in known:
            out.add("dangling id", (key,), "comp entry for a path that does not exist at this bound")
    if out.items:
        return out.report(arity_bound=X.arity_bound)
    # frames read off the ends: the paths are composable chains of known 1-cells
    for key in keys:
        result = comp[key]
        frame = (cells1[key[1]][0], cells1[key[-1]][1]) if key[0] else (key[1], key[1])
        if cells1[result] != frame:
            out.add("endpoints", (key, result))
        if len(key) == 2 and key[0] and result != key[1]:
            out.add("singleton", (key[1], result), "comp of a one-edge path must be that edge")
    if any(v.rule == "endpoints" for v in out.items):
        return out.report(arity_bound=X.arity_bound)
    # the instances compared, per generator
    checked = dict.fromkeys(("left unit", "right unit", "bracket left", "bracket right", "peel"), 0)
    # the generating segments of a path of length m < 4; a longer one peels
    generators = {0: (), 1: ((0, 0), (1, 1)), 2: (), 3: ((0, 2), (1, 3))}
    for key in keys:
        edges = key[1:] if key[0] else ()
        for i, j in generators.get(len(edges), ((0, len(edges) - 1),)):
            # an empty segment (m = 1) collapses to the identity at position i
            segment = edges[i:j]
            mid = comp[(1,) + segment if segment else (0, cells1[edges[0]][i])]
            collapsed = edges[:i] + (mid,) + edges[j:]
            if len(collapsed) <= X.arity_bound:
                checked[GENERATOR.get((i, j), "peel")] += 1
                if comp[(1,) + collapsed] != comp[key]:
                    message = f"comp disagrees after collapsing segment [{i}:{j}]"
                    out.add("substitution", (key, i, j), message)
    return out.report(arity_bound=X.arity_bound, checked=checked)


def _assert_agrees(X: FiniteOpOneCat, case: str = "") -> ValidationReport:
    report = validate_op1(X)
    assert report == oracle_validate_op1(X), case
    return report


# ---------------------------------------------------------------------------
# clean tables and the seeded corruptions


@pytest.mark.parametrize("bound", range(6))
def test_agrees_with_oracle_on_the_category_family(bound):
    # every category up to bound 4, every 34th at bound 5
    for n, C in enumerate(FAMILY if bound < 5 else FAMILY[::34]):
        report = _assert_agrees(from_category(C, bound), f"category {n}")
        assert report.ok
        if bound < 2:
            assert set(report.notes["checked"].values()) == {0}


def test_agrees_with_oracle_on_the_seeded_corruptions():
    rules: set[str] = set()
    for seed in range(400):
        rules |= _assert_agrees(_corrupt(seed), f"seed {seed}").rules()
    assert {"endpoints", "singleton", "substitution"} <= rules


def test_path_layers_are_the_paths_by_length():
    for C in FAMILY[::17]:
        for bound in range(6):
            X = from_category(C, bound)
            layers = X.paths
            assert [len(key) - 1 if key[0] else 0 for key in iter_paths(X)] == [
                m for m, layer in enumerate(layers) for _ in layer
            ]
            assert list(iter_paths(X)) == [p.key() for p in oracle_iter_paths(X)]


# ---------------------------------------------------------------------------
# one corruption per batch comparison


def _two_objects() -> FiniteOpOneCat:
    """A category with an arrow between two objects and a second
    endomorphism on one of them, at bound 5."""
    C = next(
        C for C in FAMILY
        if len(C.objects) == 2
        and any(s != t for s, t in C.arrows.values())
        and sum(s == t for s, t in C.arrows.values()) > len(C.objects)
    )
    return from_category(C, 5)


def _with(X: FiniteOpOneCat, changes: dict, drop: tuple = ()) -> FiniteOpOneCat:
    comp = {**X.comp, **changes}
    for key in drop:
        del comp[key]
    return dataclasses.replace(X, comp=comp)


def _others(X: FiniteOpOneCat, key: tuple) -> list[str]:
    """The 1-cells other than row ``key``'s with the same frame."""
    frame = X.cells1[X.comp[key]]
    return sorted(f for f, fr in X.cells1.items() if fr == frame and f != X.comp[key])


def _next_layer_read_off(X: FiniteOpOneCat, key: tuple) -> FiniteOpOneCat:
    """``X`` with row ``key``, framed (a, b) with a != b, named as the unit at
    b, and the next layer's rows rewritten to the peel side: each row the
    binary row of its prefix's row and last edge.  Only a direct frame check
    finds the rewritten rows misframed."""
    comp = {**X.comp, key: X.comp[(0, X.cells1[key[-1]][1])]}
    for longer in X.paths[len(key)]:
        comp[longer] = comp[(1, comp[longer[:-1]], longer[-1])]
    return dataclasses.replace(X, comp=comp)


def _aimed_corruptions() -> dict[str, FiniteOpOneCat]:
    X = _two_objects()
    layers = X.paths
    loop = next(f for f, (s, t) in sorted(X.cells1.items()) if s == t
                and any(g != f and fr == (s, t) for g, fr in X.cells1.items()))
    arrow = next(f for f, (s, t) in sorted(X.cells1.items()) if s != t)
    longest = next(key for key in layers[5] if len(set(key[1:])) > 1 and _others(X, key))
    too_long = longest + (next(g for g, (s, _) in X.cells1.items() if s == X.cells1[longest[-1]][1]),)
    binary = next(key for key in layers[2] if _others(X, key))
    off_arrow = [key for key in layers[2] + layers[5] if X.cells1[X.comp[key]] != X.cells1[arrow]]
    crossing = [next(key for key in layers[m] if len(set(X.cells1[X.comp[key]])) == 2) for m in (2, 3)]
    # two loops, so every layer is as long as the one before
    discrete = from_category(next(C for C in FAMILY if len(C.objects) == len(C.arrows) == 2
                                  and all(s == t for s, t in C.arrows.values())), 4)
    d0, d1 = sorted(discrete.cells1)
    return {
        "result not a 1-cell": _with(X, {layers[2][3]: "zz"}),
        "missing row": _with(X, {}, drop=(layers[4][7],)),
        "extra row beyond the bound": _with(X, {too_long: X.comp[longest]}),
        "misframed empty-path row": _with(X, {(0, X.cells1[arrow][0]): arrow}),
        "one-edge row names another endomorphism": _with(X, {(1, loop): _others(X, (1, loop))[0]}),
        "last-layer row only the peel rejects": _with(X, {longest: _others(X, longest)[0]}),
        "misframed binary row": _with(X, {off_arrow[0]: arrow}),
        "misframed last-layer row": _with(X, {off_arrow[-1]: arrow}),
        "binary row names another parallel 1-cell": _with(X, {binary: _others(X, binary)[0]}),
        "misframed binary row, next layer read off it": _next_layer_read_off(X, crossing[0]),
        "misframed 3-edge row, next layer read off it": _next_layer_read_off(X, crossing[1]),
        "misframed row in a layer as long as the one before": _with(discrete, {(1, d0, d0, d0): d1}),
    }


AIMED = _aimed_corruptions()
EXPECTED_RULES = {
    "result not a 1-cell": {"dangling id"},
    "missing row": {"totality"},
    "extra row beyond the bound": {"dangling id"},
    "misframed empty-path row": {"endpoints"},
    "one-edge row names another endomorphism": {"singleton", "substitution"},
    "last-layer row only the peel rejects": {"substitution"},
    "misframed binary row": {"endpoints"},
    "misframed last-layer row": {"endpoints"},
    "binary row names another parallel 1-cell": {"substitution"},
    "misframed binary row, next layer read off it": {"endpoints"},
    "misframed 3-edge row, next layer read off it": {"endpoints"},
    "misframed row in a layer as long as the one before": {"endpoints"},
}


@pytest.mark.parametrize("name", sorted(AIMED))
def test_agrees_with_oracle_on_aimed_corruptions(name):
    report = _assert_agrees(AIMED[name], name)
    assert report.rules() == EXPECTED_RULES[name]


def test_the_last_layer_is_walked_alone():
    X = AIMED["last-layer row only the peel rejects"]
    report = validate_op1(X)
    assert [(len(v.witness[0]) - 1, v.witness[1:]) for v in report.violations] == [(5, (0, 4))]


def test_a_misframed_row_is_found_in_its_own_layer():
    for name, m in (("misframed binary row", 2), ("misframed last-layer row", 5)):
        report = validate_op1(AIMED[name])
        assert [len(v.witness[0]) - 1 for v in report.violations] == [m], name


def test_a_wrong_binary_row_is_walked_in_every_longer_layer():
    report = validate_op1(AIMED["binary row names another parallel 1-cell"])
    assert {3, 4, 5} <= {len(v.witness[0]) - 1 for v in report.violations}


# ---------------------------------------------------------------------------
# work counters


def test_instances_checked_on_z2():
    assert validate_op1(from_category(z2_category(), 4)).notes == {
        "arity_bound": 4,
        "checked": {"left unit": 2, "right unit": 2, "bracket left": 8,
                    "bracket right": 8, "peel": 16},
    }


def test_instances_checked_on_the_family_at_bound_4():
    total = dict.fromkeys(("left unit", "right unit", "bracket left", "bracket right", "peel"), 0)
    for C in FAMILY:
        for name, count in validate_op1(from_category(C, 4)).notes["checked"].items():
            total[name] += count
    assert total == {"left unit": 3_110, "right unit": 3_110, "bracket left": 36_140,
                     "bracket right": 36_140, "peel": 136_752}


def test_nothing_is_checked_below_bound_2():
    for bound in (0, 1):
        report = validate_op1(from_category(z2_category(), bound))
        assert report.ok
        assert report.notes["checked"] == dict.fromkeys(
            ("left unit", "right unit", "bracket left", "bracket right", "peel"), 0
        )


# ---------------------------------------------------------------------------
# a negative arity bound


def _negative_op1() -> FiniteOpOneCat:
    return FiniteOpOneCat(("o",), {"e": ("o", "o")}, {(0, "o"): "e"}, -1)


def _negative_op2() -> FiniteOpTwoCat:
    return dataclasses.replace(from_bicategory(sign_bicategory())[0], arity_bound=-1)


@pytest.mark.parametrize("X, validate", [(_negative_op1(), validate_op1),
                                         (_negative_op2(), validate_op2)])
def test_a_negative_bound_is_the_whole_report(X, validate):
    report = validate(X)
    assert [(v.rule, v.witness) for v in report.violations] == [("arity bound", (-1,))]
    assert report.notes == {"arity_bound": -1}
