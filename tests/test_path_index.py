"""The path indexes of ``FiniteOpOneCat`` and ``FiniteOpTwoCat``: built
once per 1-skeleton, read by position.

- The path index depends on the 1-skeleton only (the objects in order, the
  1-cells with their frames, the bound), and ``core._skeleton_paths``
  enumerates it once per distinct skeleton: from an empty memo,
  ``from_category`` over the family misses once per skeleton and hits on
  every other category.
- ``from_category`` enumerates the paths of a skeleton it has not met, for
  the index of the structure it returns; ``validate_op1`` and
  ``to_category`` read that index and enumerate nothing more.  So does
  ``from_bicategory``, through ``check_coherence``, ``choose_biasing`` and
  ``to_bicategory``.
- A structure of either dimension from a document, from
  ``dataclasses.replace`` or from the constructor enumerates nothing: it
  shares the index of the structure it copies.
- A copy with another bound, another 1-cell, a changed frame or its objects
  in another order gets the oracle's paths, not the old index; a structure
  whose frames are lists gets the index of the one with tuple frames.
- The dimension-2 index is the oracle enumerator's paths, layer by layer,
  on the fixtures and Z3 at bounds -1 to 6.
- ``from_bicategory`` reads its structure's path index while it fills the
  tables, and never its niche index.
- The prefix rows that ``prefix_rows`` reads by position are the rows of the
  keys without their last edge, on the category family at bounds 0 to 5.
- ``validate_op1`` reports the same on a structure whose index is built and
  on a fresh copy, on the seeded and the aimed corruptions.
- The layered fold raises a missing composite as the row-by-row fold did:
  a dropped one, and a composite named as an unknown arrow, which misses
  one path length later.  A missing identity raises the bare ``KeyError``
  it raised before.  A composite reassigned to another arrow gives the
  row-by-row fold's rows or exception at bounds 3 to 5: one with the same
  ends (framed but not associative) or the same target is read off the
  binary rows by position; one with another target is stepped at every
  length, and builds a table when the arrow is also given the composites
  the stepped fold then asks for.
- ``fold_paths`` calls its step once, for the two-edge paths, on every
  category of the family, and once per path length from 2 to the bound on
  a table whose binary rows have other targets.
"""

from __future__ import annotations

import dataclasses

import pytest

import opetokit.equivalences as eq
import path_oracles as old
from opetokit import MissingComposite, core, serialize
from opetokit.core import FiniteOpOneCat, iter_paths, prefix_rows, validate_op1
from opetokit.equivalences import (
    choose_biasing,
    from_bicategory,
    from_category,
    to_bicategory,
    to_category,
)
from opetokit.fixtures import (
    arrow_bicategory,
    idempotent_bicategory,
    sign_bicategory,
    terminal_bicategory,
    z2_category,
)
from opetokit.universality import check_coherence
from test_op1_layers import AIMED, oracle_validate_op1
from test_op1_oracle import FAMILY, _corrupt
from test_op2_oracle import FIXTURE, _zn

BICATEGORIES = (sign_bicategory, idempotent_bicategory, arrow_bicategory, terminal_bicategory)


@pytest.fixture
def enumerations(monkeypatch):
    """The 1-skeletons ``core._path_layers`` enumerates, in call order,
    starting from an empty memo."""
    calls: list = []
    real = core._path_layers

    def counted(*skeleton):
        calls.append(skeleton)
        return real(*skeleton)

    monkeypatch.setattr(core, "_path_layers", counted)
    core._skeleton_paths.cache_clear()
    yield calls
    core._skeleton_paths.cache_clear()


def _skeleton(X) -> tuple:
    """The memo key of ``X``'s path index."""
    return X.objects, frozenset(X.cells1.items()), X.arity_bound


def test_from_category_output_is_not_enumerated_again(enumerations):
    seen: list = []
    for C in FAMILY[::50]:
        X = from_category(C, 4)
        if _skeleton(X) not in seen:
            seen.append(_skeleton(X))
        assert enumerations == seen
        assert validate_op1(X).ok
        assert to_category(X, check=True) == C
        assert enumerations == seen
    assert len(seen) < len(FAMILY[::50])  # some skeleton is met again


def test_from_bicategory_output_is_not_enumerated_again(enumerations):
    seen: list = []
    for make in BICATEGORIES:
        B = make()
        X, b = from_bicategory(B, 4)
        if _skeleton(X) not in seen:
            seen.append(_skeleton(X))
        assert enumerations == seen
        assert check_coherence(X).ok
        assert choose_biasing(X) == b
        assert to_bicategory(X, b, check=True) == B
        assert enumerations == seen


def test_the_family_misses_once_per_skeleton(enumerations):
    skeletons = {_skeleton(from_category(C, 4)) for C in FAMILY}
    info = core._skeleton_paths.cache_info()
    assert (len(FAMILY), len(skeletons)) == (674, 63)
    assert (info.misses, info.hits) == (63, 611)
    assert len(enumerations) == 63


def test_generation_reads_no_niche_index():
    """``_generate`` reads ``X.paths`` while it fills the tables, never ``X.occupants``."""
    for make in BICATEGORIES:
        X, _ = from_bicategory(make(), 4)
        assert "paths" in vars(X) and "occupants" not in vars(X)


def _from_document(X):
    Y = serialize.from_doc(serialize.loads(serialize.dumps(serialize.to_doc(X))))
    return Y[0] if isinstance(Y, tuple) else Y  # an op2cat document also gives a biasing


def _copies(X) -> dict:
    return {
        "document": _from_document(X),
        "replace": dataclasses.replace(X),
        "constructor": type(X)(*(getattr(X, f.name) for f in dataclasses.fields(X))),
    }


def _read_op1(Y) -> bool:
    return validate_op1(Y).ok and to_category(Y) == z2_category()


def _read_op2(Y) -> bool:
    return check_coherence(Y).ok and to_bicategory(Y, choose_biasing(Y)) == sign_bicategory()


ORIGINS = ("document", "replace", "constructor")
STRUCTURES = {  # a structure of each dimension, and a reading of its index
    "op1": (lambda: from_category(z2_category(), 4), _read_op1),
    "op2": (lambda: from_bicategory(sign_bicategory(), 4)[0], _read_op2),
}


@pytest.mark.parametrize(
    "dimension, origin",
    [pytest.param("op1", origin, id=origin) for origin in ORIGINS]
    + [pytest.param("op2", origin, id=f"op2 {origin}") for origin in ORIGINS],
)
def test_a_new_structure_builds_its_own_index_once(enumerations, dimension, origin):
    make, read = STRUCTURES[dimension]
    X = make()
    Y = _copies(X)[origin]
    assert "paths" not in vars(Y)
    enumerations.clear()
    for _ in range(2):
        assert read(Y)
    assert enumerations == []  # the copy's skeleton is the one ``make`` enumerated
    assert Y.paths is X.paths


def _oracle_layers(Y) -> tuple:
    """The oracle enumerator's path keys of ``Y``, one tuple per length."""
    keys = [p.key() for p in old.iter_paths(Y)]
    by_length = [tuple(key for key in keys if (len(key) - 1 if key[0] else 0) == m)
                 for m in range(max(Y.arity_bound, 0) + 1)]
    while len(by_length) > 1 and not by_length[-1]:
        by_length.pop()
    return tuple(by_length)


def _changed_skeletons(X) -> dict:
    """Copies of ``X`` that differ from it in one part of the 1-skeleton."""
    f = sorted(X.cells1)[0]
    a, b = X.objects[0], X.objects[-1]
    return {
        "bound": dataclasses.replace(X, arity_bound=X.arity_bound + 1),
        "added": dataclasses.replace(X, cells1={**X.cells1, "zz": (b, a)}),
        "reframed": dataclasses.replace(X, cells1={**X.cells1, f: (b, b)}),
        "reordered": dataclasses.replace(X, objects=X.objects[::-1]),
    }


def test_a_changed_skeleton_gets_its_own_index(enumerations):
    structures = [from_category(C, 3) for C in FAMILY[::60]] + list(_op2_structures().values())
    differs = dict.fromkeys(("bound", "added", "reframed", "reordered"), 0)
    for X in structures:
        assert X.paths == _oracle_layers(X)
        for change, Y in _changed_skeletons(X).items():
            assert Y.paths == _oracle_layers(Y), change
            assert list(iter_paths(Y)) == [p.key() for p in old.iter_paths(Y)], change
            differs[change] += Y.paths != X.paths
    assert all(differs.values()), differs  # each change reaches a skeleton whose paths it changes


def test_frames_given_as_lists_get_the_index():
    X = from_category(z2_category(), 4)
    Y = dataclasses.replace(X, cells1={f: list(frame) for f, frame in X.cells1.items()})
    assert Y.paths is X.paths


def _op2_structures() -> dict:
    named = {make.__name__: from_bicategory(make(), 4)[0] for make in BICATEGORIES}
    return {"fixture": serialize.from_doc(serialize.load_path(str(FIXTURE)))[0], **named, "z3": _zn(3)}


@pytest.mark.parametrize("bound", range(-1, 7))
def test_op2_paths_are_the_oracle_paths_by_length(bound):
    for name, X in _op2_structures().items():
        Y = dataclasses.replace(X, arity_bound=bound)
        assert Y.paths == _oracle_layers(Y), name
        assert list(iter_paths(Y)) == [p.key() for p in old.iter_paths(Y)], name
        if bound <= 0:
            assert Y.paths == (tuple((0, a) for a in Y.objects),), name


@pytest.mark.parametrize("bound", range(6))
def test_prefix_rows_by_position_are_the_prefixes_rows(bound):
    for C in FAMILY if bound < 5 else FAMILY[::34]:
        X = from_category(C, bound)
        prefixes = prefix_rows(X)
        for before, layer in zip(X.paths[1:], X.paths[2:]):
            rows = [X.comp[key] for key in before]
            assert list(prefixes(before, rows)) == [X.comp[key[:-1]] for key in layer]


def _indexed_and_fresh(X: FiniteOpOneCat) -> None:
    indexed, fresh = X, dataclasses.replace(X)
    indexed.paths  # built before the validator runs
    report = validate_op1(indexed)
    assert "paths" not in vars(fresh)
    assert validate_op1(fresh) == report == validate_op1(indexed)
    assert report == oracle_validate_op1(X)


def test_indexed_and_fresh_agree_on_the_seeded_corruptions():
    for seed in range(400):
        _indexed_and_fresh(_corrupt(seed))


@pytest.mark.parametrize("name", sorted(AIMED))
def test_indexed_and_fresh_agree_on_the_aimed_corruptions(name):
    _indexed_and_fresh(dataclasses.replace(AIMED[name]))


def _without(C, pair):
    return dataclasses.replace(C, compose={k: v for k, v in C.compose.items() if k != pair})


def _unknown(C, pair):
    """``C`` with the composite of ``pair`` named as an arrow it does not have."""
    return dataclasses.replace(C, compose={**C.compose, pair: "zz"})


def _without_identity(C, a):
    return dataclasses.replace(C, identities={k: v for k, v in C.identities.items() if k != a})


def _reassignments(C) -> list:
    """``(kind, C')`` for each composite of ``C`` replaced by each other
    arrow: one with its ends (``"framed"``: the table is not associative),
    its target only (``"other source"``) or another target
    (``"other target"``).  Only the last fails the fold's target test, and
    its next path length misses a composite; ``"other target, patched"``
    also composes the arrow with every g out of the old target as the old
    composite, so that the stepped fold builds a table."""
    cases = []
    for pair, h in C.compose.items():
        (s, t) = C.arrows[h]
        for f, (s2, t2) in sorted(C.arrows.items()):
            if f == h:
                continue
            kind = "other target" if t2 != t else "other source" if s2 != s else "framed"
            cases.append((kind, dataclasses.replace(C, compose={**C.compose, pair: f})))
            if kind == "other target":
                patch = {(g, f): c for (g, e), c in C.compose.items() if e == h}
                broken = dataclasses.replace(C, compose={**C.compose, pair: f, **patch})
                cases.append(("other target, patched", broken))
    return cases


def _outcome(make, C, bound=3):
    """The type and message of what ``make(C, bound, check=False)`` raises, or its rows in order."""
    try:
        return list(make(C, bound, check=False).comp.items())
    except (MissingComposite, KeyError) as error:
        return type(error), str(error)


def test_a_missing_composite_raises_as_the_row_by_row_fold_did():
    with pytest.raises(MissingComposite, match=r"^no composite for \('e', 'e'\)$"):
        from_category(_without(z2_category(), ("e", "e")), 3, check=False)
    # an unknown arrow misses one path length later, on the key that holds it
    with pytest.raises(MissingComposite, match=r"^no composite for \('e', 'zz'\)$"):
        from_category(_unknown(z2_category(), ("s", "s")), 3, check=False)
    # a missing identity is not a missing composite: the bare KeyError of today
    assert _outcome(from_category, _without_identity(z2_category(), "o")) == (KeyError, "'o'")
    kinds = {"dropped": 0, "unknown": 0, "identity": 0}  # the cases that raised
    for C in FAMILY[::40]:
        cases = [("dropped", _without(C, pair)) for pair in C.compose]
        cases += [("unknown", _unknown(C, pair)) for pair in C.compose]
        cases += [("identity", _without_identity(C, a)) for a in C.identities]
        for kind, broken in cases:
            new = _outcome(from_category, broken)
            assert new == _outcome(old.from_category, broken), kind
            if kind == "dropped":
                assert new[0] is MissingComposite
            kinds[kind] += isinstance(new, tuple)
    assert kinds["unknown"] and kinds["identity"]


@pytest.mark.parametrize("bound", (3, 4, 5))
def test_a_reassigned_composite_folds_as_the_row_by_row_fold_did(bound):
    built = dict.fromkeys(("framed", "other source", "other target", "other target, patched"), 0)
    for C in FAMILY[::40]:
        for kind, broken in _reassignments(C):
            new = _outcome(from_category, broken, bound)
            assert new == _outcome(old.from_category, broken, bound), kind
            built[kind] += isinstance(new, list)
    # rows are compared on each kind but the unpatched one, which always raises
    assert built.pop("other target") == 0
    assert all(built.values()), built


@pytest.fixture
def steps(monkeypatch):
    """The structures ``from_category`` calls its fold's step on, one entry a call."""
    calls: list = []
    real = core.fold_paths

    def fold(X, units, step):
        def counted(rows, ends):
            calls.append(X)
            return step(rows, ends)

        return real(X, units, counted)

    monkeypatch.setattr(eq, "fold_paths", fold)
    return calls


def test_the_step_runs_once_on_a_framed_table(steps):
    for n, C in enumerate(FAMILY):
        steps.clear()
        X = from_category(C, 5)
        assert steps == [X], n


def test_the_step_runs_for_every_length_on_a_misframed_table(steps):
    cases = [broken for C in FAMILY[::40] for kind, broken in _reassignments(C) if kind == "other target, patched"]
    assert cases
    for broken in cases:
        for bound in (3, 4, 5):
            steps.clear()
            X = from_category(broken, bound, check=False)
            assert steps == [X] * (bound - 1)
