"""Concrete finite structures used by the test suite, docs and CLI demos.

The sign bicategory has one object, 1-cells forming the group of order two,
sign 2-cells on each 1-cell, and an associator given by the nontrivial
normalized 3-cocycle (the component is -1 exactly on the all-nonidentity
triple).  The idempotent bicategory has one object, one 1-cell, and the
two-element idempotent commutative monoid as its only hom.  The arrow
bicategory has two objects and a non-thin hom so that constraint naturality
can actually fail.
"""

from __future__ import annotations

import itertools

from .bicat import FiniteBicategory, FiniteCategory, LaxFunctor, _hom_pairs
from .core import composable_pairs, composable_triples


def _z2_mul(f: str, g: str) -> str:
    return "e" if f == g else "s"


def z2_category() -> FiniteCategory:
    """One object, arrows {e, s} with s.s = e and e the identity."""
    return FiniteCategory(
        objects=("o",),
        arrows={"e": ("o", "o"), "s": ("o", "o")},
        identities={"o": "e"},
        compose={(g, f): _z2_mul(g, f) for g in ("e", "s") for f in ("e", "s")},
    )


def sign_bicategory(omega=None) -> FiniteBicategory:
    """The group of order two with sign 2-cells and a cocycle associator.

    ``omega`` maps a triple of 1-cells to 0 or 1; the associator component on
    (h, g, f) is the sign (-1)**omega(h, g, f).  The default is 1 exactly on
    (s, s, s), which satisfies the pentagon; pass another function to break it.
    """
    if omega is None:
        omega = lambda h, g, f: 1 if (h, g, f) == ("s", "s", "s") else 0
    ones = ("e", "s")

    def cell(sign: int, f: str) -> str:
        return ("1" if sign == 1 else "n") + f

    two_cells = {cell(sg, f): (f, f) for f in ones for sg in (1, -1)}
    vcomp = {
        (cell(s2, f), cell(s1, f)): cell(s1 * s2, f)
        for f in ones
        for s1 in (1, -1)
        for s2 in (1, -1)
    }
    hcomp2 = {
        (cell(s2, g), cell(s1, f)): cell(s1 * s2, _z2_mul(g, f))
        for g in ones
        for f in ones
        for s1 in (1, -1)
        for s2 in (1, -1)
    }
    assoc = {
        (h, g, f): cell((-1) ** omega(h, g, f), _z2_mul(_z2_mul(h, g), f))
        for h in ones
        for g in ones
        for f in ones
    }
    return FiniteBicategory(
        objects=("pt",),
        one_cells={f: ("pt", "pt") for f in ones},
        two_cells=two_cells,
        id2={f: cell(1, f) for f in ones},
        vcomp=vcomp,
        id1={"pt": "e"},
        hcomp1={(g, f): _z2_mul(g, f) for g in ones for f in ones},
        hcomp2=hcomp2,
        assoc=assoc,
        lunit={f: cell(1, f) for f in ones},
        runit={f: cell(1, f) for f in ones},
    )


def sign_bicategory_twisted_units() -> FiniteBicategory:
    """The sign bicategory with both unitors flipped to -1.

    Still a bicategory: the unitors stay invertible and natural, and the
    triangle compares -1 against -1 since the associator is +1 whenever the
    middle cell is the identity.  Exercises non-identity unit deletion.
    """
    B = sign_bicategory()
    import dataclasses

    return dataclasses.replace(
        B, lunit={"e": "ne", "s": "ns"}, runit={"e": "ne", "s": "ns"}
    )


def sign_bicategory_broken_pentagon() -> FiniteBicategory:
    """Same data with a non-cocycle: the component is -1 whenever the middle
    1-cell is s.  The head-cell indicator would still satisfy the cocycle
    identity (it breaks the triangle instead), so the middle one is used."""
    return sign_bicategory(omega=lambda h, g, f: 1 if g == "s" else 0)


def idempotent_bicategory() -> FiniteBicategory:
    """One object, one 1-cell, hom the idempotent commutative monoid {1, t}."""
    mul = lambda a, b: "1" if a == b == "1" else "t"
    pairs = list(itertools.product(("1", "t"), repeat=2))
    return FiniteBicategory(
        objects=("pt",),
        one_cells={"i": ("pt", "pt")},
        two_cells={"1": ("i", "i"), "t": ("i", "i")},
        id2={"i": "1"},
        vcomp={(b, a): mul(b, a) for b, a in pairs},
        id1={"pt": "i"},
        hcomp1={("i", "i"): "i"},
        hcomp2={(b, a): mul(b, a) for b, a in pairs},
        assoc={("i", "i", "i"): "1"},
        lunit={"i": "1"},
        runit={"i": "1"},
    )


def terminal_bicategory() -> FiniteBicategory:
    return FiniteBicategory(
        objects=("pt",),
        one_cells={"i": ("pt", "pt")},
        two_cells={"1": ("i", "i")},
        id2={"i": "1"},
        vcomp={("1", "1"): "1"},
        id1={"pt": "i"},
        hcomp1={("i", "i"): "i"},
        hcomp2={("1", "1"): "1"},
        assoc={("i", "i", "i"): "1"},
        lunit={"i": "1"},
        runit={"i": "1"},
    )


def arrow_bicategory() -> FiniteBicategory:
    """Two objects A, B; parallel 1-cells k, k2: A -> B with a non-thin hom.

    hom(A, B) has 2-cells 1k, xk on k (xk idempotent), a0, a1: k => k2 with
    a0 . xk = a1, and the identity on k2.  All constraint components are
    identities.
    """
    objects = ("A", "B")
    one_cells = {"iA": ("A", "A"), "iB": ("B", "B"), "k": ("A", "B"), "k2": ("A", "B")}
    two_cells = {
        "1iA": ("iA", "iA"),
        "1iB": ("iB", "iB"),
        "1k": ("k", "k"),
        "xk": ("k", "k"),
        "a0": ("k", "k2"),
        "a1": ("k", "k2"),
        "1k2": ("k2", "k2"),
    }
    id2 = {"iA": "1iA", "iB": "1iB", "k": "1k", "k2": "1k2"}
    vcomp = {
        ("1iA", "1iA"): "1iA",
        ("1iB", "1iB"): "1iB",
        ("1k", "1k"): "1k",
        ("xk", "1k"): "xk",
        ("1k", "xk"): "xk",
        ("xk", "xk"): "xk",
        ("a0", "1k"): "a0",
        ("a1", "1k"): "a1",
        ("a0", "xk"): "a1",
        ("a1", "xk"): "a1",
        ("1k2", "a0"): "a0",
        ("1k2", "a1"): "a1",
        ("1k2", "1k2"): "1k2",
    }
    hcomp1 = {
        (g, f): f if g in ("iA", "iB") else g for f, g in composable_pairs(one_cells)
    }
    hom_of = {
        "1iA": "iA", "1iB": "iB",
        "1k": "AB", "xk": "AB", "a0": "AB", "a1": "AB", "1k2": "AB",
    }
    hcomp2 = {
        (b, a): a if hom_of[b] in ("iA", "iB") else b
        for b, a in _hom_pairs(one_cells, two_cells)
    }
    assoc = {
        (h, g, f): id2[hcomp1[(h, hcomp1[(g, f)])]]
        for f, g, h in composable_triples(one_cells)
    }
    return FiniteBicategory(
        objects=objects,
        one_cells=one_cells,
        two_cells=two_cells,
        id2=id2,
        vcomp=vcomp,
        id1={"A": "iA", "B": "iB"},
        hcomp1=hcomp1,
        hcomp2=hcomp2,
        assoc=assoc,
        lunit={f: id2[f] for f in one_cells},
        runit={f: id2[f] for f in one_cells},
    )


# ---------------------------------------------------------------------------
# lax functors


def identity_lax_functor(B: FiniteBicategory) -> LaxFunctor:
    return LaxFunctor(
        on_objects={a: a for a in B.objects},
        on_one_cells={f: f for f in B.one_cells},
        on_two_cells={a: a for a in B.two_cells},
        phi_pair={pair: B.id2[v] for pair, v in B.hcomp1.items()},
        phi_obj={a: B.id2[B.id1[a]] for a in B.objects},
    )


def sign_twisted_endofunctor() -> LaxFunctor:
    """Identity on the sign bicategory with all constraints the sign -1.

    The constraints form a 2-cocycle, so all functor axioms hold; every
    component is invertible but none is an identity.
    """
    B = sign_bicategory()
    return LaxFunctor(
        on_objects={"pt": "pt"},
        on_one_cells={f: f for f in B.one_cells},
        on_two_cells={a: a for a in B.two_cells},
        phi_pair={pair: "n" + v for pair, v in B.hcomp1.items()},
        phi_obj={"pt": "ne"},
    )


def absorbing_constraint_functor() -> LaxFunctor:
    """Terminal bicategory into the idempotent one, constraints all t.

    The constraint components are not invertible; the unit axioms fail, so
    this is lax-functor data rather than a lax functor.
    """
    return LaxFunctor(
        on_objects={"pt": "pt"},
        on_one_cells={"i": "i"},
        on_two_cells={"1": "1"},
        phi_pair={("i", "i"): "t"},
        phi_obj={"pt": "t"},
    )


def arrow_perturbed_functor() -> LaxFunctor:
    """Identity on the arrow bicategory with one constraint nudged to xk.

    Breaks the constraint naturality square on the pair (1iB, a0).
    """
    B = arrow_bicategory()
    F = identity_lax_functor(B)
    phi_pair = dict(F.phi_pair)
    phi_pair[("iB", "k")] = "xk"
    return LaxFunctor(F.on_objects, F.on_one_cells, F.on_two_cells, phi_pair, F.phi_obj)


# ---------------------------------------------------------------------------
# a deterministic family of small categories


def _category_tables(objects, arrows, identities):
    """Every associative composition table over a fixed arrow configuration,
    by backtracking over the free entries in order.

    A composable triple (f, g, h) fails when both bracketings h(gf) and (hg)f
    are assigned and differ.  The entries with an identity side are forced,
    and a triple with f or g an identity reads one entry on both sides, so
    it never fails: neither does the table of forced entries alone.  Every
    other triple is on the watch list of each free entry (y, x) that it can
    read, those with h == y (the entries hg and (h, gf)) or f == x (gf and
    (hg, f)), from the step at which its gf and hg are both assigned.
    Assigning the i-th free entry re-checks only its watch list: no other
    triple's bracketings change, and the parent table was consistent, so
    each table is checked as fully as by a re-check of all triples."""
    cells = {a: arrows[a] for a in sorted(arrows)}
    ident = set(identities.values())
    table: dict[tuple[str, str], str] = {}
    free = []
    for f, g in composable_pairs(cells):
        if f in ident:
            table[(g, f)] = g
        elif g in ident:
            table[(g, f)] = f
        else:
            free.append((g, f))
    candidates = [
        [h for h, frame in cells.items() if frame == (cells[f][0], cells[g][1])]
        for (g, f) in free
    ]
    if not all(candidates):
        return
    rank = {key: i for i, key in enumerate(free)}
    watch: list[list[tuple]] = [[] for _ in free]
    for f, g, h in composable_triples(cells):
        if f in ident or g in ident:
            continue
        gf, hg = (g, f), (h, g)  # gf is free; hg is forced when h is an identity
        first = max(rank[gf], rank.get(hg, -1))
        for i, (y, x) in enumerate(free[first:], first):
            if y == h or x == f:
                watch[i].append((gf, hg, h, f))
    yield from _extensions(table, free, candidates, watch, 0)


def _extensions(table, free, candidates, watch, i):
    """The consistent tables that extend ``table`` by ``free[i:]``."""
    if i == len(free):
        yield dict(table)
        return
    key = free[i]
    checks = watch[i]
    for value in candidates[i]:
        table[key] = value
        for gf, hg, h, f in checks:
            left = table.get((h, table[gf]))
            right = table.get((table[hg], f))
            if left is not None and right is not None and left != right:
                break
        else:
            yield from _extensions(table, free, candidates, watch, i + 1)
    del table[key]


def _exhaustive_small_categories():
    """All monoids with at most 4 elements and all 2-object categories with
    at most 5 arrows, exhaustively, as validated composition tables."""
    names = ("u", "v", "w")
    configs = []
    for extra in range(0, 4):
        arrows = {"id_o": ("o", "o")}
        for i in range(extra):
            arrows[names[i]] = ("o", "o")
        configs.append((("o",), arrows, {"o": "id_o"}))
    homs = (("A", "A"), ("A", "B"), ("B", "A"), ("B", "B"))
    for extra in range(0, 4):
        for dist in itertools.product(range(extra + 1), repeat=4):
            if sum(dist) != extra:
                continue
            arrows = {"idA": ("A", "A"), "idB": ("B", "B")}
            k = 0
            for hom, count in zip(homs, dist):
                for _ in range(count):
                    arrows[f"{names[k % 3]}{k}"] = hom
                    k += 1
            configs.append((("A", "B"), arrows, {"A": "idA", "B": "idB"}))
    for objects, arrows, identities in configs:
        for table in _category_tables(objects, arrows, identities):
            yield FiniteCategory(objects, dict(arrows), dict(identities), table)


def _poset_categories():
    """All posets on at most 3 points, as thin categories (at most 6 arrows):
    each reflexive, antisymmetric relation has one composition table if it
    is transitive and none otherwise."""
    for n in range(1, 4):
        objs = tuple(f"p{i}" for i in range(n))
        identities = {objs[i]: f"r{i}{i}" for i in range(n)}
        off_diag = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in itertools.product((False, True), repeat=len(off_diag)):
            rel = {(i, i) for i in range(n)}
            rel.update(p for p, keep in zip(off_diag, bits) if keep)
            if any((j, i) in rel for (i, j) in rel if i != j):
                continue
            arrows = {f"r{i}{j}": (objs[i], objs[j]) for (i, j) in sorted(rel)}
            for table in _category_tables(objs, arrows, identities):
                yield FiniteCategory(objs, arrows, dict(identities), table)


def _group_category(order: int, mul) -> FiniteCategory:
    elems = [f"g{i}" for i in range(order)]
    return FiniteCategory(
        objects=("o",),
        arrows={x: ("o", "o") for x in elems},
        identities={"o": "g0"},
        compose={
            (f"g{i}", f"g{j}"): f"g{mul(i, j)}"
            for i in range(order)
            for j in range(order)
        },
    )


def _symmetric_group_3() -> FiniteCategory:
    perms = sorted(itertools.permutations((0, 1, 2)))
    index = {p: i for i, p in enumerate(perms)}

    def mul(i: int, j: int) -> int:
        p, q = perms[i], perms[j]
        return index[tuple(p[q[k]] for k in range(3))]

    return _group_category(6, mul)


def small_category_family() -> list[FiniteCategory]:
    """A deterministic family spanning up to 3 objects and 6 arrows.

    Exhaustive over all monoids with at most 4 elements, all 2-object
    categories with at most 5 arrows, and all posets on at most 3 points
    (at most 6 relations each); plus the cyclic group of order 4, the Klein
    group, and the symmetric group on 3 letters at the 6-arrow bound.  Every
    member validates.
    """
    family: list[FiniteCategory] = [z2_category()]
    family.extend(_exhaustive_small_categories())
    family.extend(_poset_categories())
    family.append(_group_category(4, lambda i, j: (i + j) % 4))
    family.append(_group_category(4, lambda i, j: i ^ j))
    family.append(_symmetric_group_3())
    return family
