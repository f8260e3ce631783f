"""Finite categories, bicategories, lax functors, and their validators.

Everything is a lookup table: hom-sets, vertical and horizontal composition,
unitor and associator components.  The validators check each axiom as a
separately reported rule so a test can target one law (interchange, the
naturality squares, the pentagon, the triangle, the lax functor axioms).

``coherence_cell`` builds the canonical invertible 2-cell between two
parenthesisations of the same composable chain by normalising both to the
head-first form ((h.g).f and its longer analogues) through whiskered
associator components.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import _by_source, _unknown_ends, _unknown_keys, composable_pairs, composable_triples
from .errors import (
    DanglingId,
    MissingComposite,
    PathMismatch,
    ValidationReport,
    _Collector,
    _require,
)


@dataclass(frozen=True)
class FiniteCategory:
    """Objects, arrows, identities, and a composition table.

    ``compose[(g, f)]`` is g after f, recorded for every composable pair.
    """

    objects: tuple[str, ...]
    arrows: dict[str, tuple[str, str]]
    identities: dict[str, str]
    compose: dict[tuple[str, str], str]

    def src(self, f: str) -> str:
        return self.arrows[f][0]

    def tgt(self, f: str) -> str:
        return self.arrows[f][1]

    def then(self, f: str, g: str) -> str:
        """g after f."""
        try:
            return self.compose[(g, f)]
        except KeyError:
            raise MissingComposite(f"no composite for ({g!r}, {f!r})") from None


@dataclass(frozen=True)
class FiniteBicategory:
    """All the coherence data of a bicategory as explicit finite tables.

    2-cells are stored globally with 1-cell source and target in the same
    frame; ``vcomp[(b, a)]`` is b after a.  ``hcomp1``/``hcomp2`` take the
    later cell first, matching ``compose``.  ``assoc[(h, g, f)]`` is the
    component (h.g).f => h.(g.f); ``runit[f]``: f.I => f and ``lunit[f]``:
    I.f => f.

    The indexes ``after`` and ``out_of`` are derived from ``one_cells`` and
    ``two_cells`` once per structure, on first use, and kept for its
    lifetime.  So do not mutate the tables in place after a query;
    ``dataclasses.replace`` derives a changed structure with fresh indexes.
    """

    objects: tuple[str, ...]
    one_cells: dict[str, tuple[str, str]]
    two_cells: dict[str, tuple[str, str]]
    id2: dict[str, str]
    vcomp: dict[tuple[str, str], str]
    id1: dict[str, str]
    hcomp1: dict[tuple[str, str], str]
    hcomp2: dict[tuple[str, str], str]
    assoc: dict[tuple[str, str, str], str]
    lunit: dict[str, str]
    runit: dict[str, str]

    @cached_property
    def after(self) -> dict[str, list[str]]:
        """1-cell ids by source object, each list in ``one_cells`` order."""
        return _by_source(self.one_cells)

    @cached_property
    def out_of(self) -> dict[str, list[str]]:
        """2-cell ids by source 1-cell, each list in ``two_cells`` order."""
        return _by_source(self.two_cells)

    def src1(self, f: str) -> str:
        return self.one_cells[f][0]

    def tgt1(self, f: str) -> str:
        return self.one_cells[f][1]

    def src2(self, a: str) -> str:
        return self.two_cells[a][0]

    def tgt2(self, a: str) -> str:
        return self.two_cells[a][1]

    def then2(self, a: str, b: str) -> str:
        """b after a, vertically."""
        try:
            return self.vcomp[(b, a)]
        except KeyError:
            raise MissingComposite(f"no vertical composite for ({b!r}, {a!r})") from None

    def beside1(self, g: str, f: str) -> str:
        """g after f, horizontally, on 1-cells."""
        try:
            return self.hcomp1[(g, f)]
        except KeyError:
            raise MissingComposite(f"no horizontal composite for ({g!r}, {f!r})") from None

    def beside2(self, b: str, a: str) -> str:
        """b after a, horizontally, on 2-cells."""
        try:
            return self.hcomp2[(b, a)]
        except KeyError:
            raise MissingComposite(f"no horizontal composite for ({b!r}, {a!r})") from None


@dataclass(frozen=True)
class LaxFunctor:
    """Level maps plus comparison constraints.

    ``phi_pair[(g, f)]`` is a 2-cell Fg.Ff => F(g.f) in the target;
    ``phi_obj[A]`` is a 2-cell I_{FA} => F(I_A).  Neither is required to be
    invertible.
    """

    on_objects: dict[str, str]
    on_one_cells: dict[str, str]
    on_two_cells: dict[str, str]
    phi_pair: dict[tuple[str, str], str]
    phi_obj: dict[str, str]


@dataclass(frozen=True)
class CatFunctor:
    on_objects: dict[str, str]
    on_arrows: dict[str, str]


# ---------------------------------------------------------------------------
# bracketings


@dataclass(frozen=True)
class Bracketing:
    """A binary parenthesisation of a composable chain, unit-free.

    Leaves are positional: the i-th leaf (left to right) stands for the i-th
    1-cell of the path being bracketed.  ``size``, the number of leaves, is
    derived once per node from its children's; it is not a field, so
    equality, hash and ``repr`` see only the tree.
    """

    left: "Bracketing | None" = None
    right: "Bracketing | None" = None

    def __post_init__(self):
        if (self.left is None) != (self.right is None):
            raise ValueError("a bracketing node needs both children")
        size = 1 if self.left is None else self.left.size + self.right.size
        object.__setattr__(self, "size", size)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @staticmethod
    def leaf() -> "Bracketing":
        return Bracketing()

    @staticmethod
    def node(left: "Bracketing", right: "Bracketing") -> "Bracketing":
        return Bracketing(left, right)

    @staticmethod
    def canonical(m: int) -> "Bracketing":
        """The head-first normal form: later edges compose first, then the
        result attaches to the head, as in ((h.g).f)."""
        if m < 1:
            raise ValueError("a bracketing needs at least one leaf")
        b = Bracketing.leaf()
        for _ in range(m - 1):
            b = Bracketing.node(Bracketing.leaf(), b)
        return b

    def __repr__(self) -> str:
        if self.is_leaf:
            return "*"
        return f"({self.left!r}{self.right!r})"


def all_bracketings(m: int):
    """Every parenthesisation of an m-fold chain (Catalan many)."""
    if m == 1:
        yield Bracketing.leaf()
        return
    for k in range(1, m):
        for l in all_bracketings(k):
            for r in all_bracketings(m - k):
                yield Bracketing.node(l, r)


def invert_two_cell(B: FiniteBicategory, a: str) -> str | None:
    """The two-sided vertical inverse of ``a`` if one exists."""
    if a not in B.two_cells:
        raise DanglingId(f"unknown 2-cell {a!r}")
    x, y = B.two_cells[a]
    for b, (s, t) in B.two_cells.items():
        if (s, t) != (y, x):
            continue
        if B.vcomp.get((b, a)) == B.id2[x] and B.vcomp.get((a, b)) == B.id2[y]:
            return b
    return None


def is_invertible_2cell(B: FiniteBicategory, a: str) -> bool:
    return invert_two_cell(B, a) is not None


def is_equivalence_1cell(B: FiniteBicategory, f: str) -> bool:
    """True when some reverse 1-cell composes with ``f`` to the identities up
    to invertible 2-cells, in both orders."""
    if f not in B.one_cells:
        raise DanglingId(f"unknown 1-cell {f!r}")
    a, b = B.one_cells[f]

    def isomorphic(x: str, y: str) -> bool:
        # the inverse of an invertible y => x is an invertible x => y
        return x == y or any(
            B.tgt2(c) == y and is_invertible_2cell(B, c) for c in B.out_of.get(x, ())
        )

    return any(
        B.tgt1(g) == a
        and isomorphic(B.beside1(g, f), B.id1[a])
        and isomorphic(B.beside1(f, g), B.id1[b])
        for g in B.after.get(b, ())
    )


def _normalize(
    B: FiniteBicategory, g: Bracketing, edges: tuple[str, ...], merges: dict, inverses: dict
) -> tuple[tuple[str, ...], str, str]:
    """Rewrite the bracketed composite ``g`` of ``edges`` to head-first form.

    Returns (leaves, value, iso) where ``iso`` is the invertible 2-cell from
    the bracketed composite to the normal form's composite, assembled from
    whiskered associator components.  A node normalises its left part, then
    its right one, and ``_join``s the two through ``merges`` and ``inverses``.
    """
    if g.is_leaf:
        e = edges[0]
        return (e,), e, B.id2[e]
    k = g.left.size
    left = _normalize(B, g.left, edges[:k], merges, inverses)
    return _join(B, left, _normalize(B, g.right, edges[k:], merges, inverses), merges, inverses)


def _join(
    B: FiniteBicategory, left, right, merges: dict, inverses: dict
) -> tuple[tuple[str, ...], str, str]:
    """The normal form of a node from the normal forms of its two children.

    A child with no leaves (a unit) is absorbed by a unitor; otherwise the
    right child's value is merged under the left child's leaves.  ``B`` is
    read in the order of the memo-free node rule, and a memo hit skips only
    reads that raised nothing, so joining a tree's nodes bottom-up, left
    child first, raises the first exception of the memo-free walk.
    """
    l_leaves, lv, liso = left
    r_leaves, rv, riso = right
    base = B.beside2(riso, liso)
    if not l_leaves:
        return r_leaves, rv, B.then2(base, B.runit[rv])
    if not r_leaves:
        return l_leaves, lv, B.then2(base, B.lunit[lv])
    value, miso = _merge(B, l_leaves, rv, merges, inverses)
    return l_leaves + r_leaves, value, B.then2(base, miso)


def _merge(
    B: FiniteBicategory, xs: tuple[str, ...], rv: str, merges: dict, inverses: dict
) -> tuple[str, str]:
    """Iso rv.comb(xs) => comb(xs ++ tail of rv), with its value, kept in
    ``merges`` by ``(xs, rv)``; ``inverses`` keeps ``invert_two_cell``."""
    if (xs, rv) in merges:
        return merges[xs, rv]
    if len(xs) == 1:
        v = B.beside1(rv, xs[0])
        merges[xs, rv] = v, B.id2[v]
        return merges[xs, rv]
    a = B.assoc[(rv, chain_value(B, xs[1:]), xs[0])]
    if a not in inverses:
        inverses[a] = invert_two_cell(B, a)
    if inverses[a] is None:
        raise MissingComposite(f"associator component {a!r} has no inverse")
    rec_v, rec = _merge(B, xs[1:], rv, merges, inverses)
    whisk = B.beside2(rec, B.id2[xs[0]])
    merges[xs, rv] = B.beside1(rec_v, xs[0]), B.then2(inverses[a], whisk)
    return merges[xs, rv]


def chain_value(B: FiniteBicategory, edges, anchor: str | None = None) -> str:
    """Head-first composite of a chain of 1-cells; the identity for an empty
    chain at ``anchor``."""
    edges = tuple(edges)
    if not edges:
        if anchor is None:
            raise PathMismatch("an empty chain needs an anchor object")
        return B.id1[anchor]
    v = edges[-1]
    for e in reversed(edges[:-1]):
        v = B.beside1(v, e)
    return v


def coherence_cell(B: FiniteBicategory, edges, g1: Bracketing, g2: Bracketing) -> str:
    """The canonical invertible 2-cell from one bracketed composite of
    ``edges`` to another, independent of the rewrite route."""
    edges = tuple(edges)
    if not edges:
        raise PathMismatch("coherence cells need at least one edge")
    for e in edges:
        if e not in B.one_cells:
            raise DanglingId(f"unknown 1-cell {e!r}")
    for g in (g1, g2):
        if g.size != len(edges):
            raise PathMismatch(f"bracketing has {g.size} leaves, path has {len(edges)}")
    merges, inverses = {}, {}  # _join's memos, shared by both bracketings
    _, _, iso1 = _normalize(B, g1, edges, merges, inverses)
    _, _, iso2 = _normalize(B, g2, edges, merges, inverses)
    back = invert_two_cell(B, iso2)
    if back is None:
        raise MissingComposite(f"normalisation leg {iso2!r} has no inverse")
    return B.then2(iso1, back)


# ---------------------------------------------------------------------------
# validators


def _images(out: _Collector, table: str, what: str, images: dict, cells, targets,
            ends=None, mismatch="") -> None:
    """A map of cells (the functor's ``table``, of ``what``s): ``totality`` for
    each of ``cells`` without an image in ``targets``, ``frame`` with
    ``mismatch`` for an image whose frame is not the ``ends`` image of the
    cell's, then ``dangling id`` for each key of ``images`` outside ``cells``."""
    for c in cells:
        image = images.get(c)
        if image is None or image not in targets:
            out.add("totality", (c,), f"{what} has no image")
        elif ends is not None and tuple(targets[image]) != tuple(map(ends.get, cells[c])):
            out.add("frame", (c,), mismatch)
    _unknown_keys(out, images, cells, f"{table} entry for an unknown {what}")


def _composites(out: _Collector, table: dict, cells: dict, rule: str, unknown: str, entry: str,
                mistyped: str) -> None:
    """Per entry ``(g, f) -> h`` of ``table`` over ``cells`` (id -> ends): ``dangling id``
    with ``unknown`` for an unknown cell, else ``rule`` with ``entry`` if f does not end
    where g starts, else ``rule`` with ``mistyped`` unless h runs from f's start to g's end."""
    for (g, f), h in table.items():
        if not cells.keys() >= {g, f, h}:
            out.add("dangling id", (g, f, h), unknown)
        elif cells[f][1] != cells[g][0]:
            out.add(rule, (g, f), entry)
        elif cells[h] != (cells[f][0], cells[g][1]):
            out.add(rule, (g, f, h), mistyped)


def _missing_composites(out: _Collector, table: dict, cells: dict, message: str) -> None:
    """A ``totality`` for each composable pair ``(g, f)`` of ``cells`` not in ``table``."""
    for f, g in composable_pairs(cells):
        if (g, f) not in table:
            out.add("totality", (g, f), message)


def validate_category(C: FiniteCategory) -> ValidationReport:
    out = _Collector()
    _unknown_ends(out, C.arrows, C.objects)
    arrows = {f: tuple(ends) for f, ends in C.arrows.items()}  # a frame by its endpoints
    for a in C.objects:
        i = C.identities.get(a)
        if i is None or i not in arrows:
            out.add("identity", (a,), "no identity arrow")
        elif arrows[i] != (a, a):
            out.add("identity", (a, i), "identity endpoints are wrong")
    _unknown_keys(out, C.identities, C.objects, "identities entry for an unknown object")
    if out.items:
        return out.report()
    _composites(out, C.compose, arrows, "frame", "compose entry for an unknown arrow",
                "entry for a non-composable pair", "composite endpoints are wrong")
    _missing_composites(out, C.compose, arrows, "composable pair missing from the table")
    if out.items:
        return out.report()
    for f in C.arrows:
        if C.then(f, C.identities[C.tgt(f)]) != f:
            out.add("unit", (f,), "left identity law fails")
        if C.then(C.identities[C.src(f)], f) != f:
            out.add("unit", (f,), "right identity law fails")
    for f, g, h in composable_triples(C.arrows):
        if C.then(C.then(f, g), h) != C.then(f, C.then(g, h)):
            out.add("associativity", (h, g, f))
    return out.report()


def _hom_pairs(one_cells: dict[str, tuple[str, str]], two_cells: dict[str, tuple[str, str]]):
    """2-cell pairs (b, a) whose object frames chain: a in hom(A,B), b in hom(B,C)."""
    frames = {a: one_cells[f] for a, (f, _) in two_cells.items()}
    return [(b, a) for a, b in composable_pairs(frames)]


def validate_bicategory(B: FiniteBicategory) -> ValidationReport:
    """Every axiom as a separately reported rule.

    Rules: ``dangling id``, ``frame``, ``totality``, ``hom category``,
    ``hcomp identity``, ``interchange``, ``associator invertible``,
    ``associator naturality``, ``unitor invertible``, ``left unitor
    naturality``, ``right unitor naturality``, ``pentagon``, ``triangle``.
    """
    out = _Collector()
    _unknown_ends(out, B.one_cells, B.objects)
    one_cells = {f: tuple(ends) for f, ends in B.one_cells.items()}  # frames by their endpoints
    two_cells = {a: tuple(ends) for a, ends in B.two_cells.items()}
    for a, (x, y) in two_cells.items():
        if x not in one_cells or y not in one_cells:
            out.add("dangling id", (a,), "endpoint 1-cell missing")
        elif one_cells[x] != one_cells[y]:
            out.add("frame", (a,), "2-cell endpoints live in different frames")
    for A in B.objects:
        i = B.id1.get(A)
        if i is None or i not in one_cells or one_cells[i] != (A, A):
            out.add("frame", (A,), "identity 1-cell missing or mistyped")
    _unknown_keys(out, B.id1, B.objects, "id1 entry for an unknown object")
    if out.items:
        return out.report()

    # each hom is a category
    for f in one_cells:
        i = B.id2.get(f)
        if i is None or i not in two_cells or two_cells[i] != (f, f):
            out.add("hom category", (f,), "identity 2-cell missing or mistyped")
    _unknown_keys(out, B.id2, one_cells, "id2 entry for an unknown 1-cell")
    _composites(out, B.vcomp, two_cells, "hom category", "vcomp entry for an unknown 2-cell",
                "vertical entry for a non-composable pair", "vertical composite mistyped")
    _missing_composites(out, B.vcomp, two_cells, "vertical composite missing")
    if out.items:
        return out.report()
    # from here on every read is of a composable pair, of typed cells, in a
    # table just checked total on such pairs, so the tables are read directly
    vcomp, hcomp1, hcomp2 = B.vcomp, B.hcomp1, B.hcomp2
    for a, (x, y) in two_cells.items():
        if vcomp[(B.id2[y], a)] != a or vcomp[(a, B.id2[x])] != a:
            out.add("hom category", (a,), "identity 2-cell is not neutral")
    for a, b, c in composable_triples(two_cells):
        if vcomp[(c, vcomp[(b, a)])] != vcomp[(vcomp[(c, b)], a)]:
            out.add("hom category", (c, b, a), "vertical associativity fails")

    # horizontal composition tables
    _missing_composites(out, B.hcomp1, one_cells, "1-cell composite missing")
    _composites(out, B.hcomp1, one_cells, "frame", "hcomp1 entry for an unknown 1-cell",
                "hcomp1 entry for a non-composable pair", "1-cell composite mistyped")
    for (b, a), c in B.hcomp2.items():
        if not two_cells.keys() >= {b, a, c}:
            out.add("dangling id", (b, a, c), "hcomp2 entry for an unknown 2-cell")
        elif B.tgt1(B.src2(a)) != B.src1(B.src2(b)):
            out.add("frame", (b, a), "hcomp2 entry for a non-composable pair")
    if out.items:
        return out.report()
    for b, a in _hom_pairs(one_cells, two_cells):
        if (b, a) not in B.hcomp2:
            out.add("totality", (b, a), "2-cell horizontal composite missing")
            continue
        c = B.hcomp2[(b, a)]
        want = (
            B.beside1(B.src2(b), B.src2(a)),
            B.beside1(B.tgt2(b), B.tgt2(a)),
        )
        if two_cells[c] != want:
            out.add("frame", (b, a, c), "2-cell horizontal composite mistyped")
    if out.items:
        return out.report()

    # functoriality of horizontal composition
    comp1 = [(g, f) for f, g in composable_pairs(one_cells)]
    for g, f in comp1:
        if hcomp2[(B.id2[g], B.id2[f])] != B.id2[hcomp1[(g, f)]]:
            out.add("hcomp identity", (g, f))
    by_target = _by_source({x: (t, s) for x, (s, t) in two_cells.items()})
    for b2, a2 in _hom_pairs(one_cells, two_cells):
        for b1 in by_target.get(two_cells[b2][0], ()):
            for a1 in by_target.get(two_cells[a2][0], ()):
                lhs = hcomp2[(vcomp[(b2, b1)], vcomp[(a2, a1)])]
                rhs = vcomp[(hcomp2[(b2, a2)], hcomp2[(b1, a1)])]
                if lhs != rhs:
                    out.add("interchange", (b2, b1, a2, a1))

    # associator: typing, invertibility, naturality
    comp3 = [(h, g, f) for f, g, h in composable_triples(one_cells)]
    for h, g, f in comp3:
        a = B.assoc.get((h, g, f))
        if a is None:
            out.add("totality", (h, g, f), "associator component missing")
            continue
        want = (B.beside1(B.beside1(h, g), f), B.beside1(h, B.beside1(g, f)))
        if two_cells.get(a) != want:
            out.add("frame", (h, g, f, a), "associator component mistyped")
        elif not is_invertible_2cell(B, a):
            out.add("associator invertible", (h, g, f, a))
    for h, g, f in B.assoc:
        if not one_cells.keys() >= {h, g, f}:
            out.add("dangling id", (h, g, f), "assoc entry for an unknown 1-cell")
        elif B.tgt1(f) != B.src1(g) or B.tgt1(g) != B.src1(h):
            out.add("frame", (h, g, f), "assoc entry for a non-composable triple")
    if out.items:
        return out.report()
    backwards = {x: one_cells[f][::-1] for x, (f, _) in two_cells.items()}
    for c, b, a in composable_triples(backwards):
        (c1, c2), (b1, b2), (a1, a2) = two_cells[c], two_cells[b], two_cells[a]
        src_comp = B.assoc[(c1, b1, a1)]
        tgt_comp = B.assoc[(c2, b2, a2)]
        lhs = vcomp[(tgt_comp, hcomp2[(hcomp2[(c, b)], a)])]
        rhs = vcomp[(hcomp2[(c, hcomp2[(b, a)])], src_comp)]
        if lhs != rhs:
            out.add("associator naturality", (c, b, a))

    # unitors: typing, invertibility, naturality
    for f in one_cells:
        r = B.runit.get(f)
        l = B.lunit.get(f)
        s, t = one_cells[f]
        if r is None or two_cells.get(r) != (B.beside1(f, B.id1[s]), f):
            out.add("frame", (f, r), "right unitor missing or mistyped")
        elif not is_invertible_2cell(B, r):
            out.add("unitor invertible", (f, r))
        if l is None or two_cells.get(l) != (B.beside1(B.id1[t], f), f):
            out.add("frame", (f, l), "left unitor missing or mistyped")
        elif not is_invertible_2cell(B, l):
            out.add("unitor invertible", (f, l))
    _unknown_keys(out, B.runit, one_cells, "runit entry for an unknown 1-cell")
    _unknown_keys(out, B.lunit, one_cells, "lunit entry for an unknown 1-cell")
    if out.items:
        return out.report()
    for a, (f1, f2) in two_cells.items():
        s, t = one_cells[f1]
        lhs = vcomp[(B.runit[f2], hcomp2[(a, B.id2[B.id1[s]])])]
        rhs = vcomp[(a, B.runit[f1])]
        if lhs != rhs:
            out.add("right unitor naturality", (a,))
        lhs = vcomp[(B.lunit[f2], hcomp2[(B.id2[B.id1[t]], a)])]
        rhs = vcomp[(a, B.lunit[f1])]
        if lhs != rhs:
            out.add("left unitor naturality", (a,))

    # pentagon
    for (h, g, f) in comp3:
        for k in B.after.get(one_cells[h][1], ()):
            gf = hcomp1[(g, f)]
            hg = hcomp1[(h, g)]
            kh = hcomp1[(k, h)]
            one_leg = vcomp[(B.assoc[(k, h, gf)], B.assoc[(kh, g, f)])]
            other = vcomp[(
                vcomp[(hcomp2[(B.id2[k], B.assoc[(h, g, f)])], B.assoc[(k, hg, f)])],
                hcomp2[(B.assoc[(k, h, g)], B.id2[f])],
            )]
            if one_leg != other:
                out.add("pentagon", (k, h, g, f))

    # triangle
    for g, f in comp1:
        mid = one_cells[f][1]
        lhs = hcomp2[(B.runit[g], B.id2[f])]
        rhs = vcomp[(hcomp2[(B.id2[g], B.lunit[f])], B.assoc[(g, B.id1[mid], f)])]
        if lhs != rhs:
            out.add("triangle", (g, f))
    return out.report()


def validate_functor(F: CatFunctor, C: FiniteCategory, D: FiniteCategory) -> ValidationReport:
    out = _Collector()
    _images(out, "on_objects", "object", F.on_objects, C.objects, D.objects)
    _images(out, "on_arrows", "arrow", F.on_arrows, C.arrows, D.arrows, F.on_objects,
            "image endpoints do not match")
    if out.items:
        return out.report()
    for a in C.objects:
        if F.on_arrows[C.identities[a]] != D.identities[F.on_objects[a]]:
            out.add("identity", (a,))
    for (g, f), h in C.compose.items():
        if D.then(F.on_arrows[f], F.on_arrows[g]) != F.on_arrows[h]:
            out.add("composition", (g, f))
    return out.report()


def _lax_functor_structure(F: LaxFunctor, B: FiniteBicategory, B2: FiniteBicategory) -> _Collector:
    """``validate_lax_functor``'s ``dangling id`` (an entry keyed by no cell of
    ``B``), ``totality``, ``frame`` and ``hom functor`` rules; any but the last
    ends the walk early.  Raises ``InvalidInput`` with the report of a
    bicategory that is not valid."""
    for side in (B, B2):
        _require(validate_bicategory(side))
    out = _Collector()
    _images(out, "on_objects", "object", F.on_objects, B.objects, B2.objects)
    _images(out, "on_one_cells", "1-cell", F.on_one_cells, B.one_cells, B2.one_cells,
            F.on_objects, "1-cell image endpoints do not match")
    if out.items:
        return out
    _images(out, "on_two_cells", "2-cell", F.on_two_cells, B.two_cells, B2.two_cells,
            F.on_one_cells, "2-cell image frame does not match")
    for f, g in composable_pairs(B.one_cells):
        p = F.phi_pair.get((g, f))
        if p is None or p not in B2.two_cells:
            out.add("totality", (g, f), "pair constraint missing")
            continue
        want = (
            B2.beside1(F.on_one_cells[g], F.on_one_cells[f]),
            F.on_one_cells[B.beside1(g, f)],
        )
        if tuple(B2.two_cells[p]) != want:
            out.add("frame", (g, f, p), "pair constraint mistyped")
    for g, f in F.phi_pair:
        if not B.one_cells.keys() >= {g, f}:
            out.add("dangling id", (g, f), "phi_pair entry for an unknown 1-cell")
        elif B.tgt1(f) != B.src1(g):
            out.add("frame", (g, f), "phi_pair entry for a non-composable pair")
    for A in B.objects:
        p = F.phi_obj.get(A)
        if p is None or p not in B2.two_cells:
            out.add("totality", (A,), "object constraint missing")
            continue
        want = (B2.id1[F.on_objects[A]], F.on_one_cells[B.id1[A]])
        if tuple(B2.two_cells[p]) != want:
            out.add("frame", (A, p), "object constraint mistyped")
    _unknown_keys(out, F.phi_obj, B.objects, "phi_obj entry for an unknown object")
    if out.items:
        return out

    G1, G2 = F.on_one_cells, F.on_two_cells
    for f in B.one_cells:
        if G2[B.id2[f]] != B2.id2[G1[f]]:
            out.add("hom functor", (f,), "identity 2-cell not preserved")
    for (b, a), c in B.vcomp.items():
        if B2.then2(G2[a], G2[b]) != G2[c]:
            out.add("hom functor", (b, a), "vertical composition not preserved")
    return out


def validate_lax_functor(F: LaxFunctor, B: FiniteBicategory, B2: FiniteBicategory) -> ValidationReport:
    """Check the comparison-constraint axioms of a lax functor.

    Rules: ``dangling id``, ``totality``, ``frame``, ``hom functor``, ``phi
    naturality``, ``hexagon``, ``right unit axiom``, ``left unit axiom``.  Both
    bicategories must be valid: otherwise ``InvalidInput`` is raised with the
    first failing ``validate_bicategory`` report, source first.
    """
    out = _lax_functor_structure(F, B, B2)
    if any(v.rule != "hom functor" for v in out.items):
        return out.report()

    G1, G2 = F.on_one_cells, F.on_two_cells
    for b, a in _hom_pairs(B.one_cells, B.two_cells):
        g1, g2 = B.two_cells[b]
        f1, f2 = B.two_cells[a]
        lhs = B2.then2(B2.beside2(G2[b], G2[a]), F.phi_pair[(g2, f2)])
        rhs = B2.then2(F.phi_pair[(g1, f1)], G2[B.beside2(b, a)])
        if lhs != rhs:
            out.add("phi naturality", (b, a))

    for f, g, h in composable_triples(B.one_cells):
        gf, hg = B.beside1(g, f), B.beside1(h, g)
        lhs = B2.then2(
            B2.beside2(F.phi_pair[(h, g)], B2.id2[G1[f]]),
            B2.then2(F.phi_pair[(hg, f)], G2[B.assoc[(h, g, f)]]),
        )
        rhs = B2.then2(
            B2.assoc[(G1[h], G1[g], G1[f])],
            B2.then2(B2.beside2(B2.id2[G1[h]], F.phi_pair[(g, f)]), F.phi_pair[(h, gf)]),
        )
        if lhs != rhs:
            out.add("hexagon", (h, g, f))

    for f, (s, t) in B.one_cells.items():
        lhs = B2.then2(
            B2.beside2(B2.id2[G1[f]], F.phi_obj[s]),
            B2.then2(F.phi_pair[(f, B.id1[s])], G2[B.runit[f]]),
        )
        if lhs != B2.runit[G1[f]]:
            out.add("right unit axiom", (f,))
        lhs = B2.then2(
            B2.beside2(F.phi_obj[t], B2.id2[G1[f]]),
            B2.then2(F.phi_pair[(B.id1[t], f)], G2[B.lunit[f]]),
        )
        if lhs != B2.lunit[G1[f]]:
            out.add("left unit axiom", (f,))
    return out.report()
