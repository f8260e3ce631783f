"""The hand-filtered scans of the classical side, kept as oracles.

``validate_bicategory`` (with its ``_hom_pairs`` on a whole bicategory)
scans every 2-cell for the partners of interchange and associator
naturality and every 1-cell for the fourth edge of a pentagon; ``_normalize``
spells out the tail composite of a chain; ``_category_tables`` re-walks all
arrows, skipping the non-composable ones, on every backtracking step;
``is_universal_1cell_op1`` scans all 1-cells for each 1-cell out of the
source; ``to_bicategory`` solves ``hcomp2`` by a loop over all pairs of
1-ary cells.  The library now takes the same cells from
``composable_pairs``, ``composable_triples`` and the bicategory's
``after`` index.
``_category_tables`` is also the reference for the library's watch lists,
which re-check after each assignment only the triples that the new entry
can change.

Two lax-functor checks are kept as well: ``validate_lax_functor`` as it was
before its ``totality``, ``frame`` and ``hom functor`` rules moved into a
helper shared with ``morphism_from_lax_functor``, and
``morphism_from_lax_functor_check``, the translation's own hand-written check
that the shared helper replaced.  That check missed the constraints' frames
and dangling constraint ids.

The bodies are kept as they were; only the imports are adjusted, and
``validate_lax_functor`` calls this module's ``_hom_pairs``, which takes the
whole bicategory and gives the same pairs.

``validate_category`` was written for the tests from the axioms: it scans
every pair and triple of arrows for composability, where the library takes
them from ``composable_pairs`` and ``composable_triples``.

This module owns the labelled trees: ``_tree_of`` turns a ``Bracketing``
of a chain into a tree of ``_LEAF`` and ``_NODE`` tuples; the library walks
the bracketing itself.  ``bracketed_value`` evaluates one bracketed
composite leaf by leaf, and ``coherence_cell`` builds the canonical cell by
normalising both trees through this module's ``_normalize``, as the library
did before it walked bracketings.  Only tests call them, so they live here
rather than in ``opetokit.bicat``.

``_comb_tree`` and ``_whisker_at`` are generation's helpers from before its
legs came from flat memos: ``_comb_tree`` chains subtrees into a head-first
tree (with ``_UNIT`` leaves for units) for ``_normalize`` to walk, and
``_whisker_at`` recurses one slot at a time, recomputing the tail's
composite.  ``path_oracles._generate`` uses them with this ``_normalize``.
"""

from __future__ import annotations

from opetokit.bicat import (
    Bracketing,
    FiniteBicategory,
    FiniteCategory,
    LaxFunctor,
    chain_value,
    invert_two_cell,
    is_invertible_2cell,
)
from opetokit.core import (
    FiniteOpOneCat,
    FiniteOpTwoCat,
    composable_pairs,
    composable_triples,
    validate_op2,
)
from opetokit.equivalences import Biasing, _require, _solve_unique, validate_biasing
from opetokit.errors import (
    ArityBoundExceeded,
    DanglingId,
    InvalidBiasing,
    InvalidInput,
    MissingComposite,
    PathMismatch,
    ValidationReport,
    _Collector,
)
from opetokit.universality import check_coherence

# labeled trees: leaves carry a 1-cell id.
_LEAF, _NODE = "leaf", "node"


def _tree_of(b: Bracketing, edges: tuple[str, ...]):
    if b.size != len(edges):
        raise PathMismatch(f"bracketing has {b.size} leaves, path has {len(edges)}")
    if b.is_leaf:
        return (_LEAF, edges[0])
    k = b.left.size
    return (_NODE, _tree_of(b.left, edges[:k]), _tree_of(b.right, edges[k:]))


_UNIT = "unit"  # the leaf of a labeled tree that stands for an object's unit


def _comb_tree(subtrees):
    """Chain subtrees into head-first shape: node(t1, node(t2, ...))."""
    t = subtrees[-1]
    for s in reversed(subtrees[:-1]):
        t = (_NODE, s, t)
    return t


def _whisker_at(B: FiniteBicategory, vals, slot: int, beta: str) -> str:
    """Whisker ``beta`` into position ``slot`` of a head-first chain.

    ``vals`` are the chain's 1-cell values with ``vals[slot]`` equal to the
    source of ``beta``; the result runs from the chain composite at the source
    of ``beta`` to the composite at its target.
    """
    if len(vals) == 1:
        return beta
    if slot == 0:
        return B.beside2(B.id2[chain_value(B, vals[1:])], beta)
    return B.beside2(_whisker_at(B, vals[1:], slot - 1, beta), B.id2[vals[0]])


def _normalize(B: FiniteBicategory, t) -> tuple[tuple[str, ...], str, str]:
    """Rewrite a labeled tree to head-first unit-free form.

    Returns (leaves, value, iso) where ``iso`` is the invertible 2-cell from
    the tree's composite to the normal form's composite, assembled from
    whiskered associator and unitor components.
    """
    if t[0] == _LEAF:
        return (t[1],), t[1], B.id2[t[1]]
    if t[0] == _UNIT:
        unit = B.id1[t[1]]
        return (), unit, B.id2[unit]

    l_leaves, lv, liso = _normalize(B, t[1])
    r_leaves, rv, riso = _normalize(B, t[2])
    base = B.beside2(riso, liso)
    if not l_leaves:
        step = B.runit[rv]
        return r_leaves, rv, B.then2(base, step)
    if not r_leaves:
        step = B.lunit[lv]
        return l_leaves, lv, B.then2(base, step)

    def merge(xs: tuple[str, ...], rv: str) -> tuple[str, str]:
        """Iso rv.comb(xs) => comb(xs ++ tail of rv), with its value."""
        if len(xs) == 1:
            v = B.beside1(rv, xs[0])
            return v, B.id2[v]
        tail_v = xs[-1]
        for e in reversed(xs[1:-1]):
            tail_v = B.beside1(tail_v, e)
        a = B.assoc[(rv, tail_v, xs[0])]
        a_inv = invert_two_cell(B, a)
        if a_inv is None:
            raise MissingComposite(f"associator component {a!r} has no inverse")
        rec_v, rec = merge(xs[1:], rv)
        whisk = B.beside2(rec, B.id2[xs[0]])
        return B.beside1(rec_v, xs[0]), B.then2(a_inv, whisk)

    value, miso = merge(l_leaves, rv)
    return l_leaves + r_leaves, value, B.then2(base, miso)


def _tree_value(B: FiniteBicategory, t) -> str:
    if t[0] == _LEAF:
        return t[1]
    return B.beside1(_tree_value(B, t[2]), _tree_value(B, t[1]))


def bracketed_value(B: FiniteBicategory, edges, g: Bracketing) -> str:
    """Evaluate one bracketed composite of a chain of 1-cells."""
    return _tree_value(B, _tree_of(g, tuple(edges)))


def coherence_cell(B: FiniteBicategory, edges, g1: Bracketing, g2: Bracketing) -> str:
    """The canonical invertible 2-cell from one bracketed composite of
    ``edges`` to another, independent of the rewrite route."""
    edges = tuple(edges)
    if not edges:
        raise PathMismatch("coherence cells need at least one edge")
    for e in edges:
        if e not in B.one_cells:
            raise DanglingId(f"unknown 1-cell {e!r}")
    t1 = _tree_of(g1, edges)
    t2 = _tree_of(g2, edges)
    _, _, iso1 = _normalize(B, t1)
    _, _, iso2 = _normalize(B, t2)
    back = invert_two_cell(B, iso2)
    if back is None:
        raise MissingComposite(f"normalisation leg {iso2!r} has no inverse")
    return B.then2(iso1, back)


def _hom_pairs(B: FiniteBicategory):
    """2-cell pairs (b, a) whose object frames chain: a in hom(A,B), b in hom(B,C)."""
    frames = {a: B.one_cells[f] for a, (f, _) in B.two_cells.items()}
    return [(b, a) for a, b in composable_pairs(frames)]


def validate_bicategory(B: FiniteBicategory) -> ValidationReport:
    """Every axiom as a separately reported rule.

    Rules: ``dangling id``, ``frame``, ``totality``, ``hom category``,
    ``hcomp identity``, ``interchange``, ``associator invertible``,
    ``associator naturality``, ``unitor invertible``, ``left unitor
    naturality``, ``right unitor naturality``, ``pentagon``, ``triangle``.
    """
    out = _Collector()
    for f, (s, t) in B.one_cells.items():
        if s not in B.objects or t not in B.objects:
            out.add("dangling id", (f,))
    for a, (x, y) in B.two_cells.items():
        if x not in B.one_cells or y not in B.one_cells:
            out.add("dangling id", (a,))
        elif B.one_cells[x] != B.one_cells[y]:
            out.add("frame", (a,), "2-cell endpoints live in different frames")
    for A in B.objects:
        i = B.id1.get(A)
        if i is None or i not in B.one_cells or B.one_cells[i] != (A, A):
            out.add("frame", (A,), "identity 1-cell missing or mistyped")
    if out.items:
        return out.report()

    # each hom is a category
    for f in B.one_cells:
        i = B.id2.get(f)
        if i is None or i not in B.two_cells or B.two_cells[i] != (f, f):
            out.add("hom category", (f,), "identity 2-cell missing or mistyped")
    for (b, a), c in B.vcomp.items():
        if not B.two_cells.keys() >= {b, a, c}:
            out.add("dangling id", (b, a, c))
        elif B.tgt2(a) != B.src2(b):
            out.add("hom category", (b, a), "vertical entry for a non-composable pair")
        elif B.two_cells[c] != (B.src2(a), B.tgt2(b)):
            out.add("hom category", (b, a, c), "vertical composite mistyped")
    for a, b in composable_pairs(B.two_cells):
        if (b, a) not in B.vcomp:
            out.add("totality", (b, a), "vertical composite missing")
    if out.items:
        return out.report()
    for a in B.two_cells:
        if B.then2(a, B.id2[B.tgt2(a)]) != a or B.then2(B.id2[B.src2(a)], a) != a:
            out.add("hom category", (a,), "identity 2-cell is not neutral")
    for a, b, c in composable_triples(B.two_cells):
        if B.then2(B.then2(a, b), c) != B.then2(a, B.then2(b, c)):
            out.add("hom category", (c, b, a), "vertical associativity fails")

    # horizontal composition tables
    comp1 = [(g, f) for f, g in composable_pairs(B.one_cells)]
    for g, f in comp1:
        if (g, f) not in B.hcomp1:
            out.add("totality", (g, f), "1-cell composite missing")
    for (g, f), h in B.hcomp1.items():
        if not B.one_cells.keys() >= {g, f, h}:
            out.add("dangling id", (g, f, h))
        elif B.one_cells[h] != (B.src1(f), B.tgt1(g)):
            out.add("frame", (g, f, h), "1-cell composite mistyped")
    for (b, a), c in B.hcomp2.items():
        if not B.two_cells.keys() >= {b, a, c}:
            out.add("dangling id", (b, a, c))
    if out.items:
        return out.report()
    for b, a in _hom_pairs(B):
        if (b, a) not in B.hcomp2:
            out.add("totality", (b, a), "2-cell horizontal composite missing")
            continue
        c = B.hcomp2[(b, a)]
        want = (
            B.beside1(B.src2(b), B.src2(a)),
            B.beside1(B.tgt2(b), B.tgt2(a)),
        )
        if B.two_cells[c] != want:
            out.add("frame", (b, a, c), "2-cell horizontal composite mistyped")
    if out.items:
        return out.report()

    # functoriality of horizontal composition
    for g, f in comp1:
        if B.beside2(B.id2[g], B.id2[f]) != B.id2[B.beside1(g, f)]:
            out.add("hcomp identity", (g, f))
    for b2, a2 in _hom_pairs(B):
        for b1 in B.two_cells:
            if B.tgt2(b1) != B.src2(b2):
                continue
            for a1 in B.two_cells:
                if B.tgt2(a1) != B.src2(a2):
                    continue
                if B.src1(B.src2(b1)) != B.tgt1(B.src2(a1)):
                    continue
                lhs = B.beside2(B.then2(b1, b2), B.then2(a1, a2))
                rhs = B.then2(B.beside2(b1, a1), B.beside2(b2, a2))
                if lhs != rhs:
                    out.add("interchange", (b2, b1, a2, a1))

    # associator: typing, invertibility, naturality
    comp3 = [(h, g, f) for f, g, h in composable_triples(B.one_cells)]
    for h, g, f in comp3:
        a = B.assoc.get((h, g, f))
        if a is None:
            out.add("totality", (h, g, f), "associator component missing")
            continue
        want = (B.beside1(B.beside1(h, g), f), B.beside1(h, B.beside1(g, f)))
        if B.two_cells.get(a) != want:
            out.add("frame", (h, g, f, a), "associator component mistyped")
        elif not is_invertible_2cell(B, a):
            out.add("associator invertible", (h, g, f, a))
    if out.items:
        return out.report()
    for c in B.two_cells:
        for b in B.two_cells:
            if B.src1(B.src2(c)) != B.tgt1(B.src2(b)):
                continue
            for a in B.two_cells:
                if B.src1(B.src2(b)) != B.tgt1(B.src2(a)):
                    continue
                src_comp = B.assoc[(B.src2(c), B.src2(b), B.src2(a))]
                tgt_comp = B.assoc[(B.tgt2(c), B.tgt2(b), B.tgt2(a))]
                lhs = B.then2(B.beside2(B.beside2(c, b), a), tgt_comp)
                rhs = B.then2(src_comp, B.beside2(c, B.beside2(b, a)))
                if lhs != rhs:
                    out.add("associator naturality", (c, b, a))

    # unitors: typing, invertibility, naturality
    for f in B.one_cells:
        r = B.runit.get(f)
        l = B.lunit.get(f)
        s, t = B.one_cells[f]
        if r is None or B.two_cells.get(r) != (B.beside1(f, B.id1[s]), f):
            out.add("frame", (f, r), "right unitor missing or mistyped")
        elif not is_invertible_2cell(B, r):
            out.add("unitor invertible", (f, r))
        if l is None or B.two_cells.get(l) != (B.beside1(B.id1[t], f), f):
            out.add("frame", (f, l), "left unitor missing or mistyped")
        elif not is_invertible_2cell(B, l):
            out.add("unitor invertible", (f, l))
    if out.items:
        return out.report()
    for a, (f1, f2) in B.two_cells.items():
        s, t = B.one_cells[f1]
        lhs = B.then2(B.beside2(a, B.id2[B.id1[s]]), B.runit[f2])
        rhs = B.then2(B.runit[f1], a)
        if lhs != rhs:
            out.add("right unitor naturality", (a,))
        lhs = B.then2(B.beside2(B.id2[B.id1[t]], a), B.lunit[f2])
        rhs = B.then2(B.lunit[f1], a)
        if lhs != rhs:
            out.add("left unitor naturality", (a,))

    # pentagon
    for (h, g, f) in comp3:
        for k in B.one_cells:
            if B.tgt1(h) != B.src1(k):
                continue
            gf = B.beside1(g, f)
            hg = B.beside1(h, g)
            kh = B.beside1(k, h)
            one_leg = B.then2(B.assoc[(kh, g, f)], B.assoc[(k, h, gf)])
            other = B.then2(
                B.beside2(B.assoc[(k, h, g)], B.id2[f]),
                B.then2(B.assoc[(k, hg, f)], B.beside2(B.id2[k], B.assoc[(h, g, f)])),
            )
            if one_leg != other:
                out.add("pentagon", (k, h, g, f))

    # triangle
    for g, f in comp1:
        mid = B.tgt1(f)
        lhs = B.beside2(B.runit[g], B.id2[f])
        rhs = B.then2(B.assoc[(g, B.id1[mid], f)], B.beside2(B.id2[g], B.lunit[f]))
        if lhs != rhs:
            out.add("triangle", (g, f))
    return out.report()


def validate_category(C: FiniteCategory) -> ValidationReport:
    """The category axioms read off directly: every pair and triple of arrows
    is scanned for composability, with the library's rules, messages,
    witness order and early returns."""
    out = _Collector()
    arrows, identities, compose = C.arrows, C.identities, C.compose
    for f, (s, t) in arrows.items():
        if s not in C.objects or t not in C.objects:
            out.add("dangling id", (f,), "endpoint object missing")
    for a in C.objects:
        i = identities.get(a)
        if i is None or i not in arrows:
            out.add("identity", (a,), "no identity arrow")
        elif arrows[i] != (a, a):
            out.add("identity", (a, i), "identity endpoints are wrong")
    for a in identities:
        if a not in C.objects:
            out.add("dangling id", (a,), "identities entry for an unknown object")
    if out.items:
        return out.report()
    for (g, f), h in compose.items():
        if g not in arrows or f not in arrows or h not in arrows:
            out.add("dangling id", (g, f, h), "compose entry for an unknown arrow")
        elif arrows[f][1] != arrows[g][0]:
            out.add("frame", (g, f), "entry for a non-composable pair")
        elif arrows[h] != (arrows[f][0], arrows[g][1]):
            out.add("frame", (g, f, h), "composite endpoints are wrong")
    for f in arrows:
        for g in arrows:
            if arrows[f][1] == arrows[g][0] and (g, f) not in compose:
                out.add("totality", (g, f), "composable pair missing from the table")
    if out.items:
        return out.report()
    # g after f is compose[(g, f)]
    for f, (s, t) in arrows.items():
        if compose[(identities[t], f)] != f:
            out.add("unit", (f,), "left identity law fails")
        if compose[(f, identities[s])] != f:
            out.add("unit", (f,), "right identity law fails")
    for f in arrows:
        for g in arrows:
            for h in arrows:
                if arrows[f][1] == arrows[g][0] and arrows[g][1] == arrows[h][0]:
                    if compose[(h, compose[(g, f)])] != compose[(compose[(h, g)], f)]:
                        out.add("associativity", (h, g, f))
    return out.report()


def _category_tables(objects, arrows, identities):
    """Every associative composition table over a fixed arrow configuration,
    by backtracking with incremental associativity pruning."""
    arrow_ids = sorted(arrows)
    src = {a: arrows[a][0] for a in arrow_ids}
    tgt = {a: arrows[a][1] for a in arrow_ids}
    ident = set(identities.values())
    pairs = [(g, f) for f in arrow_ids for g in arrow_ids if tgt[f] == src[g]]
    table: dict[tuple[str, str], str] = {}
    free = []
    for g, f in pairs:
        if f in ident:
            table[(g, f)] = g
        elif g in ident:
            table[(g, f)] = f
        else:
            free.append((g, f))
    candidates = {
        (g, f): [h for h in arrow_ids if src[h] == src[f] and tgt[h] == tgt[g]]
        for (g, f) in free
    }
    if any(not c for c in candidates.values()):
        return

    def consistent() -> bool:
        for f in arrow_ids:
            for g in arrow_ids:
                if tgt[f] != src[g]:
                    continue
                gf = table.get((g, f))
                if gf is None:
                    continue
                for h in arrow_ids:
                    if tgt[g] != src[h]:
                        continue
                    hg = table.get((h, g))
                    if hg is None:
                        continue
                    left, right = table.get((h, gf)), table.get((hg, f))
                    if left is not None and right is not None and left != right:
                        return False
        return True

    def rec(i: int):
        if i == len(free):
            yield dict(table)
            return
        key = free[i]
        for value in candidates[key]:
            table[key] = value
            if consistent():
                yield from rec(i + 1)
        del table[key]

    yield from rec(0)


def is_universal_1cell_op1(X: FiniteOpOneCat, f: str) -> bool:
    """The one-dimensional analogue: unique factorisation through ``f``.

    A 1-cell is universal exactly when every 1-cell out of the same object is
    comp of (f, gbar) for exactly one gbar.
    """
    if f not in X.cells1:
        raise DanglingId(f"unknown 1-cell {f!r}")
    src_f, tgt_f = X.cells1[f]
    for g, (s, _) in X.cells1.items():
        if s != src_f:
            continue
        matches = [
            gbar
            for gbar, (s2, _) in X.cells1.items()
            if s2 == tgt_f and X.comp.get((1, f, gbar)) == g
        ]
        if len(matches) != 1:
            return False
    return True


def to_bicategory(X: FiniteOpTwoCat, b: Biasing, check: bool = True) -> FiniteBicategory:
    """Solve the classical coherence data out of a biased presentation."""
    if X.arity_bound < 3:
        raise ArityBoundExceeded("building a bicategory needs arity bound at least 3")
    if check:
        _require(validate_op2(X))
        _require(check_coherence(X))
        _require(validate_biasing(X, b), InvalidBiasing)

    one_cells = dict(X.cells1)
    two_cells = {
        cid: (cell.source.edges[0], cell.target)
        for cid, cell in X.cells2.items()
        if cell.source.arity == 1
    }
    id2 = dict(X.ident2)
    vcomp = {(b2, a2): X.graft[(b2, 0, a2)] for a2, b2 in composable_pairs(two_cells)}
    id1 = {a: X.cells2[b.iota[a]].target for a in X.objects}
    hcomp1 = {
        (g, f): X.cells2[b.c[(f, g)]].target
        for (f, g) in b.c
    }

    hcomp2: dict[tuple[str, str], str] = {}
    for a2, (f1, f2) in two_cells.items():
        mid = X.tgt1(f1)
        for b2, (g1, g2) in two_cells.items():
            if X.src1(g1) != mid:
                continue
            pasted = X.graft[(X.graft[(b.c[(f2, g2)], 0, a2)], 1, b2)]
            hcomp2[(b2, a2)] = _solve_unique(
                X, b.c[(f1, g1)], pasted, "horizontal composite"
            )

    assoc: dict[tuple[str, str, str], str] = {}
    for f, g, h in composable_triples(X.cells1):
        gf = hcomp1[(g, f)]
        hg = hcomp1[(h, g)]
        head_first = X.graft[(b.c[(f, hg)], 1, b.c[(g, h)])]
        tail_first = X.graft[(b.c[(gf, h)], 0, b.c[(f, g)])]
        assoc[(h, g, f)] = _solve_unique(X, head_first, tail_first, "associator component")

    lunit: dict[str, str] = {}
    runit: dict[str, str] = {}
    for f, (s, t) in X.cells1.items():
        padded = X.graft[(b.c[(id1[s], f)], 0, b.iota[s])]
        runit[f] = _solve_unique(X, padded, X.ident2[f], "right unitor")
        padded = X.graft[(b.c[(f, id1[t])], 1, b.iota[t])]
        lunit[f] = _solve_unique(X, padded, X.ident2[f], "left unitor")

    return FiniteBicategory(
        objects=tuple(sorted(X.objects)),
        one_cells=one_cells,
        two_cells=two_cells,
        id2=id2,
        vcomp=vcomp,
        id1=id1,
        hcomp1=hcomp1,
        hcomp2=hcomp2,
        assoc=assoc,
        lunit=lunit,
        runit=runit,
    )


def validate_lax_functor(F: LaxFunctor, B: FiniteBicategory, B2: FiniteBicategory) -> ValidationReport:
    """Check the comparison-constraint axioms of a lax functor.

    Rules: ``totality``, ``frame``, ``hom functor``, ``phi naturality``,
    ``hexagon``, ``right unit axiom``, ``left unit axiom``.
    """
    out = _Collector()
    for A in B.objects:
        if F.on_objects.get(A) not in B2.objects:
            out.add("totality", (A,), "object has no image")
    for f, (s, t) in B.one_cells.items():
        ff = F.on_one_cells.get(f)
        if ff is None or ff not in B2.one_cells:
            out.add("totality", (f,), "1-cell has no image")
        elif B2.one_cells[ff] != (F.on_objects.get(s), F.on_objects.get(t)):
            out.add("frame", (f,), "1-cell image endpoints do not match")
    if out.items:
        return out.report()
    for a, (x, y) in B.two_cells.items():
        fa = F.on_two_cells.get(a)
        if fa is None or fa not in B2.two_cells:
            out.add("totality", (a,), "2-cell has no image")
        elif B2.two_cells[fa] != (F.on_one_cells[x], F.on_one_cells[y]):
            out.add("frame", (a,), "2-cell image frame does not match")
    for f, g in composable_pairs(B.one_cells):
        p = F.phi_pair.get((g, f))
        if p is None or p not in B2.two_cells:
            out.add("totality", (g, f), "pair constraint missing")
            continue
        want = (
            B2.beside1(F.on_one_cells[g], F.on_one_cells[f]),
            F.on_one_cells[B.beside1(g, f)],
        )
        if B2.two_cells[p] != want:
            out.add("frame", (g, f, p), "pair constraint mistyped")
    for A in B.objects:
        p = F.phi_obj.get(A)
        if p is None or p not in B2.two_cells:
            out.add("totality", (A,), "object constraint missing")
            continue
        want = (B2.id1[F.on_objects[A]], F.on_one_cells[B.id1[A]])
        if B2.two_cells[p] != want:
            out.add("frame", (A, p), "object constraint mistyped")
    if out.items:
        return out.report()

    G0, G1, G2 = F.on_objects, F.on_one_cells, F.on_two_cells
    for f in B.one_cells:
        if G2[B.id2[f]] != B2.id2[G1[f]]:
            out.add("hom functor", (f,), "identity 2-cell not preserved")
    for (b, a), c in B.vcomp.items():
        if B2.then2(G2[a], G2[b]) != G2[c]:
            out.add("hom functor", (b, a), "vertical composition not preserved")

    for b, a in _hom_pairs(B):
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


def morphism_from_lax_functor_check(G: LaxFunctor, B: FiniteBicategory, B2: FiniteBicategory) -> None:
    """``morphism_from_lax_functor``'s own ``check=True`` block."""
    for A in B.objects:
        if G.on_objects.get(A) not in B2.objects:
            raise InvalidInput(f"object {A!r} has no valid image")
    for f, (s, t) in B.one_cells.items():
        ff = G.on_one_cells.get(f)
        if ff is None or B2.one_cells.get(ff) != (G.on_objects[s], G.on_objects[t]):
            raise InvalidInput(f"image of 1-cell {f!r} breaks its frame")
    for a, (x, y) in B.two_cells.items():
        ga = G.on_two_cells.get(a)
        if ga is None or B2.two_cells.get(ga) != (G.on_one_cells[x], G.on_one_cells[y]):
            raise InvalidInput(f"image of 2-cell {a!r} breaks its frame")
    for f in B.one_cells:
        if G.on_two_cells[B.id2[f]] != B2.id2[G.on_one_cells[f]]:
            raise InvalidInput(f"identity 2-cell on {f!r} not preserved")
    for (b2c, a2c), c in B.vcomp.items():
        if B2.then2(G.on_two_cells[a2c], G.on_two_cells[b2c]) != G.on_two_cells[c]:
            raise InvalidInput("vertical composition not preserved")
    for f, g in composable_pairs(B.one_cells):
        if (g, f) not in G.phi_pair:
            raise InvalidInput(f"pair constraint for ({g!r}, {f!r}) missing")
    for A in B.objects:
        if A not in G.phi_obj:
            raise InvalidInput(f"object constraint for {A!r} missing")
