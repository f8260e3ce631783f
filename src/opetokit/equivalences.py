"""Conversions between opetopic and classical presentations, both directions.

Dimension 0 swaps a one-loop-per-object presentation with a plain set.
Dimension 1 reads composition and identities off the unique niche occupants;
the inverse materialises the full composition table of a category up to the
arity bound.  Dimension 2 needs a choice: a biasing picks one universal
occupant for every nullary and binary 2-niche, and the bicategory's data is
then solved for through unique factorisations.  The inverse generates cells
as canonical pairs (head-first bracketing, labelling 2-cell) and computes the
grafting table by whiskering and renormalising through coherence cells.

Morphisms translate likewise: constraint components are the unique solutions
against the chosen occupants, and a lax functor extends back to all arities
through the canonical presentation.  Classification compares images of
universal and of chosen occupants.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import repeat

from .errors import (
    ArityBoundExceeded,
    InvalidBiasing,
    InvalidInput,
    NonUniqueSolution,
    NoSolution,
    NoUniversalOccupant,
    ValidationReport,
    _Collector,
    _require,
)
from .core import (
    DEFAULT_ARITY_BOUND,
    FiniteOpOneCat,
    FiniteOpTwoCat,
    FiniteOpZeroCat,
    PastingPath,
    TwoCell,
    _unknown_keys,
    composable_pairs,
    composable_triples,
    empty_path,
    fold_paths,
    iter_paths,
    key_image,
    validate_op0,
    validate_op1,
    validate_op2,
)
from .bicat import (
    CatFunctor,
    FiniteBicategory,
    FiniteCategory,
    LaxFunctor,
    _hom_pairs,
    _join,
    _lax_functor_structure,
    chain_value,
    invert_two_cell,
    validate_bicategory,
    validate_category,
)
from .universality import (
    _factorizations,
    check_coherence,
    is_universal_1cell,
    is_universal_2cell,
)


@dataclass(frozen=True)
class Biasing:
    """Chosen universal occupants: one per nullary and per binary 2-niche.

    ``c`` is keyed by the two-edge source path in order (first, second).
    """

    iota: dict[str, str]
    c: dict[tuple[str, str], str]


@dataclass(frozen=True)
class OpMorphism:
    """Level-wise maps of cells between opetopic presentations."""

    on_objects: dict[str, str]
    on_one_cells: dict[str, str]
    on_two_cells: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class MorphismClassification:
    verdict: str  # "strict", "weak" or "lax"
    witness: tuple = ()

    def __str__(self) -> str:
        if self.witness:
            return f"{self.verdict} (witness: {self.witness})"
        return self.verdict


# ---------------------------------------------------------------------------
# dimension 0


def to_set(X: FiniteOpZeroCat) -> tuple[str, ...]:
    _require(validate_op0(X))
    return tuple(sorted(X.objects))


def from_set(elements) -> FiniteOpZeroCat:
    objects = tuple(sorted(elements))
    return FiniteOpZeroCat(objects, {f"1_{a}": (a, a) for a in objects})


# ---------------------------------------------------------------------------
# dimension 1


def to_category(X: FiniteOpOneCat, check: bool = True) -> FiniteCategory:
    """Read a category off the unique occupants of nullary and binary niches."""
    if X.arity_bound < 2:
        raise ArityBoundExceeded("reading a category needs arity bound at least 2")
    if check:
        _require(validate_op1(X))
    identities = {a: X.comp[(0, a)] for a in X.objects}
    compose = {(g, f): X.comp[(1, f, g)] for f, g in composable_pairs(X.cells1)}
    return FiniteCategory(
        tuple(sorted(X.objects)), dict(X.cells1), identities, compose
    )


def from_category(
    C: FiniteCategory, arity_bound: int | None = None, check: bool = True
) -> FiniteOpOneCat:
    """Materialise the composition table over all paths up to the bound.

    A path's row is its prefix's row composed with its last edge.  The
    two-edge paths are read off ``C.compose`` in one ``map``; on a pair with
    no entry, ``C.then`` raises its ``MissingComposite`` for the first such
    pair in key order, the one a row-by-row fold would have met first.  If
    each of their rows is an arrow with the target of the path, every longer
    path's row is read off theirs by position (``fold_paths``); otherwise
    (only with ``check=False``) each longer length is read off ``C.compose``
    as the two-edge paths are.
    """
    bound = DEFAULT_ARITY_BOUND if arity_bound is None else arity_bound
    if bound < 0:
        raise ArityBoundExceeded(f"the arity bound must not be negative, got {bound}")
    if check:
        _require(validate_category(C))
    X = FiniteOpOneCat(tuple(sorted(C.objects)), dict(C.arrows), {}, bound)

    def layer(rows, ends):
        try:
            return list(map(C.compose.__getitem__, zip(ends, rows)))
        except KeyError as miss:  # only ``C.compose`` can miss here
            g, f = miss.args[0]
            C.then(f, g)  # raises its MissingComposite for the same pair

    fold_paths(X, C.identities, layer)
    return X


def _outside_the_source(F: OpMorphism, X, cells2) -> _Collector:
    """A ``dangling id`` per entry of ``F`` keyed by no cell of ``X`` (2-cells: ``cells2``)."""
    out = _Collector()
    _unknown_keys(out, F.on_objects, X.objects, "on_objects entry for an unknown object")
    _unknown_keys(out, F.on_one_cells, X.cells1, "on_one_cells entry for an unknown 1-cell")
    _unknown_keys(out, F.on_two_cells, cells2, "on_two_cells entry for an unknown 2-cell")
    return out


def _check_level_maps(F: OpMorphism, X, Y) -> None:
    """Objects and 1-cells go to objects and 1-cells of the same frame."""
    for a in X.objects:
        if F.on_objects.get(a) not in Y.objects:
            raise InvalidInput(f"object {a!r} has no valid image")
    for f, (s, t) in X.cells1.items():
        ff = F.on_one_cells.get(f)
        if ff is None or ff not in Y.cells1:
            raise InvalidInput(f"1-cell {f!r} has no valid image")
        if tuple(Y.cells1[ff]) != (F.on_objects[s], F.on_objects[t]):
            raise InvalidInput(f"image of 1-cell {f!r} breaks its frame")


def functor_from_morphism(
    F: OpMorphism, X: FiniteOpOneCat, Y: FiniteOpOneCat, check: bool = True
) -> CatFunctor:
    """A morphism of 1-dimensional presentations is already a functor."""
    if check:
        _require(_outside_the_source(F, X, ()).report())
        _check_level_maps(F, X, Y)
        for key in iter_paths(X):
            row = X.comp.get(key)
            if row not in X.cells1:
                raise InvalidInput(f"source has no valid composite for {key}")
            image = key_image(key, F.on_objects, F.on_one_cells)
            if Y.comp.get(image) != F.on_one_cells[row]:
                raise InvalidInput(f"composition not preserved on {key}")
    return CatFunctor(dict(F.on_objects), dict(F.on_one_cells))


# ---------------------------------------------------------------------------
# dimension 2: biasing and the forward direction


def _biased_niches(X: FiniteOpTwoCat, b: Biasing):
    """The niches a biasing chooses for, as (kind, ``b``'s table for the kind,
    place in it, occupants): the nullary niche at each object, then the
    binary niche at each composable pair."""
    for a in X.objects:
        yield "nullary", b.iota, a, X.occupants.get((0, a), ())
    for f, g in composable_pairs(X.cells1):
        yield "binary", b.c, (f, g), X.occupants.get((1, f, g), ())


def choose_biasing(X: FiniteOpTwoCat) -> Biasing:
    """Pick the lexicographically least universal occupant per niche."""
    b = Biasing({}, {})
    for kind, chosen, place, occupants in _biased_niches(X, b):
        universal = [c for c in occupants if is_universal_2cell(X, c)]
        if not universal:
            raise NoUniversalOccupant(f"{kind} niche at {place!r}")
        chosen[place] = min(universal)
    return b


def validate_biasing(X: FiniteOpTwoCat, b: Biasing) -> ValidationReport:
    out = _Collector()
    for kind, chosen, place, occupants in _biased_niches(X, b):
        where = place if kind == "binary" else (place,)
        cell_id = chosen.get(place)
        if cell_id is None or cell_id not in X.cells2:
            out.add("totality", where, f"no chosen {kind} occupant")
        elif cell_id not in occupants:
            niche = "its binary" if kind == "binary" else "the nullary"
            out.add("niche", (*where, cell_id), f"chosen cell not in {niche} niche")
        elif not is_universal_2cell(X, cell_id):
            out.add("universality", (*where, cell_id), f"chosen {kind} occupant not universal")
    _unknown_keys(out, b.iota, X.objects, "choice for an unknown object", "niche")
    pairs = set(composable_pairs(X.cells1))
    _unknown_keys(out, b.c, pairs, "choice for a non-composable pair", "niche")
    return out.report()


def _solve_unique(X: FiniteOpTwoCat, base: str, composite: str, what: str) -> str:
    """The unique 1-ary cell whose graft over ``base`` equals ``composite``."""
    matches = _factorizations(X, base, composite)
    if not matches:
        raise NoSolution(f"no {what} over {base!r} reaching {composite!r}")
    if len(matches) > 1:
        raise NonUniqueSolution(f"{what} over {base!r} not unique: {sorted(matches)}")
    return matches[0]


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
    for b2, a2 in _hom_pairs(one_cells, two_cells):
        (f1, f2), (g1, g2) = two_cells[a2], two_cells[b2]
        pasted = X.graft[(X.graft[(b.c[(f2, g2)], 0, a2)], 1, b2)]
        hcomp2[(b2, a2)] = _solve_unique(X, b.c[(f1, g1)], pasted, "horizontal composite")

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


# ---------------------------------------------------------------------------
# dimension 2: generation (the inverse direction)


@dataclass(frozen=True)
class _Generated:
    structure: FiniteOpTwoCat
    biasing: Biasing
    value_of: dict[str, tuple[tuple, str]]  # cell id -> (source path key, label)
    cell_of: dict[tuple, str]


def _cell_name(key: tuple, alpha: str) -> str:
    if not key[0]:
        return f"@{key[1]}|{alpha}"
    if len(key) == 2:
        return alpha
    return f"{';'.join(key[1:])}|{alpha}"


def _leg(
    B: FiniteBicategory, edges: tuple, slot: int, q: tuple, legs: dict, merges: dict, inverses: dict
):
    """The normal form of the comb of ``edges`` with the comb of the inner
    path ``q``, or its unit, in place of ``edges[slot]``; kept in ``legs``
    (see ``_generate``).  The comb of ``edges`` is the leg ``(edges, 0, (1,
    edges[0]))``: at slot 0 the inner part (the unit, a one-edge path's
    leaf, or the comb of a longer path's edges) is built before the comb of
    ``edges[1:]``, as a node's left part before its right."""
    key = edges, slot, q
    if key not in legs:
        if slot:
            head = (edges[0],), edges[0], B.id2[edges[0]]
            rest = _leg(B, edges[1:], slot - 1, q, legs, merges, inverses)
            leg = _join(B, head, rest, merges, inverses)
        else:
            if not q[0]:
                unit = B.id1[q[1]]
                leg = (), unit, B.id2[unit]
            elif len(q) == 2:
                leg = q[1:], q[1], B.id2[q[1]]
            else:
                leg = _leg(B, q[1:], 0, q[:2], legs, merges, inverses)
            if len(edges) > 1:
                rest = _leg(B, edges[1:], 0, (1, edges[1]), legs, merges, inverses)
                leg = _join(B, leg, rest, merges, inverses)
        legs[key] = leg
    return legs[key]


def _whisk(
    B: FiniteBicategory, edges: tuple, slot: int, beta: str, whisks: dict, tails: dict
) -> str:
    """``beta`` whiskered into position ``slot`` of the head-first chain
    ``edges``, kept in ``whisks`` (see ``_generate``); ``edges[slot]`` is
    never read."""
    key = edges, slot, beta
    if key not in whisks:
        if len(edges) == 1:
            whisks[key] = beta
        elif slot:
            shorter = _whisk(B, edges[1:], slot - 1, beta, whisks, tails)
            whisks[key] = B.beside2(shorter, B.id2[edges[0]])
        else:
            rest = edges[1:]
            if rest not in tails:
                tails[rest] = chain_value(B, rest)
            whisks[key] = B.beside2(B.id2[tails[rest]], beta)
    return whisks[key]


def _generate(B: FiniteBicategory, bound: int) -> _Generated:
    """Cells as (source path key, label) pairs, then their grafting table.

    ``X`` is made first, its tables filled in place.  Cells come path by
    path in the order of ``X.paths``, so each ``by_target`` bucket is sorted
    by arity and one ``bisect_right`` cuts off the cells too long to graft.

    Graft rows come one outer path at a time, in visiting order (outer,
    slot, inner).  The path's legs are computed once, one per row in (slot,
    inner) order: the row's slot and inner id, its ``to_outer`` cell (the
    coherence cell followed by the whiskered inner label), and the spliced
    path's key and label -> cell id dict (``names``).  An occupant with label
    ``alpha`` differs from the path's other occupants only in ``alpha``, so
    each occupant, the first one included, writes all its rows in one
    ``graft.update``: a row's cell is ``names[post[alpha][to_outer]]``, where
    ``post[alpha][x]`` is ``B.vcomp[(alpha, x)]``, built once per call.

    No bracketing tree is built.  Flat memos live for the one call, and an
    entry past slot 0 is one step over an entry of ``edges[1:]``, computed
    first if missing.  ``legs[(edges, slot, q)]`` is the normal form of the
    comb of ``edges`` with the comb of ``q`` in place of ``edges[slot]``; a
    row's entry has the row's normalisation leg as its iso.  At slot 0 it is
    the inner part (``q``'s unit, its one edge's leaf, or ``legs[(q[1:], 0,
    q[:2])]``) joined to the comb of ``edges[1:]``, which is
    ``legs[(edges[1:], 0, (1, edges[1]))]``, or alone on a one-edge path;
    at a later slot it is ``edges[0]``'s leaf joined to ``legs[(edges[1:],
    slot - 1, q)]``.  ``whisks[(edges, slot, label)]`` is the label
    whiskered into the path: at slot 0 beside the identity on
    ``tails[edges[1:]]``, the tail's composite, and at a later slot
    ``whisks[(edges[1:], slot - 1, label)]`` beside the identity on
    ``edges[0]``.  ``merges`` and ``inverses`` are ``_join``'s memos, and
    ``inverses`` also holds the inverse of each leg.  Each step evaluates
    its arguments in the order of the tree walk it replaces (a node's left
    part, its right part, then the join; a shorter whiskering before
    ``B.id2[edges[0]]``), and a memo only hands back what the same call
    already computed without raising, so the first read of ``B`` that
    raises is the one the oracles' tree walk meets first.  The row-by-row
    loop in the test oracles computes, per occupant and row, the
    row's leg, then ``B.then2(to_outer, alpha)``, then the cell; a read of
    ``post`` misses exactly where that ``then2`` raises, and a read of
    ``names`` exactly where that cell is missing.  So if anything raises
    while a path is processed, a replay walks the path's rows in that order,
    recomputing each leg through the memos and writing nothing, and raises
    the first exception the loop meets there; the paths before it raised
    none.  On any input, a corrupt ``B`` too, the tables, their order and
    the first exception are those of the oracles.
    """
    X = FiniteOpTwoCat(tuple(sorted(B.objects)), dict(B.one_cells), {}, {}, {}, bound)
    value_of: dict[str, tuple[tuple, str]] = {}
    cell_of: dict[tuple, str] = {}
    labels: dict[tuple, dict[str, str]] = defaultdict(dict)  # path key -> label -> cell id
    by_target: dict[str, list[tuple]] = defaultdict(list)  # (cell id, path key, edges, label)
    arities: dict[str, list[int]] = defaultdict(list)  # the source arities of a by_target bucket
    for key in iter_paths(X):
        edges = key[1:] if key[0] else ()
        base = chain_value(B, edges, None if key[0] else key[1])
        source = PastingPath(edges) if edges else empty_path(key[1])
        for alpha in B.out_of.get(base, ()):
            t = B.two_cells[alpha][1]
            cid = _cell_name(key, alpha)
            if cid in X.cells2:
                raise InvalidInput(f"generated cell id collision at {cid!r}")
            X.cells2[cid] = TwoCell(cid, source, t)
            value_of[cid] = (key, alpha)
            cell_of[(key, alpha)] = labels[key][alpha] = cid
            by_target[t].append((cid, key, edges, alpha))
            arities[t].append(len(edges))

    X.ident2.update({f: _cell_name((1, f), B.id2[f]) for f in B.one_cells})

    merges, inverses = {}, {}  # _join's memos: merges by (leaves, value); inverses by 2-cell
    legs, whisks, tails = {}, {}, {}  # the flat memos of the docstring
    post: dict[str, dict[str, str]] = {}  # post[b][a] = B.vcomp[(b, a)], b after a
    for (b, a), c in B.vcomp.items():
        post.setdefault(b, {})[a] = c

    def rows(edges):
        """(slot, inner id, to_outer, spliced key, its labels) per row of a path, in row order."""
        fits = bound - len(edges) + 1  # the largest inner arity within the bound
        then2 = B.then2
        for slot, e in enumerate(edges):
            last = None
            for inner_id, q, inner, alpha_i in by_target[e][: bisect_right(arities[e], fits)]:
                if q != last:  # a bucket holds the cells of one inner path together
                    sigma = _leg(B, edges, slot, q, legs, merges, inverses)[2]
                    if sigma not in inverses:
                        inverses[sigma] = invert_two_cell(B, sigma)
                    coh = inverses[sigma]
                    if coh is None:
                        raise InvalidInput(f"normalisation leg {sigma!r} has no inverse")
                    spliced = edges[:slot] + inner + edges[slot + 1 :]
                    last, spliced = q, ((1, *spliced) if spliced else q)
                    names = labels.get(spliced, {})  # ``get``: ``labels`` is being iterated
                whisk = _whisk(B, edges, slot, alpha_i, whisks, tails)
                yield slot, inner_id, then2(coh, whisk), spliced, names

    graft = X.graft
    for p, occupants in labels.items():
        edges = p[1:] if p[0] else ()
        try:
            path_rows = list(rows(edges))
            if path_rows:
                slots, inner_ids, to_outers, _, names = zip(*path_rows)
                for alpha_o, outer_id in occupants.items():
                    cells = map(dict.__getitem__, names, map(post[alpha_o].__getitem__, to_outers))
                    graft.update(zip(zip(repeat(outer_id), slots, inner_ids), cells))
        except Exception as exc:  # whatever it is, the replay finds the one met first
            failure = exc
        else:
            continue
        for alpha_o in occupants:  # the raise-only replay, in the row-by-row loop's order
            for _, _, to_outer, spliced, _ in rows(edges):
                cell_of[(spliced, B.then2(to_outer, alpha_o))]
        raise failure

    biasing = Biasing(
        iota={a: cell_of[((0, a), B.id2[B.id1[a]])] for a in B.objects},
        c={
            (f, g): cell_of[((1, f, g), B.id2[B.beside1(g, f)])]
            for f, g in composable_pairs(B.one_cells)
        },
    )
    return _Generated(X, biasing, value_of, cell_of)


def from_bicategory(
    B: FiniteBicategory, arity_bound: int | None = None, check: bool = True
) -> tuple[FiniteOpTwoCat, Biasing]:
    """Generate the canonical opetopic presentation of a bicategory.

    Each niche's occupants are the pairs (head-first composite, 2-cell out of
    it); the chosen occupants carry the identity 2-cells.
    """
    bound = DEFAULT_ARITY_BOUND if arity_bound is None else arity_bound
    if bound < 2:
        raise ArityBoundExceeded("generation needs arity bound at least 2")
    if check:
        _require(validate_bicategory(B))
    gen = _generate(B, bound)
    return gen.structure, gen.biasing


# ---------------------------------------------------------------------------
# morphisms in dimension 2


def _check_morphism_shape(
    F: OpMorphism, X: FiniteOpTwoCat, X2: FiniteOpTwoCat
) -> None:
    """Frames, identities, and vertical grafting; full grafting is separate."""
    _check_level_maps(F, X, X2)
    for cid, cell in X.cells2.items():
        img = F.on_two_cells.get(cid)
        if img is None or img not in X2.cells2:
            raise InvalidInput(f"2-cell {cid!r} has no valid image")
        want_src = key_image(cell.source.key(), F.on_objects, F.on_one_cells)
        target_cell = X2.cells2[img]
        if target_cell.source.key() != want_src or target_cell.target != F.on_one_cells[cell.target]:
            raise InvalidInput(f"image of 2-cell {cid!r} breaks its frame")
    for f in X.cells1:
        if F.on_two_cells[X.ident2[f]] != X2.ident2[F.on_one_cells[f]]:
            raise InvalidInput(f"identity 2-cell on {f!r} not preserved")
    for (outer, slot, inner), result in X.graft.items():
        if X.cells2[outer].source.arity != 1 or X.cells2[inner].source.arity != 1:
            continue
        image = X2.graft.get((F.on_two_cells[outer], slot, F.on_two_cells[inner]))
        if image != F.on_two_cells[result]:
            raise InvalidInput(
                f"vertical composition not preserved at ({outer!r}, {inner!r})"
            )


def _check_translation(
    F: OpMorphism, X: FiniteOpTwoCat, X2: FiniteOpTwoCat, b: Biasing, b2: Biasing
) -> None:
    """No entry outside the source, the morphism's shape, then both biasings."""
    _require(_outside_the_source(F, X, X.cells2).report())
    _check_morphism_shape(F, X, X2)
    _require(validate_biasing(X, b), InvalidBiasing)
    _require(validate_biasing(X2, b2), InvalidBiasing)


def validate_op_morphism(
    F: OpMorphism, X: FiniteOpTwoCat, X2: FiniteOpTwoCat
) -> ValidationReport:
    """Full morphism check: entries keyed by no cell of ``X``, frames,
    identities, and all grafting."""
    out = _outside_the_source(F, X, X.cells2)
    try:
        _check_morphism_shape(F, X, X2)
    except InvalidInput as exc:
        out.add("shape", (), str(exc))
        return out.report()
    for (outer, slot, inner), result in X.graft.items():
        image = X2.graft.get(
            (F.on_two_cells[outer], slot, F.on_two_cells[inner])
        )
        if image != F.on_two_cells[result]:
            out.add("grafting", (outer, slot, inner), "grafting not preserved")
    return out.report()


def lax_functor_from_morphism(
    F: OpMorphism,
    X: FiniteOpTwoCat,
    X2: FiniteOpTwoCat,
    b: Biasing,
    b2: Biasing,
    check: bool = True,
) -> LaxFunctor:
    """Translate a morphism; constraints solved against the chosen occupants,
    after ``classify_morphism``'s checks when ``check`` is set."""
    if check:
        _check_translation(F, X, X2, b, b2)
    on_two = {
        cid: F.on_two_cells[cid]
        for cid, cell in X.cells2.items()
        if cell.source.arity == 1
    }
    phi_pair = {
        (g, f): _solve_unique(
            X2,
            b2.c[(F.on_one_cells[f], F.on_one_cells[g])],
            F.on_two_cells[b.c[(f, g)]],
            "pair constraint",
        )
        for (f, g) in b.c
    }
    phi_obj = {
        a: _solve_unique(
            X2, b2.iota[F.on_objects[a]], F.on_two_cells[b.iota[a]], "object constraint"
        )
        for a in X.objects
    }
    return LaxFunctor(
        on_objects=dict(F.on_objects),
        on_one_cells=dict(F.on_one_cells),
        on_two_cells=on_two,
        phi_pair=phi_pair,
        phi_obj=phi_obj,
    )


def _phi_chain(G: LaxFunctor, B: FiniteBicategory, B2: FiniteBicategory, key: tuple) -> str:
    """The canonical constraint composite along a head-first chain."""
    if not key[0]:
        return G.phi_obj[key[1]]
    if len(key) == 2:
        return B2.id2[G.on_one_cells[key[1]]]
    head, tail = key[1], key[2:]
    whisk = B2.beside2(_phi_chain(G, B, B2, (1, *tail)), B2.id2[G.on_one_cells[head]])
    return B2.then2(whisk, G.phi_pair[(chain_value(B, tail), head)])


def morphism_from_lax_functor(
    G: LaxFunctor,
    B: FiniteBicategory,
    B2: FiniteBicategory,
    arity_bound: int | None = None,
    check: bool = True,
) -> OpMorphism:
    """Extend a lax functor to all arities of the generated presentations.

    This is a data-level translation: ``check`` runs the ``totality``,
    ``frame`` and ``hom functor`` rules of ``validate_lax_functor`` and raises
    ``InvalidInput`` with their report; the constraint axioms are not checked
    (use ``validate_lax_functor``).  Both bicategories must be valid: under
    ``check`` one that is not raises ``InvalidInput`` with its
    ``validate_bicategory`` report, source first.
    """
    bound = DEFAULT_ARITY_BOUND if arity_bound is None else arity_bound
    if bound < 2:
        raise ArityBoundExceeded("generation needs arity bound at least 2")
    if check:
        _require(_lax_functor_structure(G, B, B2).report())

    gen, gen2 = _generate(B, bound), _generate(B2, bound)
    on_two: dict[str, str] = {}
    for cid, (key, alpha) in gen.value_of.items():
        value = B2.then2(_phi_chain(G, B, B2, key), G.on_two_cells[alpha])
        on_two[cid] = gen2.cell_of[(key_image(key, G.on_objects, G.on_one_cells), value)]
    return OpMorphism(dict(G.on_objects), dict(G.on_one_cells), on_two)


def classify_morphism(
    F: OpMorphism,
    X: FiniteOpTwoCat,
    X2: FiniteOpTwoCat,
    b: Biasing,
    b2: Biasing,
    check: bool = True,
) -> MorphismClassification:
    """Strict preserves the chosen occupants, weak preserves universality,
    anything else is lax.

    With ``check``, the morphism's shape and both biasings are validated
    first; a biasing that fails ``validate_biasing`` raises ``InvalidBiasing``.
    """
    if check:
        _check_translation(F, X, X2, b, b2)

    def chosen_images():  # per choice of b: its cell, the cell's image, b2's choice there
        for a, cell in b.iota.items():
            yield cell, F.on_two_cells[cell], b2.iota[F.on_objects[a]]
        for (f, g), cell in b.c.items():
            image_key = (F.on_one_cells[f], F.on_one_cells[g])
            yield cell, F.on_two_cells[cell], b2.c[image_key]

    strict_witness = next(
        ((cell, image) for cell, image, chosen in chosen_images() if image != chosen), None
    )
    if strict_witness is None:
        return MorphismClassification("strict")

    for cid in sorted(X.cells2):
        if is_universal_2cell(X, cid) and not is_universal_2cell(X2, F.on_two_cells[cid]):
            return MorphismClassification("lax", (cid, F.on_two_cells[cid]))
    for f in sorted(X.cells1):
        if is_universal_1cell(X, f) and not is_universal_1cell(X2, F.on_one_cells[f]):
            return MorphismClassification("lax", (f, F.on_one_cells[f]))
    return MorphismClassification("weak", strict_witness)
