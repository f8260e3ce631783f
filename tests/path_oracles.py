"""The path-object implementations that path keys replaced, kept as oracles.

``iter_paths`` here yields ``PastingPath`` objects, and ``from_category``,
``hom_category_of_frame``, ``check_coherence`` and ``_generate`` (with its
``_cell_name``) fold or search every path from scratch, as they did before
the library moved to path keys and prefix folds.  The bodies are kept as
they were; only the imports are adjusted.  ``_generate`` builds its trees,
normalises and whiskers through the verbatim ``_comb_tree``, ``_normalize``
and ``_whisker_at`` of ``classical_oracles``, which keep no memo.
"""

from __future__ import annotations

from classical_oracles import _UNIT, _comb_tree, _normalize, _whisker_at
from opetokit.bicat import (
    FiniteBicategory,
    FiniteCategory,
    _LEAF,
    chain_value,
    invert_two_cell,
    validate_category,
)
from opetokit.core import (
    DEFAULT_ARITY_BOUND,
    FiniteOpOneCat,
    FiniteOpTwoCat,
    PastingPath,
    TwoCell,
    _by_source,
    composable_pairs,
    empty_path,
    graft,
    occupants_of_niche,
    path,
)
from opetokit.equivalences import Biasing, _Generated
from opetokit.errors import DanglingId, InvalidInput, Violation
from opetokit.universality import CoherenceReport, is_universal_1cell, is_universal_2cell


def iter_paths(X):
    """All composable paths over ``X.cells1`` up to the arity bound.

    Empty paths first, one per object in ``X.objects`` order, then paths by
    length, each length in lexicographic order of its edges.
    """
    for a in X.objects:
        yield empty_path(a)
    by_src = _by_source(X.cells1)
    for bucket in by_src.values():
        bucket.sort()
    frontier = [(f,) for f in sorted(X.cells1)]
    length = 1
    while frontier and length <= X.arity_bound:
        for edges in frontier:
            yield PastingPath(edges)
        length += 1
        if length > X.arity_bound:
            break
        frontier = [
            edges + (g,)
            for edges in frontier
            for g in by_src.get(X.cells1[edges[-1]][1], ())
        ]


def from_category(
    C: FiniteCategory, arity_bound: int | None = None, check: bool = True
) -> FiniteOpOneCat:
    """Materialise the composition table over all paths up to the bound."""
    if check:
        report = validate_category(C)
        if not report.ok:
            raise InvalidInput(str(report))
    bound = DEFAULT_ARITY_BOUND if arity_bound is None else arity_bound
    X = FiniteOpOneCat(tuple(sorted(C.objects)), dict(C.arrows), {}, bound)
    comp: dict[tuple, str] = {}
    for p in iter_paths(X):
        if p.arity == 0:
            comp[p.key()] = C.identities[p.anchor]
            continue
        acc = p.edges[0]
        for e in p.edges[1:]:
            acc = C.then(acc, e)
        comp[p.key()] = acc
    return FiniteOpOneCat(X.objects, X.cells1, comp, bound)


def hom_category_of_frame(X: FiniteOpTwoCat, a: str, b: str) -> FiniteOpOneCat:
    """The 1-dimensional structure living between two objects.

    Its objects are the 1-cells a -> b, its 1-cells the 1-ary 2-cells between
    them, and its composition table iterates grafting along vertical chains.
    """
    if a not in X.objects:
        raise DanglingId(f"unknown object {a!r}")
    if b not in X.objects:
        raise DanglingId(f"unknown object {b!r}")
    objects = tuple(sorted(f for f, (s, t) in X.cells1.items() if (s, t) == (a, b)))
    obj_set = set(objects)
    cells1 = {
        cid: (cell.source.edges[0], cell.target)
        for cid, cell in X.cells2.items()
        if cell.source.arity == 1 and cell.source.edges[0] in obj_set
    }
    comp: dict[tuple, str] = {}
    for p in iter_paths(FiniteOpOneCat(objects, cells1, {}, X.arity_bound)):
        if p.arity == 0:
            comp[p.key()] = X.ident2[p.anchor]
            continue
        acc = p.edges[0]
        for nxt in p.edges[1:]:
            acc = graft(X, nxt, 0, acc)
        comp[p.key()] = acc
    return FiniteOpOneCat(objects, cells1, comp, X.arity_bound)


def check_coherence(X: FiniteOpTwoCat, direct_niche_search: bool = False) -> CoherenceReport:
    """Does every niche have a universal occupant, closed under pasting?

    Assumes the grafting tables already validate.  Nullary and binary
    2-niches are searched directly.  Higher arities are, by default, derived
    by grafting universal binary occupants together, which closure makes
    universal; ``direct_niche_search`` forces the exhaustive search instead.
    """
    violations: list[Violation] = []
    u2 = frozenset(c for c in X.cells2 if is_universal_2cell(X, c))
    u1 = frozenset(f for f in X.cells1 if is_universal_1cell(X, f))

    for a in X.objects:
        if not any(X.src1(f) == a for f in u1):
            violations.append(
                Violation("1-niche without universal occupant", (a,))
            )

    niche_universals: dict[tuple, tuple[str, ...]] = {}

    def binary_universal(f: str, g: str) -> str | None:
        found = sorted(
            c for c in occupants_of_niche(X, path(f, g)) if c in u2
        )
        return found[0] if found else None

    for p in iter_paths(X):
        if direct_niche_search or p.arity <= 2:
            found = tuple(sorted(c for c in occupants_of_niche(X, p) if c in u2))
            niche_universals[p.key()] = found
            if not found:
                violations.append(
                    Violation("niche without universal occupant", (p.key(),))
                )
            continue
        # derive an occupant by folding universal binary occupants
        edges = p.edges
        acc_cell = binary_universal(edges[0], edges[1])
        ok = acc_cell is not None
        if ok:
            for e in edges[2:]:
                step = binary_universal(X.cells2[acc_cell].target, e)
                if step is None:
                    ok = False
                    break
                acc_cell = X.graft.get((step, 0, acc_cell))
                if acc_cell is None:
                    ok = False
                    break
        if ok:
            niche_universals[p.key()] = (acc_cell,)
        else:
            niche_universals[p.key()] = ()
            violations.append(
                Violation(
                    "niche without universal occupant",
                    (p.key(),),
                    "no derivation from binary universals",
                )
            )

    # closure of universality under grafting, checked on generators
    for (outer, slot, inner), result in X.graft.items():
        if outer in u2 and inner in u2 and result not in u2:
            violations.append(
                Violation("composite of universals not universal", (outer, slot, inner, result))
            )
    for u in u2:
        cell = X.cells2[u]
        if cell.source.arity != 2:
            continue
        f, g = cell.source.edges
        if f in u1 and g in u1 and cell.target not in u1:
            violations.append(
                Violation("composite 1-cell not universal", (u, f, g, cell.target))
            )

    return CoherenceReport(
        violations=tuple(violations),
        universal_one_cells=u1,
        universal_two_cells=u2,
        niche_universals=niche_universals,
        mode="direct niche search" if direct_niche_search else "closure checked via generators",
        arity_bound=X.arity_bound,
    )


def _cell_name(p: PastingPath, alpha: str) -> str:
    if p.arity == 1:
        return alpha
    if p.arity == 0:
        return f"@{p.anchor}|{alpha}"
    return f"{';'.join(p.edges)}|{alpha}"


def _generate(B: FiniteBicategory, bound: int) -> _Generated:
    cells2: dict[str, TwoCell] = {}
    value_of: dict[str, tuple[PastingPath, str]] = {}
    cell_of: dict[tuple, str] = {}
    for p in iter_paths(FiniteOpOneCat(tuple(sorted(B.objects)), B.one_cells, {}, bound)):
        base = chain_value(B, p.edges, p.anchor)
        for alpha, (s, t) in B.two_cells.items():
            if s != base:
                continue
            cid = _cell_name(p, alpha)
            if cid in cells2:
                raise InvalidInput(f"generated cell id collision at {cid!r}")
            cells2[cid] = TwoCell(cid, p, t)
            value_of[cid] = (p, alpha)
            cell_of[(p.key(), alpha)] = cid

    ident2 = {f: _cell_name(path(f), B.id2[f]) for f in B.one_cells}

    graft_table: dict[tuple[str, int, str], str] = {}
    by_target: dict[str, list[str]] = {}
    for cid, cell in cells2.items():
        by_target.setdefault(cell.target, []).append(cid)
    for outer_id, outer in cells2.items():
        p, alpha_o = value_of[outer_id]
        for slot, edge in enumerate(p.edges):
            for inner_id in by_target.get(edge, ()):
                q, alpha_i = value_of[inner_id]
                if p.arity + q.arity - 1 > bound:
                    continue
                spliced = p.splice(slot, q)
                subtrees = [(_LEAF, e) for e in p.edges]
                if q.arity == 0:
                    subtrees[slot] = (_UNIT, q.anchor)
                else:
                    subtrees[slot] = _comb_tree([(_LEAF, e) for e in q.edges])
                _, _, sigma = _normalize(B, _comb_tree(subtrees))
                coh = invert_two_cell(B, sigma)
                if coh is None:
                    raise InvalidInput(f"normalisation leg {sigma!r} has no inverse")
                vals = list(p.edges)
                vals[slot] = B.src2(alpha_i)
                whisk = _whisker_at(B, vals, slot, alpha_i)
                value = B.then2(B.then2(coh, whisk), alpha_o)
                graft_table[(outer_id, slot, inner_id)] = cell_of[(spliced.key(), value)]

    X = FiniteOpTwoCat(
        objects=tuple(sorted(B.objects)),
        cells1=dict(B.one_cells),
        cells2=cells2,
        ident2=ident2,
        graft=graft_table,
        arity_bound=bound,
    )
    biasing = Biasing(
        iota={a: cell_of[(empty_path(a).key(), B.id2[B.id1[a]])] for a in B.objects},
        c={
            (f, g): cell_of[(path(f, g).key(), B.id2[B.beside1(g, f)])]
            for f, g in composable_pairs(B.one_cells)
        },
    )
    return _Generated(X, biasing, value_of, cell_of)
