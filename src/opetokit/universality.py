"""Decidable universality for cells of finite 2-dimensional structures.

A 2-cell is universal when every occupant of its niche factors through it by
exactly one 1-ary 2-cell: existence is the factorisation clause, uniqueness is
what universality of the factorisation collapses to at top dimension, where
occupants of 3-niches are already unique.

One dimension down, universality of a 1-cell f asks that every 1-cell g out
of the same object admit a factorisation through f by a universal binary
2-cell, and that every such factorisation through f be universal as a
factorisation: each comparison 2-cell into the same target is reached by
grafting exactly one 1-ary 2-cell into the free slot.

The predicates read cells off the niche index ``X.occupants`` and the
out-edge index ``X.out_edges``, not off whole-table scans.  Like
``check_coherence``, they assume well-framed 2-cell sources.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import ArityError, DanglingId, NicheMismatch, Violation
from .core import FiniteOpOneCat, FiniteOpTwoCat, prefix_rows


def _factorizations(X: FiniteOpTwoCat, a: str, c: str) -> list[str]:
    """The 1-ary b, in ``cells2`` order, with b grafted onto ``a`` equal to ``c``."""
    wanted = X.occupants.get((1, X.cells2[a].target), ())
    return [b for b in wanted if X.graft.get((b, 0, a)) == c]


def factorizations_through(X: FiniteOpTwoCat, a: str, c: str) -> set[str]:
    """All 1-ary b with b grafted onto ``a`` equal to ``c``.

    ``a`` and ``c`` must occupy the same niche.
    """
    cell_a = X.cell(a)
    cell_c = X.cell(c)
    if cell_a.source != cell_c.source:
        raise NicheMismatch(f"{a!r} and {c!r} occupy different niches")
    return set(_factorizations(X, a, c))


def is_universal_2cell(X: FiniteOpTwoCat, a: str) -> bool:
    """Every occupant of the niche factors through ``a`` exactly once."""
    cell = X.cell(a)
    for c in X.occupants.get(cell.source.key(), ()):
        if len(_factorizations(X, a, c)) != 1:
            return False
    return True


def is_universal_factorization_1(X: FiniteOpTwoCat, u: str) -> bool:
    """Universality of a binary factorisation of 1-cells.

    For every 2-cell v over (f, h) into the same target, with h in the frame
    of the second source edge, exactly one 1-ary cell grafts into that slot to
    give v.
    """
    cell = X.cell(u)
    if cell.source.arity != 2:
        raise ArityError(f"{u!r} has arity {cell.source.arity}, expected 2")
    f, gbar = cell.source.edges
    a, b = X.cells1[gbar]
    for h in X.out_edges.get(a, ()):
        if X.tgt1(h) != b:
            continue
        reached = Counter(
            X.graft.get((u, 1, t))
            for t in X.occupants.get((1, h), ())
            if X.cells2[t].target == gbar
        )
        for v in X.occupants.get((1, f, h), ()):
            if X.cells2[v].target == cell.target and reached[v] != 1:
                return False
    return True


def is_universal_1cell(X: FiniteOpTwoCat, f: str) -> bool:
    """Factorisation-based universality of a 1-cell.

    Quantifies over universal binary occupants: every 1-cell out of the same
    object must be reachable through ``f`` by one, and every universal binary
    occupant through ``f`` must be a universal factorisation.
    """
    if f not in X.cells1:
        raise DanglingId(f"unknown 1-cell {f!r}")
    src_f, tgt_f = X.cells1[f]
    after = X.out_edges
    # the universal binary occupants with first edge f, by target
    universal_through: dict[str, list[str]] = {}
    for h in after.get(tgt_f, ()):
        for u in X.occupants.get((1, f, h), ()):
            if is_universal_2cell(X, u):
                universal_through.setdefault(X.cells2[u].target, []).append(u)
    for g in after.get(src_f, ()):
        if g not in universal_through:
            return False
        for u in universal_through[g]:
            if not is_universal_factorization_1(X, u):
                return False
    return True


def is_universal_1cell_op1(X: FiniteOpOneCat, f: str) -> bool:
    """The one-dimensional analogue: unique factorisation through ``f``.

    A 1-cell is universal exactly when every 1-cell out of the same object is
    comp of (f, gbar) for exactly one gbar.
    """
    if f not in X.cells1:
        raise DanglingId(f"unknown 1-cell {f!r}")
    src_f, tgt_f = X.cells1[f]
    after = X.out_edges
    reached = [X.comp.get((1, f, gbar)) for gbar in after.get(tgt_f, ())]
    for g in after.get(src_f, ()):
        if reached.count(g) != 1:
            return False
    return True


@dataclass(frozen=True)
class CoherenceReport:
    """Outcome of the niche-by-niche coherence check.

    ``niche_universals`` records, per 2-niche, the universal occupants found
    (or the occupant derived by closure for arities above two).  An empty
    violation list means the structure is a 2-dimensional opetopic category
    at the stated bound.  ``notes["niches"]`` counts the niches ``searched``
    directly and those ``derived`` by folding; it takes no part in equality.
    """

    violations: tuple[Violation, ...]
    universal_one_cells: frozenset[str]
    universal_two_cells: frozenset[str]
    niche_universals: dict[tuple, tuple[str, ...]] = field(default_factory=dict)
    mode: str = "closure checked via generators"
    arity_bound: int = 4
    notes: dict = field(default_factory=dict, compare=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return f"coherent at arity bound {self.arity_bound} ({self.mode})"
        return "\n".join(str(v) for v in self.violations)


def check_coherence(X: FiniteOpTwoCat, direct_niche_search: bool = False) -> CoherenceReport:
    """Does every niche have a universal occupant, closed under pasting?

    Assumes the grafting tables already validate.  Nullary and binary
    2-niches are searched directly.  Higher arities are, by default, derived
    by grafting universal binary occupants together, which closure makes
    universal: a path's occupant is the least universal binary occupant of
    (target of its prefix's occupant, last edge) grafted onto that occupant.
    ``direct_niche_search`` forces the exhaustive search instead.  Niches are
    taken a layer of ``X.paths`` at a time, each derived niche's prefix
    occupant read by position (``prefix_rows``).  Violations come in table
    order, never in hash order.
    """
    violations: list[Violation] = []
    niche_universals: dict[tuple, tuple[str, ...]] = {}
    u2 = frozenset(c for c in X.cells2 if is_universal_2cell(X, c))
    u1 = frozenset(f for f in X.cells1 if is_universal_1cell(X, f))

    sources = {X.src1(f) for f in u1}
    for a in X.objects:
        if a not in sources:
            violations.append(
                Violation("1-niche without universal occupant", (a,))
            )

    # a derived niche's occupant: its prefix's derived occupant grafted under
    # the least universal occupant of the binary niche (its target, last edge)
    def derived(prefix, last):
        binary = prefix and niche_universals[(1, X.cells2[prefix[0]].target, last)]
        occupant = X.graft.get((binary[0], 0, prefix[0])) if binary else None
        return () if occupant is None else (occupant,)

    layers, prefixes = X.paths, prefix_rows(X)
    for m, layer in enumerate(layers):
        if direct_niche_search or m <= 2:  # up to two edges are searched
            rows = [tuple(sorted(c for c in X.occupants.get(key, ()) if c in u2)) for key in layer]
            note = ""
        else:
            rows = list(map(derived, prefixes(layers[m - 1], rows), map(itemgetter(-1), layer)))
            note = "no derivation from binary universals"
        niche_universals.update(zip(layer, rows))
        for key, row in zip(layer, rows):
            if not row:
                violations.append(Violation("niche without universal occupant", (key,), note))

    # closure of universality under grafting, checked on generators
    for (outer, slot, inner), result in X.graft.items():
        if outer in u2 and inner in u2 and result not in u2:
            violations.append(
                Violation("composite of universals not universal", (outer, slot, inner, result))
            )
    for u, cell in X.cells2.items():
        if u not in u2 or cell.source.arity != 2:
            continue
        f, g = cell.source.edges
        if f in u1 and g in u1 and cell.target not in u1:
            violations.append(
                Violation("composite 1-cell not universal", (u, f, g, cell.target))
            )

    searched = sum(map(len, layers if direct_niche_search else layers[:3]))
    return CoherenceReport(
        violations=tuple(violations),
        universal_one_cells=u1,
        universal_two_cells=u2,
        niche_universals=niche_universals,
        mode="direct niche search" if direct_niche_search else "closure checked via generators",
        arity_bound=X.arity_bound,
        notes={"niches": {"searched": searched, "derived": len(niche_universals) - searched}},
    )
