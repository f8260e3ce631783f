"""The hand-filtered scans and copied niche loops of the opetopic side, kept
as oracles.

``hom_category_of_frame``, taken from ``path_oracles``, scans every 1-cell
for the objects of a hom and every 2-cell for its 1-ary cells and grafts
every chain edge by edge; ``is_universal_factorization_1`` and
``is_universal_1cell`` scan every 1-cell for the ones parallel to an edge or
next to it; ``is_equivalence_1cell`` scans every 1-cell for a reverse one and
every 2-cell for an isomorphism; ``choose_biasing`` and ``validate_biasing``
each walk the nullary and then the binary niches in a loop of their own,
through ``occupants_of_niche``; ``classify_morphism`` compares the chosen
occupants in two copied loops.  The library now takes the same cells from
``X.occupants``, ``B.after`` and ``B.out_of`` and walks the biased niches
once.  The bodies are kept as they were; only the imports are adjusted.
"""

from __future__ import annotations

from collections import Counter

from opetokit.bicat import FiniteBicategory, is_invertible_2cell
from opetokit.core import (
    FiniteOpTwoCat,
    composable_pairs,
    empty_path,
    occupants_of_niche,
    path,
)
from opetokit.equivalences import (
    Biasing,
    MorphismClassification,
    OpMorphism,
    _check_morphism_shape,
    _require,
)
from opetokit.errors import (
    ArityError,
    DanglingId,
    InvalidBiasing,
    NoUniversalOccupant,
    ValidationReport,
    _Collector,
)
from opetokit.universality import is_universal_2cell
from path_oracles import hom_category_of_frame  # noqa: F401


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
    frame = X.cells1[gbar]
    for h, fr in X.cells1.items():
        if fr != frame:
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
    src_f = X.src1(f)
    # the universal binary occupants with first edge f, by target
    universal_through: dict[str, list[str]] = {}
    for h in X.cells1:
        for u in X.occupants.get((1, f, h), ()):
            if is_universal_2cell(X, u):
                universal_through.setdefault(X.cells2[u].target, []).append(u)
    for g, (s, _) in X.cells1.items():
        if s != src_f:
            continue
        if g not in universal_through:
            return False
        for u in universal_through[g]:
            if not is_universal_factorization_1(X, u):
                return False
    return True


def is_equivalence_1cell(B: FiniteBicategory, f: str) -> bool:
    """True when some reverse 1-cell composes with ``f`` to the identities up
    to invertible 2-cells, in both orders."""
    if f not in B.one_cells:
        raise DanglingId(f"unknown 1-cell {f!r}")
    a, b = B.one_cells[f]

    def isomorphic(x: str, y: str) -> bool:
        if x == y:
            return True
        for c, (s, t) in B.two_cells.items():
            if {s, t} == {x, y} and is_invertible_2cell(B, c):
                return True
        return False

    for g, (s, t) in B.one_cells.items():
        if (s, t) != (b, a):
            continue
        if isomorphic(B.beside1(g, f), B.id1[a]) and isomorphic(B.beside1(f, g), B.id1[b]):
            return True
    return False


def choose_biasing(X: FiniteOpTwoCat) -> Biasing:
    """Pick the lexicographically least universal occupant per niche."""
    iota: dict[str, str] = {}
    for a in X.objects:
        found = sorted(
            c for c in occupants_of_niche(X, empty_path(a)) if is_universal_2cell(X, c)
        )
        if not found:
            raise NoUniversalOccupant(f"nullary niche at {a!r}")
        iota[a] = found[0]
    c_table: dict[tuple[str, str], str] = {}
    for f, g in composable_pairs(X.cells1):
        found = sorted(
            c for c in occupants_of_niche(X, path(f, g)) if is_universal_2cell(X, c)
        )
        if not found:
            raise NoUniversalOccupant(f"binary niche at ({f!r}, {g!r})")
        c_table[(f, g)] = found[0]
    return Biasing(iota, c_table)


def validate_biasing(X: FiniteOpTwoCat, b: Biasing) -> ValidationReport:
    out = _Collector()
    for a in X.objects:
        cell_id = b.iota.get(a)
        if cell_id is None or cell_id not in X.cells2:
            out.add("totality", (a,), "no chosen nullary occupant")
            continue
        if X.cells2[cell_id].source != empty_path(a):
            out.add("niche", (a, cell_id), "chosen cell not in the nullary niche")
        elif not is_universal_2cell(X, cell_id):
            out.add("universality", (a, cell_id), "chosen nullary occupant not universal")
    composable = composable_pairs(X.cells1)
    for f, g in composable:
        cell_id = b.c.get((f, g))
        if cell_id is None or cell_id not in X.cells2:
            out.add("totality", (f, g), "no chosen binary occupant")
            continue
        if X.cells2[cell_id].source != path(f, g):
            out.add("niche", (f, g, cell_id), "chosen cell not in its binary niche")
        elif not is_universal_2cell(X, cell_id):
            out.add("universality", (f, g, cell_id), "chosen binary occupant not universal")
    objects, composable = set(X.objects), set(composable)
    for a in b.iota:
        if a not in objects:
            out.add("niche", (a,), "choice for an unknown object")
    for pair in b.c:
        if pair not in composable:
            out.add("niche", (pair,), "choice for a non-composable pair")
    return out.report()


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
        _check_morphism_shape(F, X, X2)
        _require(validate_biasing(X, b), InvalidBiasing)
        _require(validate_biasing(X2, b2), InvalidBiasing)

    strict = True
    strict_witness: tuple = ()
    for a, cell in b.iota.items():
        if F.on_two_cells[cell] != b2.iota[F.on_objects[a]]:
            strict = False
            strict_witness = (cell, F.on_two_cells[cell])
            break
    if strict:
        for (f, g), cell in b.c.items():
            image_key = (F.on_one_cells[f], F.on_one_cells[g])
            if F.on_two_cells[cell] != b2.c[image_key]:
                strict = False
                strict_witness = (cell, F.on_two_cells[cell])
                break
    if strict:
        return MorphismClassification("strict")

    for cid in sorted(X.cells2):
        if is_universal_2cell(X, cid) and not is_universal_2cell(X2, F.on_two_cells[cid]):
            return MorphismClassification("lax", (cid, F.on_two_cells[cid]))
    for f in sorted(X.cells1):
        if is_universal_1cell(X, f) and not is_universal_1cell(X2, F.on_one_cells[f]):
            return MorphismClassification("lax", (f, F.on_one_cells[f]))
    return MorphismClassification("weak", strict_witness)
