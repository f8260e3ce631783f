"""Finite presentations of opetopic 0-, 1- and 2-categories.

Cells live in three layers: objects, 1-cells with source/target objects, and
2-cells whose source is a linear pasting path of 1-cells and whose target is a
single 1-cell.  Composition of 2-cells is encoded by a grafting table: the
unique way to substitute a 2-cell into one source position of another.  All
tables are fully materialised up to a fixed arity bound, every value is
immutable after construction, and every operation here is a pure function.

Cell equality is identifier equality throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    ArityBoundExceeded,
    DanglingId,
    FrameMismatch,
    MissingEntry,
    ValidationReport,
    _Collector,
)

DEFAULT_ARITY_BOUND = 4


@dataclass(frozen=True, eq=False)
class PastingPath:
    """A linear pasting diagram: a composable chain of 1-cells.

    An empty path does not touch any 1-cell, so it carries an explicit anchor
    object; that anchor is the only place an object appears in a niche.  For
    non-empty paths the anchor is dropped (it is the source of the first edge).
    """

    edges: tuple[str, ...]
    anchor: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        if self.edges:
            object.__setattr__(self, "anchor", None)
        elif self.anchor is None:
            raise ValueError("an empty pasting path needs an anchor object")

    @property
    def arity(self) -> int:
        return len(self.edges)

    def key(self) -> tuple:
        """Hashable, order-comparable identity of the path."""
        if self.edges:
            return (1,) + self.edges
        return (0, self.anchor)

    def __eq__(self, other) -> bool:
        return isinstance(other, PastingPath) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        if not self.edges:
            return f"PastingPath(@{self.anchor})"
        return f"PastingPath({';'.join(self.edges)})"

    def splice(self, slot: int, inner: "PastingPath") -> "PastingPath":
        """Replace the edge at ``slot`` by the whole path ``inner``."""
        if not 0 <= slot < self.arity:
            raise FrameMismatch(f"slot {slot} out of range for arity {self.arity}")
        edges = self.edges[:slot] + inner.edges + self.edges[slot + 1 :]
        if edges:
            return PastingPath(edges)
        return PastingPath((), inner.anchor)


def path(*edges: str) -> PastingPath:
    return PastingPath(tuple(edges))


def empty_path(anchor: str) -> PastingPath:
    return PastingPath((), anchor)


@dataclass(frozen=True)
class TwoCell:
    """A 2-cell: a pasting path flowing into a single 1-cell."""

    id: str
    source: PastingPath
    target: str


@dataclass(frozen=True)
class TwoCellTree:
    """A tree-shaped pasting of 2-cells: the source of a 3-niche.

    ``slots`` has one entry per source position of ``root``; ``None`` keeps
    the 1-cell at that position, a subtree grafts another 2-cell whose target
    is that 1-cell.
    """

    root: str
    slots: tuple["TwoCellTree | None", ...] = ()


@dataclass(frozen=True)
class FiniteOpZeroCat:
    """A 0-dimensional presentation: objects plus one loop per object."""

    objects: tuple[str, ...]
    cells1: dict[str, tuple[str, str]]


@dataclass(frozen=True)
class FiniteOpOneCat:
    """Objects, 1-cells, and a total composition table on paths.

    ``comp`` assigns to every composable path of length at most
    ``arity_bound`` (including the empty path at each object) the 1-cell that
    uniquely fills that niche.
    """

    objects: tuple[str, ...]
    cells1: dict[str, tuple[str, str]]
    comp: dict[tuple, str]
    arity_bound: int = DEFAULT_ARITY_BOUND

    def src(self, f: str) -> str:
        return self.cells1[f][0]

    def tgt(self, f: str) -> str:
        return self.cells1[f][1]

    def compose(self, p: PastingPath) -> str:
        try:
            return self.comp[p.key()]
        except KeyError:
            raise MissingEntry(f"no composite recorded for {p!r}") from None


@dataclass(frozen=True)
class FiniteOpTwoCat:
    """Objects, 1-cells, 2-cells with linear sources, and a grafting table.

    ``graft`` records, for every admissible (outer, slot, inner) triple whose
    result stays within the arity bound, the target of the unique 3-cell
    pasting ``inner`` into the given source position of ``outer``.  ``ident2``
    names the 1-ary identity 2-cell on each 1-cell.

    The niche index ``occupants`` is derived from ``cells2`` once per
    structure, on first use, and kept for its lifetime.  The tables must
    therefore not be mutated in place after a query; derive a changed
    structure with ``dataclasses.replace``, which starts a fresh index.
    """

    objects: tuple[str, ...]
    cells1: dict[str, tuple[str, str]]
    cells2: dict[str, TwoCell]
    ident2: dict[str, str]
    graft: dict[tuple[str, int, str], str]
    arity_bound: int = DEFAULT_ARITY_BOUND

    def src1(self, f: str) -> str:
        return self.cells1[f][0]

    def tgt1(self, f: str) -> str:
        return self.cells1[f][1]

    def cell(self, alpha: str) -> TwoCell:
        try:
            return self.cells2[alpha]
        except KeyError:
            raise DanglingId(f"unknown 2-cell {alpha!r}") from None

    def arity(self, alpha: str) -> int:
        return self.cell(alpha).source.arity

    @cached_property
    def occupants(self) -> dict[tuple, tuple[str, ...]]:
        """2-cell ids by source-path key, each tuple in ``cells2`` order.

        The key ``(1, f)`` gives the 1-ary cells on the edge ``f``.
        """
        index: dict[tuple, list[str]] = {}
        for cid, cell in self.cells2.items():
            index.setdefault(cell.source.key(), []).append(cid)
        return {key: tuple(ids) for key, ids in index.items()}


# ---------------------------------------------------------------------------
# path machinery


def path_endpoints(X, p: PastingPath) -> tuple[str, str]:
    """Source and target objects of a pasting path; raises on broken chains."""
    if not p.edges:
        if p.anchor not in X.objects:
            raise DanglingId(f"unknown anchor object {p.anchor!r}")
        return p.anchor, p.anchor
    prev_tgt = None
    for e in p.edges:
        if e not in X.cells1:
            raise DanglingId(f"unknown 1-cell {e!r}")
        s, t = X.cells1[e]
        if prev_tgt is not None and s != prev_tgt:
            raise FrameMismatch(f"path breaks at {e!r}: expected source {prev_tgt!r}")
        prev_tgt = t
    return X.cells1[p.edges[0]][0], prev_tgt


def _by_source(cells: dict[str, tuple[str, str]]) -> dict[str, list[str]]:
    """Cell ids by source, each list in the dict order of ``cells``."""
    after: dict[str, list[str]] = {}
    for g, (s, _) in cells.items():
        after.setdefault(s, []).append(g)
    return after


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


def composable_pairs(cells: dict[str, tuple[str, str]]) -> list[tuple[str, str]]:
    """Pairs (f, g) of cells with ``tgt f == src g``.

    ``cells`` maps an id to its (source, target); f runs in dict order and,
    for each f, g runs in dict order.
    """
    after = _by_source(cells)
    return [(f, g) for f, (_, t) in cells.items() for g in after.get(t, ())]


def composable_triples(cells: dict[str, tuple[str, str]]) -> list[tuple[str, str, str]]:
    """Triples (f, g, h): each composable pair (f, g), in the order of
    ``composable_pairs``, extended by every h with ``tgt g == src h`` in dict
    order."""
    after = _by_source(cells)
    return [
        (f, g, h)
        for f, (_, t) in cells.items()
        for g in after.get(t, ())
        for h in after.get(cells[g][1], ())
    ]


# ---------------------------------------------------------------------------
# validation


def validate_op0(X: FiniteOpZeroCat) -> ValidationReport:
    out = _Collector()
    loops: dict[str, int] = {a: 0 for a in X.objects}
    for f, (s, t) in X.cells1.items():
        if s not in X.objects or t not in X.objects:
            out.add("dangling id", (f,), "endpoint object missing")
        elif s != t:
            out.add("frame", (f,), "1-cells of a 0-dimensional presentation must be loops")
        else:
            loops[s] += 1
    for a, n in loops.items():
        if n != 1:
            out.add("totality", (a,), f"object has {n} loops, expected exactly 1")
    return out.report()


def validate_op1(X: FiniteOpOneCat) -> ValidationReport:
    """Check that ``comp`` presents a 1-dimensional structure at the bound.

    Reported rules: ``dangling id``, ``totality``, ``endpoints``,
    ``singleton``, ``substitution``.  An empty report means every niche of
    arity at most the bound has the recorded unique occupant and the table is
    closed under collapsing any contiguous segment ``[i:j]`` of a path.

    Once every frame agrees, substitution is checked on the segments that
    generate it, for a path of length m: ``[0:0]`` and ``[1:1]`` (the units)
    if m = 1, ``[0:2]`` and ``[1:3]`` (the bracketings) if m = 3, ``[0:m-1]``
    (peel off the last edge) if m >= 4, skipping a collapsed path longer than
    the bound.  With the singleton rows, the peels make each row the left fold
    of the binary table, which the bracketings make associative and the units
    unital, so every collapsed path folds to the whole path's composite: the
    verdict is that of checking every segment, at every bound; the witnesses
    ``(path key, i, j)`` are the failing generating instances, in its order.
    """
    out = _Collector()
    for f, (s, t) in X.cells1.items():
        if s not in X.objects or t not in X.objects:
            out.add("dangling id", (f,), "endpoint object missing")
    for key, result in X.comp.items():
        if result not in X.cells1:
            out.add("dangling id", (result,), f"comp{key} names an unknown 1-cell")

    keys = [p.key() for p in iter_paths(X)]
    comp, cells1 = X.comp, X.cells1
    for key in keys:
        if key not in comp:
            out.add("totality", (key,), "composable path has no recorded composite")
    for key in set(comp) - set(keys):
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
    # the generating segments of a path of length m < 4; a longer one peels
    generators = {0: (), 1: ((0, 0), (1, 1)), 2: (), 3: ((0, 2), (1, 3))}
    for key in keys:
        edges = key[1:] if key[0] else ()
        for i, j in generators.get(len(edges), ((0, len(edges) - 1),)):
            # an empty segment (m = 1) collapses to the identity at position i
            segment = edges[i:j]
            mid = comp[(1,) + segment if segment else (0, cells1[edges[0]][i])]
            collapsed = edges[:i] + (mid,) + edges[j:]
            if len(collapsed) <= X.arity_bound and comp[(1,) + collapsed] != comp[key]:
                message = f"comp disagrees after collapsing segment [{i}:{j}]"
                out.add("substitution", (key, i, j), message)
    return out.report(arity_bound=X.arity_bound)


def validate_op2(X: FiniteOpTwoCat) -> ValidationReport:
    """Check frames, identities, and the grafting laws at the bound.

    Rules: ``dangling id``, ``frame``, ``identity``, ``totality``,
    ``right unit``, ``left unit``, ``sequential associativity``,
    ``parallel commutation``.
    """
    out = _Collector()
    for f, (s, t) in X.cells1.items():
        if s not in X.objects or t not in X.objects:
            out.add("dangling id", (f,), "endpoint object missing")
    for cid, cell in X.cells2.items():
        if cid != cell.id:
            out.add("dangling id", (cid,), "cell stored under a different id")
        if cell.target not in X.cells1:
            out.add("dangling id", (cid, cell.target), "target 1-cell missing")
            continue
        try:
            s, t = path_endpoints(X, cell.source)
        except (DanglingId, FrameMismatch) as exc:
            out.add("dangling id", (cid,), str(exc))
            continue
        if X.cells1[cell.target] != (s, t):
            out.add("frame", (cid,), "source path endpoints differ from target endpoints")
    if out.items:
        return out.report(arity_bound=X.arity_bound)

    for f in X.cells1:
        ident = X.ident2.get(f)
        if ident is None or ident not in X.cells2:
            out.add("identity", (f,), "no identity 2-cell recorded")
            continue
        cell = X.cells2[ident]
        if cell.source != path(f) or cell.target != f:
            out.add("identity", (f, ident), "identity 2-cell has the wrong frame")
    for f in set(X.ident2) - set(X.cells1):
        out.add("dangling id", (f,), "identity recorded for an unknown 1-cell")

    # totality and frame agreement of the grafting table; an inner cell fits
    # a slot of an outer cell of arity m when its arity is at most bound + 1 - m
    bound = X.arity_bound
    arity = {cid: cell.source.arity for cid, cell in X.cells2.items()}
    by_target: dict[str, list[str]] = {}
    for cid, cell in X.cells2.items():
        by_target.setdefault(cell.target, []).append(cid)
    # fitting[f][k]: the cells into f of arity at most k, in cells2 order
    fitting = {
        f: [tuple(c for c in by_target.get(f, ()) if arity[c] <= k) for k in range(bound + 1)]
        for f in X.cells1
    }
    for cid, outer in sorted(X.cells2.items()):
        room = bound + 1 - arity[cid]
        if room < 0:
            continue
        for slot, edge in enumerate(outer.source.edges):
            for inner_id in fitting[edge][room]:
                key = (cid, slot, inner_id)
                if key not in X.graft:
                    out.add("totality", key, "in-bound graft has no table entry")
    for (cid, slot, inner_id), result in X.graft.items():
        if cid not in X.cells2 or inner_id not in X.cells2 or result not in X.cells2:
            out.add("dangling id", (cid, slot, inner_id, result))
            continue
        outer, inner = X.cells2[cid], X.cells2[inner_id]
        if not 0 <= slot < outer.source.arity:
            out.add("frame", (cid, slot, inner_id), "slot out of range")
            continue
        if inner.target != outer.source.edges[slot]:
            out.add("frame", (cid, slot, inner_id), "inner target differs from the slot edge")
            continue
        res = X.cells2[result]
        if res.source != outer.source.splice(slot, inner.source):
            out.add("frame", (cid, slot, inner_id), "result source is not the spliced path")
        if res.target != outer.target:
            out.add("frame", (cid, slot, inner_id), "result target differs from the outer target")
    if out.items:
        return out.report(arity_bound=X.arity_bound)

    # unit laws
    for cid, outer in X.cells2.items():
        for slot, edge in enumerate(outer.source.edges):
            key = (cid, slot, X.ident2[edge])
            if X.graft.get(key) != cid:
                out.add("right unit", key, "grafting an identity must not change the cell")
    for cid, cell in X.cells2.items():
        ident = X.ident2[cell.target]
        key = (ident, 0, cid)
        if X.graft.get(key) != cid:
            out.add("left unit", key, "grafting under an identity must not change the cell")

    # The frame checks passed, so every graft result has the spliced source
    # and a composite longer than the longest cell has no table entry.  The
    # two laws below therefore skip, without generating them, the instances
    # whose composite would be longer than ``top``.
    graft_table = X.graft
    top = max(arity.values(), default=0)

    # sequential associativity: graft(graft(a,i,b), i+j, c) = graft(a, i, graft(b,j,c))
    above: dict[str, list[tuple[str, int, str]]] = {}
    for key in graft_table:
        above.setdefault(key[2], []).append(key)
    for rows in above.values():
        rows.sort(key=lambda key: arity[key[0]])
    found = []
    for (b, j, c), bc in graft_table.items():
        room = top + 2 - arity[b] - arity[c]
        for key in above.get(b, ()):
            a, i, _ = key
            if arity[a] > room:
                break
            lhs = graft_table.get((graft_table[key], i + j, c))
            rhs = graft_table.get((a, i, bc))
            if lhs is None or rhs is None:
                continue
            if lhs != rhs:
                found.append(((a, i, b, j, c), f"{lhs} != {rhs}"))
    if found:
        # table order: by the row (b, j, c), then by the row (a, i, b)
        position = {key: n for n, key in enumerate(graft_table)}
        found.sort(key=lambda v: (position[v[0][2:]], position[v[0][:3]]))
        for witness, message in found:
            out.add("sequential associativity", witness, message)

    # parallel commutation for disjoint slots i < j of one outer cell a
    by_outer: dict[str, list[tuple[int, int, str, str]]] = {}
    for (a, i, b), r in graft_table.items():
        by_outer.setdefault(a, []).append((arity[b], i, b, r))
    for a, rows in by_outer.items():
        rows.sort()
        room = top + 2 - arity[a]
        found = []
        for kb, i, b, r_ib in rows:
            for kc, j, c, r_jc in rows:
                if kb + kc > room:
                    break
                if j <= i:
                    continue
                lhs = graft_table.get((r_ib, j + kb - 1, c))
                rhs = graft_table.get((r_jc, i, b))
                if lhs is None or rhs is None:
                    continue
                if lhs != rhs:
                    found.append(((a, i, b, j, c), f"{lhs} != {rhs}"))
        # the order of pairs of a's rows sorted by (slot, inner cell)
        for witness, message in sorted(found):
            out.add("parallel commutation", witness, message)
    return out.report(arity_bound=X.arity_bound)


# ---------------------------------------------------------------------------
# operations


def graft(X: FiniteOpTwoCat, outer: str, slot: int, inner: str) -> str:
    """Paste ``inner`` into the given source position of ``outer``.

    Returns the target of the unique 3-cell with that pasting as its source,
    read off the grafting table.
    """
    o = X.cell(outer)
    i = X.cell(inner)
    if not 0 <= slot < o.source.arity:
        raise FrameMismatch(
            f"slot {slot} out of range for {outer!r} of arity {o.source.arity}"
        )
    if i.target != o.source.edges[slot]:
        raise FrameMismatch(
            f"inner {inner!r} targets {i.target!r}, slot {slot} of {outer!r} holds "
            f"{o.source.edges[slot]!r}"
        )
    if o.source.arity + i.source.arity - 1 > X.arity_bound:
        raise ArityBoundExceeded(
            f"graft result arity {o.source.arity + i.source.arity - 1} exceeds bound "
            f"{X.arity_bound}"
        )
    try:
        return X.graft[(outer, slot, inner)]
    except KeyError:
        raise MissingEntry(f"graft table lacks ({outer!r}, {slot}, {inner!r})") from None


def composite_of_tree(X: FiniteOpTwoCat, t: TwoCellTree) -> str:
    """Fold a tree of 2-cells into its unique composite.

    The fold order is immaterial in a valid structure; slots are processed
    right to left so earlier indices stay put as sources get spliced.
    """
    root = X.cell(t.root)
    if len(t.slots) != root.source.arity:
        raise FrameMismatch(
            f"tree on {t.root!r} has {len(t.slots)} slots, cell has arity "
            f"{root.source.arity}"
        )
    current = t.root
    for slot in range(len(t.slots) - 1, -1, -1):
        sub = t.slots[slot]
        if sub is None:
            continue
        inner = composite_of_tree(X, sub)
        current = graft(X, current, slot, inner)
    return current


def occupants_of_niche(X: FiniteOpTwoCat, p: PastingPath) -> set[str]:
    """All 2-cells whose source equals the given path (order-sensitive)."""
    path_endpoints(X, p)
    return set(X.occupants.get(p.key(), ()))


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
