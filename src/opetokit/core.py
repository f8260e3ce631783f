"""Finite presentations of opetopic 0-, 1- and 2-categories.

Cells live in three layers: objects, 1-cells with source/target objects, and
2-cells whose source is a linear pasting path of 1-cells and whose target is a
single 1-cell.  Composition of 2-cells is encoded by a grafting table: the
unique way to substitute a 2-cell into one source position of another.  All
tables are fully materialised up to a fixed arity bound, every value is
immutable after construction, and every operation here is a pure function.

A structure at bound b holds nothing past b: no ``comp`` key longer than b,
and no 2-cell whose source is longer than b, hence no graft row whose result
is.  ``validate_op1`` and ``validate_op2`` report each such key or cell as a
``dangling id`` on a path that does not exist at this bound.

Cell equality is identifier equality throughout.

Internally a path is its key: ``(1, *edges)``, or ``(0, anchor)`` for the
empty path.  Keys index ``comp``, the niche index and violation witnesses;
``PastingPath`` is the public form of a path, and ``PastingPath.key`` its key.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain, repeat
from operator import itemgetter

from .errors import (
    ArityBoundExceeded,
    DanglingId,
    FrameMismatch,
    MissingEntry,
    ValidationReport,
    _Collector,
)

DEFAULT_ARITY_BOUND = 4
_MISSING_END = "endpoint object missing"


@dataclass(frozen=True)
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


class _PathIndexes:
    """The path index ``paths`` and the out-edge index ``out_edges`` of a
    structure with ``objects``, ``cells1`` and ``arity_bound``.

    ``paths`` depends on the 1-skeleton only: the objects in order, the
    1-cells with their frames, and the bound.  It is derived once per
    distinct skeleton and shared read-only by every structure on it;
    ``out_edges`` is derived once per structure."""

    @cached_property
    def paths(self) -> tuple[tuple[tuple, ...], ...]:
        """``_skeleton_paths`` of this structure's 1-skeleton."""
        frames = frozenset(zip(self.cells1, map(tuple, self.cells1.values())))
        return _skeleton_paths(tuple(self.objects), frames, self.arity_bound)

    @cached_property
    def out_edges(self) -> dict[str, tuple[str, ...]]:
        """1-cell ids by source, each tuple sorted: ``_out_edges(self.cells1)``."""
        return _out_edges(self.cells1)


@dataclass(frozen=True)
class FiniteOpOneCat(_PathIndexes):
    """Objects, 1-cells, and a total composition table on paths.

    ``comp`` assigns to every composable path of length at most
    ``arity_bound`` (including the empty path at each object) the 1-cell that
    uniquely fills that niche.  The path index ``paths`` is derived once per
    distinct 1-skeleton (``objects``, ``cells1``, ``arity_bound``) and
    shared read-only by the structures on it; ``out_edges`` is derived once
    per structure.  Each is read on first use and kept for the structure's
    lifetime.  So do not mutate the tables in place after a query;
    ``dataclasses.replace`` derives a changed structure with fresh indexes.
    An index is found by the skeleton's content, so such a mutation leaves
    every other structure's index as it was.
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
class FiniteOpTwoCat(_PathIndexes):
    """Objects, 1-cells, 2-cells with linear sources, and a grafting table.

    ``graft`` records, for every admissible (outer, slot, inner) triple whose
    result stays within the arity bound, the target of the unique 3-cell
    pasting ``inner`` into the given source position of ``outer``.  ``ident2``
    names the 1-ary identity 2-cell on each 1-cell.  No 2-cell's source is
    longer than ``arity_bound``, so no row's result is either.

    The niche index ``occupants`` is derived from ``cells2`` and
    ``out_edges`` from ``cells1``, once per structure on first use; the path
    index ``paths`` is derived once per distinct 1-skeleton (``objects``,
    ``cells1``, ``arity_bound``) and shared read-only, as in
    ``FiniteOpOneCat``.  So do not mutate the tables in place after a query,
    and ``validate_op2``, which reads ``occupants``, counts as one
    (``dataclasses.replace`` starts fresh indexes), except that ``paths``
    may be read while the other three tables are filled, as
    ``equivalences._generate`` does; ``occupants`` may not.
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


def _out_edges(cells: dict[str, tuple[str, str]]) -> dict[str, tuple[str, ...]]:
    return {s: tuple(sorted(bucket)) for s, bucket in _by_source(cells).items()}


@lru_cache
def _skeleton_paths(objects: tuple, frames: frozenset, bound: int) -> tuple[tuple[tuple, ...], ...]:
    """``_path_layers`` of a 1-skeleton, built once per distinct one.  The
    key is the content (the objects in order, the set of (1-cell id, frame)
    pairs, the bound), so a changed skeleton gets its own index, and the
    layers are immutable tuples, so no structure can change another's."""
    return _path_layers(objects, frames, bound)


def _path_layers(objects: tuple, frames: frozenset, bound: int) -> tuple[tuple[tuple, ...], ...]:
    """The keys of all composable paths over the 1-cells ``frames`` up to
    ``bound``, one tuple per length.

    Layer 0 holds the empty paths, one per object in ``objects`` order;
    layer m the paths of length m, in lexicographic order of their edges:
    each key of layer m - 1 in turn, extended by each of ``tails[f]``, the
    one-edge tuples out of the target of its last edge f, in sorted order.
    The layers stop at the bound or before the first empty one.
    """
    cells = dict(sorted(frames))
    ones = {s: tuple((g,) for g in edges) for s, edges in _by_source(cells).items()}
    tails = {f: ones.get(t, ()) for f, (_, t) in cells.items()}
    layers, layer = [tuple((0, a) for a in objects)], tuple((1, f) for f in cells)
    while layer and len(layers) <= bound:
        layers.append(layer)
        if len(layers) <= bound:  # the next layer is within the bound
            layer = tuple([key + tail for key in layer for tail in tails[key[-1]]])
    return tuple(layers)


def _extensions(X, rows: list) -> dict[str, list]:
    """``ext[f]``: f's slice of ``rows``, the rows of layer 2 of ``X.paths``,
    cut by the fan-out of ``tgt f``.  It lists the rows of the keys
    ``(1, f, g)`` over the sorted edges g out of ``tgt f``."""
    ones, out, cells1 = X.paths[1], X.out_edges, X.cells1
    cuts = list(accumulate((len(out.get(cells1[f][1], ())) for _, f in ones), initial=0))
    return {f: rows[i:j] for (_, f), i, j in zip(ones, cuts, cuts[1:])}


def prefix_rows(X):
    """``f(layer, rows)``: for a layer m >= 1 of ``X.paths`` and its rows, the
    rows of layer m + 1's keys without their last edge, in order.  Each key of
    layer m is extended by every 1-cell out of its end, so its row repeats that often."""
    out, last = X.out_edges, itemgetter(-1)
    fanout = {f: len(out.get(t, ())) for f, (_, t) in X.cells1.items()}.__getitem__
    return lambda layer, rows: chain.from_iterable(map(repeat, rows, map(fanout, map(last, layer))))


def iter_paths(X):
    """The keys of ``X.paths``, layer after layer."""
    return chain.from_iterable(X.paths)


def fold_paths(X: FiniteOpOneCat, units: dict[str, str], step) -> dict[tuple, str]:
    """Fill the empty ``X.comp`` over ``X.paths``, each row from its prefix's.

    The empty path at ``a`` gets ``units[a]`` and a one-edge path its edge.
    Layer 2 is one call ``step(prefix rows, last edges)``: two iterators over
    the layer in key order, giving the rows of its keys without their last
    edge and those last edges.  ``step`` returns the layer's rows as a list
    in the same order, each computed from its prefix row and last edge
    alone, and raises what a row-by-row fold would raise first.

    If every row of layer 2 is a 1-cell of ``X`` with the target of its key's
    last edge, each later layer is read off layer 2 by position and ``step``
    is not called again: layer m's rows are ``ext[r]`` for each row r of
    layer m - 1 in turn, ``ext = _extensions(X, layer 2's rows)``.  By
    induction on m, each key x of layer m - 1 has a row r with
    ``tgt r == tgt x`` (at m - 1 = 2 by the test).  So the edges g extending
    x are the sorted edges out of ``tgt r``, and ``ext[r]`` lists the rows of
    the keys ``(1, r, g)``, which are ``step`` at (r, g): the rows the
    row-by-row fold computes for the keys x + g, in order, each again a
    1-cell with the target of g.  Every such pair was stepped in layer 2, so
    nothing is raised.  Otherwise every later layer calls ``step`` as layer
    2 does.
    """
    table, layers, prefixes, cells1 = X.comp, X.paths, prefix_rows(X), X.cells1
    rows = list(map(units.__getitem__, map(itemgetter(1), layers[0])))
    table.update(zip(layers[0], rows))
    ext = None
    for m, layer in enumerate(layers[1:], 1):
        if ext is not None:  # m >= 3, read off layer 2 by position
            rows = list(chain.from_iterable(map(ext.__getitem__, rows)))
        elif m == 1:
            rows = list(map(itemgetter(-1), layer))
        else:
            ends = list(map(itemgetter(-1), layer))
            rows = step(prefixes(layers[m - 1], rows), iter(ends))
            if m == 2 and all(map(cells1.__contains__, rows)):
                if [cells1[r][1] for r in rows] == [cells1[g][1] for g in ends]:
                    ext = _extensions(X, rows)
        table.update(zip(layer, rows))
    return table


def key_image(key: tuple, on_objects: dict, on_one_cells: dict) -> tuple:
    """The key of a path's image under maps of objects and of 1-cells."""
    if key[0]:
        return (1, *map(on_one_cells.__getitem__, key[1:]))
    return (0, on_objects[key[1]])


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


def _unknown_keys(out: _Collector, table: dict, known, message: str, rule: str = "dangling id") -> None:
    """A ``rule`` violation for each key of ``table`` outside ``known``, in table order."""
    for key in table:
        if key not in known:
            out.add(rule, (key,), message)


def _unknown_ends(out: _Collector, cells: dict, objects, message: str = _MISSING_END) -> None:
    """A ``dangling id`` for each of ``cells`` with an endpoint outside ``objects``."""
    for f, (s, t) in cells.items():
        if s not in objects or t not in objects:
            out.add("dangling id", (f,), message)


def validate_op0(X: FiniteOpZeroCat) -> ValidationReport:
    out = _Collector()
    loops: dict[str, int] = {a: 0 for a in X.objects}
    for f, (s, t) in X.cells1.items():
        if s not in X.objects or t not in X.objects:
            out.add("dangling id", (f,), _MISSING_END)
        elif s != t:
            out.add("frame", (f,), "1-cells of a 0-dimensional presentation must be loops")
        else:
            loops[s] += 1
    for a, n in loops.items():
        if n != 1:
            out.add("totality", (a,), f"object has {n} loops, expected exactly 1")
    return out.report()


def _bound_report(X) -> ValidationReport | None:
    """The report on a negative arity bound, which leaves no niche to check."""
    if X.arity_bound >= 0:
        return None
    out = _Collector()
    out.add("arity bound", (X.arity_bound,), "the arity bound must not be negative")
    return out.report(arity_bound=X.arity_bound)


def validate_op1(X: FiniteOpOneCat) -> ValidationReport:
    """Check that ``comp`` presents a 1-dimensional structure at the bound.

    Reported rules: ``arity bound`` (alone: a negative bound is the whole
    report), ``dangling id``, ``totality``, ``endpoints``, ``singleton``,
    ``substitution``.  An empty report means every niche of arity at most the
    bound has the recorded unique occupant and the table is closed under
    collapsing any contiguous segment ``[i:j]`` of a path.

    Once every frame agrees, substitution is checked on the segments that
    generate it, for a path of length m: ``[0:0]`` and ``[1:1]`` (the units)
    if m = 1, ``[0:2]`` and ``[1:3]`` (the bracketings) if m = 3, ``[0:m-1]``
    (peel off the last edge) if m >= 4.  Each collapses to a path of length 2,
    so none is checked below bound 2.  With the singleton rows, the peels make
    each row the left fold of the binary table, which the bracketings make
    associative and the units unital, so every collapsed path folds to the
    whole path's composite: the verdict is that of checking every segment, at
    every bound; the witnesses ``(path key, i, j)`` are the failing generating
    instances, in its order.

    Every phase runs a layer of ``X.paths`` at a time: one ``map`` over
    ``comp`` gives its rows and totality (a missing key or a longer ``comp``
    is walked key by key), frames, read as tuples whatever their container,
    are compared as lists against the end edges' endpoints and each
    generator's side (the rows of its collapsed keys) against the whole
    paths' rows.  Only a layer whose two sides differ is walked key by key,
    so the witnesses come in key order, the generators of one key in the
    order above.  ``notes`` holds ``arity_bound`` and, once substitution
    runs, ``checked``: the instances compared per generator (``left unit``,
    ``right unit``, ``bracket left``, ``bracket right``, ``peel``), summed
    from layer lengths.

    A layer m >= 3 reads its ``peel`` side (at m = 3 also ``bracket left``)
    off the binary rows by position, and its frames by induction on m.  Once
    layer 2 is framed, ``ext = _extensions(X, layer 2's rows)``, as in
    ``fold_paths``; layer m's side is ``ext[r]`` for each row r of layer
    m - 1 in turn.  If layer m - 1 is framed, each of its keys
    x has ``tgt comp[x] == tgt x``, so ``ext[comp[x]]`` lists the rows of the
    collapsed keys ``(1, comp[x], g)`` over the edges g extending x, in order,
    each framed ``(src x, tgt g)`` by layer 2 as the path x + g is: a layer
    equal to its side is framed.  After an ``endpoints`` violation ``ext`` is
    dropped and later frames are read; the report then stops, so substitution
    reads only the sides of framed layers.
    """
    rejected = _bound_report(X)
    if rejected is not None:
        return rejected
    out = _Collector()
    comp, bound = X.comp, X.arity_bound
    _unknown_ends(out, X.cells1, X.objects)
    cells1 = {f: tuple(ends) for f, ends in X.cells1.items()}  # a frame by its endpoints
    if not all(map(cells1.__contains__, comp.values())):
        for key, result in comp.items():
            if result not in cells1:
                out.add("dangling id", (result,), f"comp{key} names an unknown 1-cell")

    layers = X.paths
    try:
        rows = [list(map(comp.__getitem__, layer)) for layer in layers]
    except KeyError:
        rows = None
    if rows is None or len(comp) != sum(map(len, layers)):
        for key in chain.from_iterable(layers):
            if key not in comp:
                out.add("totality", (key,), "composable path has no recorded composite")
        known = set(chain.from_iterable(layers))
        _unknown_keys(out, comp, known, "comp entry for a path that does not exist at this bound")
    if out.items:
        return out.report(arity_bound=bound)

    # frames read off the ends: the paths are composable chains of known 1-cells
    src = {f: s for f, (s, _) in cells1.items()}
    tgt = {f: t for f, (_, t) in cells1.items()}
    first, last = itemgetter(1), itemgetter(-1)
    ext, peels, framed = None, {}, True
    for m, (layer, results) in enumerate(zip(layers, rows)):
        peels[m] = list(chain.from_iterable(map(ext.__getitem__, rows[m - 1]))) if ext else None
        if peels[m] == results:  # m >= 3: framed by induction
            continue
        if m:
            starts = map(src.__getitem__, map(first, layer))
            frames = list(zip(starts, map(tgt.__getitem__, map(last, layer))))
        else:
            anchors = list(map(first, layer))
            frames = list(zip(anchors, anchors))
        singletons = m != 1 or results == list(map(first, layer))
        if not singletons or list(map(cells1.__getitem__, results)) != frames:
            for key, result, frame in zip(layer, results, frames):
                if cells1[result] != frame:
                    out.add("endpoints", (key, result))
                    ext, framed = None, False
                if m == 1 and result != key[1]:
                    out.add("singleton", (key[1], result), "comp of a one-edge path must be that edge")
        if m == 2 and framed:
            ext = _extensions(X, results)
    if not framed:
        return out.report(arity_bound=bound)

    get = comp.__getitem__
    checked = dict.fromkeys(("left unit", "right unit", "bracket left", "bracket right", "peel"), 0)
    for m, (layer, results) in enumerate(zip(layers, rows)):
        # every collapsed key has length 2; none is checked below bound 2
        if bound < 2 or m in (0, 2):
            continue
        # each generator's side, by (generator, i, j)
        if m == 1:
            edges = list(map(first, layer))
            unit = dict(zip(map(first, layers[0]), rows[0]))
            before = map(unit.__getitem__, map(src.__getitem__, edges))
            after = map(unit.__getitem__, map(tgt.__getitem__, edges))
            sides = {
                ("left unit", 0, 0): list(map(get, zip(repeat(1), before, edges))),
                ("right unit", 1, 1): list(map(get, zip(repeat(1), edges, after))),
            }
        elif m == 3:
            tails = map(get, zip(repeat(1), map(itemgetter(2), layer), map(last, layer)))
            sides = {
                ("bracket left", 0, 2): peels[m],
                ("bracket right", 1, 3): list(map(get, zip(repeat(1), map(first, layer), tails))),
            }
        else:
            sides = {("peel", 0, m - 1): peels[m]}
        for name, _, _ in sides:
            checked[name] += len(layer)
        if all(side == results for side in sides.values()):
            continue
        for key, result, *values in zip(layer, results, *sides.values()):
            for (_, i, j), value in zip(sides, values):
                if value != result:
                    message = f"comp disagrees after collapsing segment [{i}:{j}]"
                    out.add("substitution", (key, i, j), message)
    return out.report(arity_bound=bound, checked=checked)


def validate_op2(X: FiniteOpTwoCat) -> ValidationReport:
    """Check frames, identities, and the grafting laws at the bound.

    Rules: ``arity bound`` (alone: a negative bound is the whole report),
    ``dangling id``, ``frame``, ``identity``, ``totality``, ``right unit``,
    ``left unit``, ``sequential associativity``, ``parallel commutation``.

    A 2-cell whose source is longer than the bound is a ``dangling id``, as
    a ``comp`` key is in ``validate_op1``, so once the cells pass no cell,
    and no framed row's result, is longer than the bound.  Once
    ``_table_phase`` passes, every entry a law reads is present, and the
    laws' batches (``_sequential``, ``_parallel``) are cut at ``top``, the
    longest cell's arity.  A sequential batch is accepted when its two sides
    are equal tuples, read by cached ``itemgetter`` calls or off a column; a
    parallel block, the batches of one slot pair and arity pair, when its two
    matrices of such tuples are equal.  Otherwise ``_compare`` walks each
    batch that differs, so witnesses, messages and their order are those of
    a walk over every instance.

    The unit laws are checked first.  Once both hold, a batch that grafts an
    identity ``1`` as ``b`` or ``c`` is implied and not compared: given the
    totality and frames, both sides of each such instance are one cell, by
    right unit (ru: graft(x, k, 1) = x) and left unit (lu: graft(1, 0, x) =
    x), case by case in each law's function.  When a unit law fails every
    instance is compared, so the violations never depend on the skip.
    ``notes`` holds ``arity_bound`` and, once the laws run, per law
    ``checked``, the instances compared, and ``implied``, those skipped (0
    when a unit law fails), both summed from batch cuts.
    """
    rejected = _bound_report(X)
    if rejected is not None:
        return rejected
    out = _Collector()
    _unknown_ends(out, X.cells1, X.objects)
    frames = {f: tuple(ends) for f, ends in X.cells1.items()}  # a frame by its endpoints
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
        if frames[cell.target] != (s, t):
            out.add("frame", (cid,), "source path endpoints differ from target endpoints")
        if cell.source.arity > X.arity_bound:
            out.add("dangling id", (cid,), "2-cell on a path that does not exist at this bound")
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
    _unknown_keys(out, X.ident2, X.cells1, "identity recorded for an unknown 1-cell")

    col, below, arity, source, runs, top = _table_phase(X, out)
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

    # units[1_f] = f once both unit laws hold: batches grafting 1_f are counted, not compared
    units = {} if out.items else {ident: f for f, ident in X.ident2.items()}
    laws = {"sequential associativity": _sequential(X.graft, col, below, arity, runs, top, units)}
    del below  # not read by parallel commutation
    laws["parallel commutation"] = _parallel(X.graft, col, arity, source, runs, top, units)
    checked, implied = {}, {}
    for law, (found, checked[law], implied[law]) in laws.items():
        for witness, message in found:
            out.add(law, witness, message)
    return out.report(arity_bound=X.arity_bound, checked=checked, implied=implied)


def _table_phase(X: FiniteOpTwoCat, out: _Collector) -> tuple:
    """``validate_op2``'s totality and frames, and the indexes its laws read.

    The table is read in blocks, one per occupied source path ``p`` of
    arity ``m``: the rows ``(a, i, b)`` for its occupants ``a``, its slots
    ``i`` and the cells ``b`` into its ``i``-th edge of arity at most
    ``bound + 1 - m``.  One ``map`` per outer cell looks its rows up, and two
    list comparisons check their results' sources and targets.  The table
    passes when every block does and the blocks cover all ``len(graft)``
    (distinct) rows; otherwise ``_walk_table`` reports into ``out`` row by row.

    Returns ``(col, below, arity, source, runs, top)``, complete once the
    table passes: ``below[b]`` holds the rows ``(j, c, graft(b, j, c))`` as
    three lists in arity order of ``c``, and ``runs[f]`` maps each arity
    ``k``, ascending, to the cells into ``f`` of arity ``k`` in ``cells2``
    order.
    """
    bound, graft_table = X.arity_bound, X.graft
    arity = {cid: cell.source.arity for cid, cell in X.cells2.items()}
    occupants = X.occupants
    canon = {key: key for key in occupants}  # one key object per path: compared by identity
    source = {cid: key for key, ids in occupants.items() for cid in ids}
    edges = {key: key[1:] if key[0] else () for key in occupants}  # by path
    target = {cid: cell.target for cid, cell in X.cells2.items()}
    top = max(arity.values(), default=0)
    runs: dict[str, dict[int, list[str]]] = {f: {} for f in X.cells1}
    for cid in sorted(arity, key=arity.__getitem__):
        runs[target[cid]].setdefault(arity[cid], []).append(cid)
    col: list[dict[str, dict[str, str]]] = [{} for _ in range(top)]
    below: dict[str, list[list]] = {}
    covered = 0
    for p in sorted(occupants, key=len):  # the blocks, paths in arity order
        m, outs = len(p) - 1, occupants[p]
        if not p[0]:
            continue
        # the slots i and inner cells b of the path's in-bound rows, b in arity order
        fits = [(i, b) for k in range(min(bound + 1 - m, top) + 1)
                for i in range(m) for b in runs[p[i + 1]].get(k, ())]
        js, cs = [i for i, _ in fits], [b for _, b in fits]
        spliced = [canon.get(p[: i + 1] + edges[source[b]] + p[i + 2 :]) if m > 1 else source[b]
                   for i, b in fits]
        try:
            rows = [list(map(graft_table.__getitem__, zip(repeat(a), js, cs))) for a in outs]
            framed = all(list(map(source.__getitem__, row)) == spliced
                         and list(map(target.__getitem__, row)) == [target[a]] * len(row)
                         for a, row in zip(outs, rows))
        except KeyError:  # an absent row or an unknown result
            framed = False
        covered = covered + len(fits) * len(outs) if framed else -1
        if not framed:
            break
        for (i, b), results in zip(fits, zip(*rows)):
            col[i].setdefault(b, {}).update(zip(outs, results))
        for a, row in zip(outs, rows):
            below[a] = [js, cs, row]
    if covered != len(graft_table):  # a row is absent, misframed or past the bound
        _walk_table(X, out, arity, source, edges, top)
    return col, below, arity, source, runs, top


def _sequential(graft_table, col, below, arity, runs, top, units) -> tuple:
    """Sequential associativity, graft(graft(a,i,b), i+j, c) =
    graft(a, i, graft(b,j,c)), as ``(found, checked, implied)``.

    One batch per column ``(i, b)`` and row ``(b, j, c) -> bc``:
    ``col[i+j][c]`` over the column's values against ``col[i][bc]`` over its
    outer cells, cut at the composite's arity.  ``found`` holds ``(witness,
    message)`` pairs in table order of the row ``(b, j, c)``, then ``(a, i, b)``.

    The right-hand side is read off the column it names, not looked up:
    after the table phase the keys of ``col[i][x]`` are the cells ``a``
    holding ``target(x)`` at slot ``i`` with ``arity(a) + arity(x) - 1 <=
    top``, in block order (by totality, the frames and the cut at the
    longest cell).  The frame rule gives ``target(bc) = target(b)``, and
    ``arity(bc) = arity(b) + arity(c) - 1``, so the first ``n`` keys of
    ``col[i][bc]`` are ``outers[:n]``: all of them when ``arity(c) >= 1``,
    and a prefix of a longer column when ``c`` is nullary.

    With ``units`` set, the identity batches are implied (see ``validate_op2``):

    - ``b = 1``: ``j = 0``, and both sides are graft(a, i, c), the left by
      ru on ``a``, the right by lu on ``c``;
    - ``c = 1``: both sides are graft(a, i, b), the left by ru on
      graft(a, i, b), the right by ru on ``b``;
    - ``a = 1``: ``i = 0``, and both sides are graft(b, j, c), by lu on
      ``b`` and on graft(b, j, c).  It is compared all the same: it would
      remove no batch, only one outer cell from each batch of a column
      ``(0, b)``.
    """
    found: list[tuple[tuple, str]] = []
    checked = implied = 0
    for i, col_i in enumerate(col):
        # results[x]: col[i][x]'s values; the right-hand side of a batch is a prefix
        results = None  # the last slot's go first: holding both was the call's peak
        results = {x: tuple(column.values()) for x, column in col_i.items()}
        for b, column in col_i.items():
            outers, values = list(column), results[b]
            arities = list(map(arity.__getitem__, outers))
            if b in units:  # the rows (0, c, c), c into f: a cut depends on c only by its arity
                implied += sum(bisect_right(arities, top + 1 - k) * len(cs)
                               for k, cs in runs[units[b]].items())
                continue
            room, cut = top + 2 - arity[b], 0
            for j, c, bc in zip(*below.get(b, ((), (), ()))):
                n = bisect_right(arities, room - arity[c])
                if not n:
                    break
                if c in units:
                    implied += n
                    continue
                after, rhs = col[i + j][c], results[bc]
                if n != cut:  # n only falls along the rows
                    cut, get_values = n, _getter(values[:n])
                if len(rhs) != n:  # a nullary c: col[i][bc] outgrows col[i][b]
                    rhs = rhs[:n]
                lhs = get_values(after)
                if lhs != rhs:
                    _compare(((a, i, b, j, c) for a in outers), lhs, rhs, found)
                checked += n
    if found:
        position = {key: n for n, key in enumerate(graft_table)}
        found.sort(key=lambda v: (position[v[0][2:]], position[v[0][:3]]))
    return found, checked, implied


def _parallel(graft_table, col, arity, source, runs, top, units) -> tuple:
    """Parallel commutation, graft(graft(a,i,b), j+kb-1, c) =
    graft(graft(a,j,c), i, b), as ``(found, checked, implied)``.

    One block per slot pair and arity pair: a slot pair ``i < j`` with edges
    ``(ei, ej)``, over the outer cells with those edges at those slots, and
    an arity pair ``(kb, kc)``, for the cells ``b`` into ``ei`` of arity
    ``kb`` and ``c`` into ``ej`` of arity ``kc``.  The block's batch ``(b,
    c)`` is ``col[j+kb-1][c]`` after ``col[i][b]`` against ``col[i][b]``
    after ``col[j][c]``, all cut at one ``n`` over the outer cells.  The
    left-hand sides are read as a ``b``-by-``c`` matrix and the right-hand
    sides as a ``c``-by-``b`` one, compared transposed once; only a block
    that differs is split into its batches, and only a batch that differs is
    walked.  ``found`` holds ``(witness, message)`` pairs by ``a`` in table
    order, then by (slot, inner cell) pairs.

    With ``units`` set, the identity batches are implied (see ``validate_op2``):

    - ``b = 1``: ``kb = 1``, and both sides are graft(a, j, c), the left by
      ru on ``a``, the right by ru on graft(a, j, c), whose slot ``i < j``
      still holds ``ei``;
    - ``c = 1``: both sides are graft(a, i, b), the right by ru on ``a``,
      the left by ru on graft(a, i, b), whose slot ``j+kb-1`` holds ``ej``.
    """
    pairs: dict[tuple[int, str, int, str], list[str]] = {}
    for a in sorted(arity, key=arity.__getitem__):
        for j in range(1, arity[a]):
            for i in range(j):
                pairs.setdefault((i, source[a][i + 1], j, source[a][j + 1]), []).append(a)
    found: list[tuple[tuple, str]] = []
    checked = implied = 0
    for (i, ei, j, ej), outers in pairs.items():
        arities = list(map(arity.__getitem__, outers))
        for kb, bs in runs[ei].items():
            for kc, cs in runs[ej].items():
                # graft(a,i,b), graft(a,j,c) and the composite are at most top long
                n = bisect_right(arities, min(top + 2 - kb - kc, top + 1 - kb, top + 1 - kc))
                if not n:  # n only falls along kc
                    break
                kept_b = [b for b in bs if b not in units]  # units' batches are implied
                kept_c = [c for c in cs if c not in units]
                implied += n * (len(bs) * len(cs) - len(kept_b) * len(kept_c))
                checked += n * len(kept_b) * len(kept_c)
                if not (kept_b and kept_c):
                    continue
                cut = _getter(outers[:n])
                col_ib, after = [col[i][b] for b in kept_b], [col[j + kb - 1][c] for c in kept_c]
                lhs = [tuple(map(_getter(cut(ab)), after)) for ab in col_ib]
                rhs = list(zip(*[map(_getter(cut(col[j][c])), col_ib) for c in kept_c]))
                if lhs != rhs:
                    for b, lhs_b, rhs_b in zip(kept_b, lhs, rhs):
                        for c, l, r in zip(kept_c, lhs_b, rhs_b):
                            if l != r:
                                _compare(((a, i, b, j, c) for a in outers), l, r, found)
    if found:
        first = {a: n for n, a in enumerate(dict.fromkeys(key[0] for key in graft_table))}
        found.sort(key=lambda v: (first[v[0][0]], v[0]))
    return found, checked, implied


def _walk_table(X: FiniteOpTwoCat, out: _Collector, arity: dict, source: dict, edges: dict, top: int):
    """``validate_op2``'s totality and frame rules, row by row, into ``out``."""
    # fitting[f][k]: the cells into f of arity at most k, in cells2 order; no
    # cell is longer than top, so k past top is read at top
    fitting: dict[str, list[list[str]]] = {f: [[] for _ in range(top + 1)] for f in X.cells1}
    for cid, cell in X.cells2.items():
        for k in range(arity[cid], top + 1):
            fitting[cell.target][k].append(cid)
    for cid, outer in sorted(X.cells2.items()):
        room = min(X.arity_bound + 1 - outer.source.arity, top)
        for slot, edge in enumerate(outer.source.edges):
            for inner_id in fitting[edge][room]:
                key = (cid, slot, inner_id)
                if key not in X.graft:
                    out.add("totality", key, "in-bound graft has no table entry")
    for (cid, slot, inner_id), result in X.graft.items():
        if cid not in X.cells2 or inner_id not in X.cells2 or result not in X.cells2:
            out.add("dangling id", (cid, slot, inner_id, result))
            continue
        if not 0 <= slot < X.cells2[cid].source.arity:
            out.add("frame", (cid, slot, inner_id), "slot out of range")
            continue
        if X.cells2[inner_id].target != source[cid][slot + 1]:
            out.add("frame", (cid, slot, inner_id), "inner target differs from the slot edge")
            continue
        # the outer key with the slot's edge replaced by the inner cell's edges
        spliced = source[cid][: slot + 1] + edges[source[inner_id]] + source[cid][slot + 2 :]
        if source[result] != (spliced if len(source[cid]) > 2 else source[inner_id]):
            out.add("frame", (cid, slot, inner_id), "result source is not the spliced path")
        if X.cells2[result].target != X.cells2[cid].target:
            out.add("frame", (cid, slot, inner_id), "result target differs from the outer target")


def _getter(keys) -> Callable:
    """``itemgetter(*keys)``, returning a 1-tuple for a single key too."""
    if len(keys) == 1:
        key = keys[0]
        return lambda table: (table[key],)
    return itemgetter(*keys)


def _compare(witnesses, lhs: Sequence, rhs: Sequence, found: list) -> None:
    """Walk a failing batch: each pair whose sides differ goes into ``found`` with its witness."""
    found.extend((w, f"{l} != {r}") for w, l, r in zip(witnesses, lhs, rhs) if l != r)


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
    The 1-cells come off the niche index, edge by edge in sorted order.
    ``fold_paths`` grafts the binary chains; once each binary composite is a
    1-cell of the hom with the right target, it reads the longer chains off
    them by position, and otherwise grafts every chain length.
    """
    if a not in X.objects:
        raise DanglingId(f"unknown object {a!r}")
    if b not in X.objects:
        raise DanglingId(f"unknown object {b!r}")
    objects = tuple(f for f in X.out_edges.get(a, ()) if X.tgt1(f) == b)
    cells1 = {
        cid: (f, X.cells2[cid].target) for f in objects for cid in X.occupants.get((1, f), ())
    }
    H = FiniteOpOneCat(objects, cells1, {}, X.arity_bound)
    fold_paths(H, X.ident2, lambda rows, ends: list(map(graft, repeat(X), ends, repeat(0), rows)))
    return H
