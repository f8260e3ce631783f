"""Z_n 2-groups: the benchmark's generated bicategories.

One object ``pt``; 1-cells ``f0 .. f{n-1}`` forming the cyclic group Z_n
under horizontal composition; on each 1-cell ``x`` the 2-cells
``c0_x .. c{n-1}_x`` forming Z_n again under both vertical and horizontal
composition.  The associator component on (h, g, f) is the 2-cell with
index omega(h, g, f) = f * floor((g + h) / n) mod n, the standard carry
3-cocycle of Z_n with coefficients in Z_n; unitors are identities.  Every
1-cell and every 2-cell is invertible, so every cell of the generated
opetopic presentation is universal.

At n = 2 this is ``opetokit.fixtures.sign_bicategory()`` up to the renaming
f0 -> e, f1 -> s, c0_x -> 1x, c1_x -> nx.
"""

from __future__ import annotations


def one_cell(i: int) -> str:
    return f"f{i}"


def two_cell(k: int, x: str) -> str:
    return f"c{k}_{x}"


def cocycle(n: int, h: int, g: int, f: int) -> int:
    return (f * ((g + h) // n)) % n


def zn_tables(n: int) -> dict:
    """The keyword arguments of ``FiniteBicategory`` for the Z_n 2-group."""
    if n < 1:
        raise ValueError(f"a cyclic group needs order at least 1, got {n}")
    ones = [one_cell(i) for i in range(n)]
    ks = range(n)
    return dict(
        objects=("pt",),
        one_cells={x: ("pt", "pt") for x in ones},
        two_cells={two_cell(k, x): (x, x) for x in ones for k in ks},
        id2={x: two_cell(0, x) for x in ones},
        vcomp={
            (two_cell(k2, x), two_cell(k1, x)): two_cell((k1 + k2) % n, x)
            for x in ones
            for k1 in ks
            for k2 in ks
        },
        id1={"pt": one_cell(0)},
        hcomp1={
            (one_cell(g), one_cell(f)): one_cell((g + f) % n)
            for g in range(n)
            for f in range(n)
        },
        hcomp2={
            (two_cell(k2, one_cell(g)), two_cell(k1, one_cell(f))):
                two_cell((k1 + k2) % n, one_cell((g + f) % n))
            for g in range(n)
            for f in range(n)
            for k1 in ks
            for k2 in ks
        },
        assoc={
            (one_cell(h), one_cell(g), one_cell(f)):
                two_cell(cocycle(n, h, g, f), one_cell((h + g + f) % n))
            for h in range(n)
            for g in range(n)
            for f in range(n)
        },
        lunit={x: two_cell(0, x) for x in ones},
        runit={x: two_cell(0, x) for x in ones},
    )


def zn_bicategory(n: int, FiniteBicategory):
    """The Z_n 2-group built with the given ``FiniteBicategory`` class."""
    return FiniteBicategory(**zn_tables(n))


# ---------------------------------------------------------------------------
# known answers, computed from the group law alone


def zn_paths(n: int, bound: int):
    """Index tuples of every composable path of length 0..bound."""
    layer = [()]
    for _ in range(bound + 1):
        yield from layer
        layer = [p + (i,) for p in layer for i in range(n)]


def zn_cell_id(n: int, p: tuple[int, ...], k: int) -> str:
    """The id the canonical presentation gives the cell (path p, label k)."""
    label = two_cell(k, one_cell(sum(p) % n))
    if len(p) == 1:
        return label
    if not p:
        return f"@pt|{label}"
    return ";".join(one_cell(i) for i in p) + "|" + label


def zn_cell_ids(n: int, bound: int) -> dict[str, tuple[tuple[str, ...], str]]:
    """Every 2-cell id of the presentation, with its source edges and target."""
    return {
        zn_cell_id(n, p, k): (tuple(one_cell(i) for i in p), one_cell(sum(p) % n))
        for p in zn_paths(n, bound)
        for k in range(n)
    }


def zn_graft_rows(n: int, bound: int) -> int:
    """Rows of the grafting table: (outer, slot, inner) with the inner
    target equal to the slot edge and the grafted arity a + q - 1 within the
    bound.

    An outer cell of arity a is one of n**a paths times n labels and has a
    slots.  For q >= 1, n**(q-1) of the inner paths of arity q compose to any
    given slot edge, times n labels; for q = 0 the empty path composes to f0
    only, which a / n of the slots hold.  Both cases give a * n**(a+1+q).
    """
    return sum(
        a * n ** (a + 1 + q)
        for a in range(1, bound + 1)
        for q in range(0, bound + 2 - a)
    )


def zn_biasing(n: int) -> tuple[dict[str, str], dict[tuple[str, str], str]]:
    """The canonical choice: the identity label on every nullary and binary niche."""
    iota = {"pt": zn_cell_id(n, (), 0)}
    c = {(one_cell(i), one_cell(j)): zn_cell_id(n, (i, j), 0) for i in range(n) for j in range(n)}
    return iota, c
