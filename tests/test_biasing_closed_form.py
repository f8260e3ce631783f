"""A closed form for the coherence cells ``to_bicategory`` solves, on every biasing.

The presentations here are generated from cyclic 2-groups: ``sign`` (Z2 with
the sign cocycle) and the benchmark's Z_n (``perfbench/groups.py``).  Each
2-cell is a label index k in Z_n on a 1-cell, and every cell is universal,
so a biasing may choose any occupant of each nullary and binary niche.  For
a biasing b write K(g, f) for the label index of b's chosen occupant of the
path (f, g), and k0 for that of its nullary choice.  Then, mod n, with ω the
bicategory's associator cocycle:

- assoc(h, g, f) = ω(h, g, f) + K(g, f) + K(h, gf) − K(hg, f) − K(h, g);
- lunit(f) = −K(e, f) − k0;
- runit(f) = −K(f, e) − k0.

The formula reads the bicategory and the biasing's labels only, so it shares
nothing with ``to_bicategory``'s unique-factorisation solver.  Tier-1 takes
all 32 universal biasings of ``sign`` at bound 4 and a seeded sample of Z3's
3**10 biasings at bound 3; ``python tests/test_biasing_closed_form.py
[count]`` checks ``count`` seeded biasings each of Z3 and Z4 at bound 3
(default 2,000).
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import random
import sys
import time
from pathlib import Path

import pytest

import opetokit.equivalences as eq
from opetokit.bicat import FiniteBicategory
from opetokit.equivalences import Biasing, from_bicategory, to_bicategory
from opetokit.fixtures import sign_bicategory
from opetokit.universality import is_universal_2cell

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("groups", ROOT / "perfbench" / "groups.py")
groups = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(groups)


class Group:
    """A cyclic 2-group's names: its order, 1-cells, 2-cell labels and cocycle."""

    def __init__(self, n, bicategory, one_cells, labels, omega):
        self.n, self.bicategory, self.one_cells, self.omega = n, bicategory, one_cells, omega
        self.labels = labels  # labels(k, f): the name of the 2-cell of index k on f

    def label(self, cell_id: str) -> int:
        """The label index of a cell of the generated presentation."""
        name = cell_id.rsplit("|", 1)[-1]
        (k,) = [k for k in range(self.n) for f in self.one_cells if self.labels(k, f) == name]
        return k


SIGN = Group(2, sign_bicategory, ("e", "s"), lambda k, f: ("1", "n")[k] + f,
             lambda h, g, f: 1 if (h, g, f) == ("s", "s", "s") else 0)


@functools.cache
def _zn(n: int) -> Group:
    return Group(n, lambda: groups.zn_bicategory(n, FiniteBicategory),
                 [groups.one_cell(i) for i in range(n)], groups.two_cell,
                 lambda h, g, f: groups.cocycle(n, *(int(x[1:]) for x in (h, g, f))))


@functools.cache
def _generated(group: Group, bound: int):
    """The presentation at ``bound`` and its niches, each with its universal occupants."""
    X = from_bicategory(group.bicategory(), bound)[0]
    niches = [(kind, place, [c for c in occupants if is_universal_2cell(X, c)])
              for kind, _, place, occupants in eq._biased_niches(X, Biasing({}, {}))]
    return X, niches


def _biasing(niches, cells) -> Biasing:
    b = Biasing({}, {})
    for (kind, place, _), cell in zip(niches, cells):
        (b.iota if kind == "nullary" else b.c)[place] = cell
    return b


def _assert_closed_form(group: Group, X, b: Biasing) -> None:
    """``to_bicategory(X, b)``'s associators and unitors are the formula's cells."""
    B = to_bicategory(X, b)
    n, label, omega = group.n, group.label, group.omega
    K = {(g, f): label(cell) for (f, g), cell in b.c.items()}
    (k0,) = map(label, b.iota.values())
    (e,) = B.id1.values()
    after = B.hcomp1  # after[(g, f)]: g after f

    def cell(k: int, x: str) -> str:
        return group.labels(k % n, x)

    for (h, g, f), alpha in B.assoc.items():
        gf, hg = after[(g, f)], after[(h, g)]
        k = omega(h, g, f) + K[g, f] + K[h, gf] - K[hg, f] - K[h, g]
        assert alpha == cell(k, after[(h, gf)]), (b, (h, g, f))
    for f in B.one_cells:
        assert B.lunit[f] == cell(-K[e, f] - k0, f), (b, f)
        assert B.runit[f] == cell(-K[f, e] - k0, f), (b, f)


def _sample(niches, count: int, seed: int):
    """``count`` distinct seeded biasings, or all of them if there are fewer."""
    total = 1
    for _, _, universal in niches:
        total *= len(universal)
    rng = random.Random(seed)
    picks = range(total) if total <= count else sorted(rng.sample(range(total), count))
    for m in picks:
        cells = []
        for _, _, universal in reversed(niches):
            m, r = divmod(m, len(universal))
            cells.append(universal[r])
        yield _biasing(niches, cells[::-1])


def test_every_universal_biasing_of_sign_at_bound_4():
    X, niches = _generated(SIGN, 4)
    biasings = [_biasing(niches, cells) for cells in itertools.product(*(u for _, _, u in niches))]
    assert len(biasings) == 32
    for b in biasings:
        _assert_closed_form(SIGN, X, b)


@pytest.mark.parametrize("seed", range(4))
def test_seeded_biasings_of_z3_at_bound_3(seed):
    Z3 = _zn(3)
    X, niches = _generated(Z3, 3)
    assert [len(u) for _, _, u in niches] == [3] * 10  # every occupant is universal
    for b in _sample(niches, 5, seed):
        _assert_closed_form(Z3, X, b)


def test_the_sample_enumerates_every_biasing_when_it_can():
    _, niches = _generated(SIGN, 4)
    assert len({repr(b) for b in _sample(niches, 32, 0)}) == 32
    assert len(list(_sample(niches, 5, 0))) == 5


def test_a_wrong_label_fails_the_closed_form():
    # the oracle is sensitive: a biasing's label read one off breaks it
    X, niches = _generated(SIGN, 4)
    b = next(_sample(niches, 1, 0))
    shifted = Group(2, SIGN.bicategory, ("e", "s"), lambda k, f: ("n", "1")[k] + f, SIGN.omega)
    with pytest.raises(AssertionError):
        _assert_closed_form(shifted, X, b)


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    for n in (3, 4):
        group, start = _zn(n), time.perf_counter()
        X, niches = _generated(group, 3)
        checked = 0
        for b in _sample(niches, count, n):
            _assert_closed_form(group, X, b)
            checked += 1
        print(f"Z{n} at bound 3: {checked} biasings agree in {time.perf_counter() - start:.1f} s")
