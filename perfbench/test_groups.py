"""Checks of the benchmark's Z_n 2-group generator and its known answers.

    python3 -m pytest perfbench/test_groups.py
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import groups  # noqa: E402
from opetokit import FiniteBicategory, from_bicategory, validate_bicategory  # noqa: E402
from opetokit.fixtures import sign_bicategory  # noqa: E402
from run import assoc_counts, tail  # noqa: E402
from workloads import paths_up_to  # noqa: E402


@pytest.mark.parametrize("n", [2, 3, 4])
def test_zn_is_a_bicategory(n):
    report = validate_bicategory(groups.zn_bicategory(n, FiniteBicategory))
    assert report.ok, report.violations[:5]


def test_broken_cocycle_is_caught():
    # omega(1, 1, 1) = 0 for Z3; a lone change there is not a cocycle
    tables = groups.zn_tables(3)
    tables["assoc"][("f1", "f1", "f1")] = groups.two_cell(1, "f0")
    assert not validate_bicategory(FiniteBicategory(**tables)).ok


def _rename(name: str) -> str:
    ones = {"f0": "e", "f1": "s"}
    if name in ones:
        return ones[name]
    k, x = name[1:].split("_")
    return ("1" if k == "0" else "n") + ones[x]


def test_z2_is_the_sign_bicategory():
    B = groups.zn_bicategory(2, FiniteBicategory)
    r = _rename

    def keys(table):
        return {tuple(map(r, k)): r(v) for k, v in table.items()}

    renamed = FiniteBicategory(
        objects=B.objects,
        one_cells={r(f): st for f, st in B.one_cells.items()},
        two_cells={r(a): (r(x), r(y)) for a, (x, y) in B.two_cells.items()},
        id2={r(f): r(a) for f, a in B.id2.items()},
        vcomp=keys(B.vcomp),
        id1={o: r(f) for o, f in B.id1.items()},
        hcomp1=keys(B.hcomp1),
        hcomp2=keys(B.hcomp2),
        assoc=keys(B.assoc),
        lunit={r(f): r(a) for f, a in B.lunit.items()},
        runit={r(f): r(a) for f, a in B.runit.items()},
    )
    assert renamed == sign_bicategory()


@pytest.mark.parametrize("n", [2, 3])
def test_known_answers_match_the_generated_presentation(n):
    X, b = from_bicategory(groups.zn_bicategory(n, FiniteBicategory), 4)
    expected = groups.zn_cell_ids(n, 4)
    assert {cid: (c.source.edges, c.target) for cid, c in X.cells2.items()} == expected
    assert len(X.graft) == groups.zn_graft_rows(n, 4)
    assert (b.iota, b.c) == groups.zn_biasing(n)
    assert paths_up_to(X.objects, X.cells1, 4) == sum(1 for _ in groups.zn_paths(n, 4))


def test_graft_row_count_matches_the_ladder():
    assert [groups.zn_graft_rows(n, 4) for n in (2, 3, 4, 5)] == [1084, 10296, 52944, 191650]
    assert groups.zn_graft_rows(3, 5) == 46746


def test_assoc_counts_match_enumeration():
    X, _ = from_bicategory(groups.zn_bicategory(2, FiniteBicategory), 4)
    by_inner = {}
    for key in X.graft:
        by_inner.setdefault(key[2], []).append(key)
    candidates = in_bound = 0
    for (b, j, c), bc in X.graft.items():
        for (a, i, _) in by_inner.get(b, ()):
            candidates += 1
            ab = X.graft[(a, i, b)]
            if (ab, i + j, c) in X.graft and (a, i, bc) in X.graft:
                in_bound += 1
    assert assoc_counts(X) == (candidates, in_bound)


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 1001)]
    assert tail(samples) == (99.0, 990.0)
    assert tail(samples[:20]) == (50.0, 10.0)
