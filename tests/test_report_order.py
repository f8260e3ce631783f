"""Reports list their violations in table order, whatever the hash seed.

Each case holds several violations of one rule that a validator could emit
in set order: comp rows for paths longer than the bound, identity 2-cells
for unknown 1-cells, biasing choices for unknown objects and pairs, binary
universals whose composite 1-cell is not universal, and classical table
entries for unknown or non-composable cells.  The cases run in
fresh interpreters under two fixed ``PYTHONHASHSEED`` values; the outputs
must be identical and follow the order of the tables.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from opetokit.bicat import validate_bicategory, validate_category
from opetokit.cli import main
from opetokit.equivalences import from_bicategory, validate_biasing
from opetokit.fixtures import arrow_bicategory, sign_bicategory, z2_category
from opetokit.universality import check_coherence
from test_op2_oracle import _corrupt

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "docs" / "fixtures"

# comp rows for paths longer than the fixture's bound 4
LONG_PATHS = (("s",) * 5, ("e", "s", "e", "s", "e"), ("s", "e") * 3)
UNKNOWN_ONE_CELLS = ("u", "k", "w")
UNKNOWN_OBJECTS = ("x", "q", "m")
UNKNOWN_PAIRS = (("p", "q"), ("z", "a"), ("c", "b"))
# a corruption whose report holds several composite 1-cell violations
COHERENCE_SEED = 45
# classical table entries outside the table's domain: (base, table, entries)
OUT_OF_DOMAIN = (
    ("z2", "identities", {a: "e" for a in UNKNOWN_OBJECTS}),
    ("sign", "id1", {a: "e" for a in UNKNOWN_OBJECTS}),
    ("sign", "id2", {f: "1e" for f in UNKNOWN_ONE_CELLS}),
    ("sign", "lunit", {f: "1e" for f in UNKNOWN_ONE_CELLS}),
    ("sign", "runit", {f: "1e" for f in UNKNOWN_ONE_CELLS}),
    ("sign", "assoc", {("e", f, "s"): "1e" for f in UNKNOWN_ONE_CELLS}),
    ("arrow", "hcomp1", {("k", "k"): "k", ("k2", "k"): "k", ("k", "k2"): "k"}),
    ("arrow", "assoc", {("k", "k", "k"): "1k", ("k2", "k", "k"): "1k", ("k", "iB", "k2"): "1k"}),
)


def _documents(tmp: Path) -> dict[str, str]:
    op1 = json.loads((FIXTURES / "op1cat.json").read_text())
    op1["comp"] += [{"edges": list(edges), "result": "s"} for edges in LONG_PATHS]
    op2 = json.loads((FIXTURES / "op2cat.json").read_text())
    op2["identity_two_cells"].update({f: "1e" for f in UNKNOWN_ONE_CELLS})
    files = {}
    for name, doc in (("op1cat", op1), ("op2cat", op2)):
        files[name] = str(tmp / f"{name}.json")
        Path(files[name]).write_text(json.dumps(doc))  # keeps the row and key order
    return files


def _violations(report) -> list:
    """``[rule, witness]`` pairs, as JSON reads them back."""
    return json.loads(json.dumps([[v.rule, v.witness] for v in report.violations]))


def _emit(tmp: str) -> None:
    """Print every case's output as one JSON object."""
    out = {}
    for name, filename in _documents(Path(tmp)).items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            out[f"validate {name}"] = (main(["validate", filename]), buffer.getvalue())
    X, b = from_bicategory(sign_bicategory())
    extra = dataclasses.replace(
        b,
        iota={**b.iota, **{a: b.iota["pt"] for a in UNKNOWN_OBJECTS}},
        c={**b.c, **{pair: b.c[("s", "s")] for pair in UNKNOWN_PAIRS}},
    )
    out["validate_biasing"] = _violations(validate_biasing(X, extra))
    out["check_coherence"] = _violations(check_coherence(_corrupt(COHERENCE_SEED)[0]))
    bases = {"z2": z2_category(), "sign": sign_bicategory(), "arrow": arrow_bicategory()}
    for base, table, entries in OUT_OF_DOMAIN:
        S = bases[base]
        broken = dataclasses.replace(S, **{table: {**getattr(S, table), **entries}})
        validate = validate_category if base == "z2" else validate_bicategory
        out[f"{base} {table}"] = _violations(validate(broken))
    print(json.dumps(out))


def _run(tmp_path: Path, seed: str) -> dict:
    env = {**os.environ, "PYTHONHASHSEED": seed}
    env["PYTHONPATH"] = os.pathsep.join([str(HERE.parent / "src"), str(HERE)])
    script = f"import test_report_order; test_report_order._emit({str(tmp_path)!r})"
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _positions(text: str, needles) -> list[int]:
    return [text.index(repr(needle)) for needle in needles]


def test_reports_follow_table_order_under_any_hash_seed(tmp_path):
    first, second = (_run(tmp_path, seed) for seed in ("1", "2"))
    assert first == second

    code, stdout = first["validate op1cat"]
    keys = [(1, *edges) for edges in LONG_PATHS]
    assert code == 1 and stdout.count("dangling id") == len(keys)
    assert _positions(stdout, keys) == sorted(_positions(stdout, keys))

    code, stdout = first["validate op2cat"]
    assert code == 1 and stdout.count("identity recorded for an unknown 1-cell") == 3
    assert _positions(stdout, UNKNOWN_ONE_CELLS) == sorted(_positions(stdout, UNKNOWN_ONE_CELLS))

    assert first["validate_biasing"] == (
        [["niche", [a]] for a in UNKNOWN_OBJECTS] + [["niche", [list(p)]] for p in UNKNOWN_PAIRS]
    )

    X, _ = _corrupt(COHERENCE_SEED)
    group = [w for rule, w in first["check_coherence"] if rule == "composite 1-cell not universal"]
    position = {cid: n for n, cid in enumerate(X.cells2)}
    assert len(group) >= 2
    assert [position[w[0]] for w in group] == sorted(position[w[0]] for w in group)
    # the same report in this process, whatever its hash seed
    assert first["check_coherence"] == _violations(check_coherence(X))

    for base, table, entries in OUT_OF_DOMAIN:
        witnesses = [w for _, w in first[f"{base} {table}"]]
        assert witnesses == [list(k) if isinstance(k, tuple) else [k] for k in entries], table
