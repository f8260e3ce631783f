"""The benchmark's three workloads.

Each workload builds its inputs once per set-up (``setup``) and then runs
passes (``run_pass``), one library or CLI call at a time from a single
caller.  Every call is timed on its own and its result is checked against an
answer known without the code under test; a wrong result, or an exception,
counts as a failed operation.  The benchmark's own checks run outside the
timed calls.

Calls go through module attributes (``lib.core.validate_op2``) looked up at
call time, so that a traced pass sees the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, field

import groups
from speed import SpeedProbe, Stopwatch


@dataclass
class Pass:
    """Timed calls and check outcomes of one pass.

    Each call is kept as (kind, start, end, seconds); ``finish`` turns them
    into the pass's totals at the reference speed once the probe has samples
    on both sides of every call.
    """

    probe: SpeedProbe
    calls: list[tuple[str | None, float, float, float]] = field(default_factory=list)
    item_ends: list[int] = field(default_factory=list)  # len(calls) as each item ends
    attempted: int = 0
    failed: int = 0
    total: float = 0.0
    verdict: float = 0.0
    convert: float = 0.0
    wall: float = 0.0
    items: list[float] = field(default_factory=list)

    def timed(self, kind: str | None, fn, *args, **kwargs):
        """Call ``fn`` and keep its time under ``kind`` (``verdict``,
        ``convert`` or None: counted in the total only)."""
        with Stopwatch(self.probe) as watch:
            result = fn(*args, **kwargs)
        self.calls.append((kind, watch.start, watch.end, watch.seconds))
        return result

    def end_item(self) -> None:
        self.item_ends.append(len(self.calls))

    def finish(self) -> None:
        """Totals at the reference speed, and the calls let go."""
        scaled = [self.probe.scaled(start, end, seconds) for _, start, end, seconds in self.calls]
        self.wall = sum(call[3] for call in self.calls)
        self.total = sum(scaled)
        self.verdict = sum(x for x, c in zip(scaled, self.calls) if c[0] == "verdict")
        self.convert = sum(x for x, c in zip(scaled, self.calls) if c[0] == "convert")
        begin = 0
        self.items = []
        for end in self.item_ends:
            self.items.append(sum(scaled[begin:end]))
            begin = end
        self.calls.clear()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    @contextlib.contextmanager
    def guard(self, what: str):
        """Count an exception escaping the pass as one failed operation."""
        try:
            yield
        except Exception:
            self.attempted += 1
            self.failed += 1
            print(f"operation raised in {what}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# op2-z4-b4: the library pipeline on the Z4 2-group


@dataclass
class Op2Inputs:
    B: object
    cell_ids: dict
    graft_rows: int
    niches: int
    iota: dict
    c: dict


class Op2Pipeline:
    """from_bicategory -> dumps -> loads -> validate_op2 -> check_coherence
    -> choose_biasing -> to_bicategory on the Z_n 2-group at the bound."""

    name = "op2-z4-b4"
    order = 4
    bound = 4

    def setup(self, lib, seed: int, workdir: str, probe: SpeedProbe) -> tuple[Op2Inputs, dict]:
        n, bound = self.order, self.bound
        B = groups.zn_bicategory(n, lib.bicat.FiniteBicategory)
        iota, c = groups.zn_biasing(n)
        inputs = Op2Inputs(
            B=B,
            cell_ids=groups.zn_cell_ids(n, bound),
            graft_rows=groups.zn_graft_rows(n, bound),
            niches=sum(1 for _ in groups.zn_paths(n, bound)),
            iota=iota,
            c=c,
        )
        return inputs, {}

    def run_pass(self, lib, inp: Op2Inputs, probe: SpeedProbe) -> Pass:
        p = Pass(probe)
        eq, ser = lib.equivalences, lib.serialize
        with p.guard(self.name):
            X, b = p.timed("convert", eq.from_bicategory, inp.B, self.bound)
            p.check(
                len(X.graft) == inp.graft_rows
                and X.cells2.keys() == inp.cell_ids.keys()
                and all(
                    (cell.source.edges, cell.target) == inp.cell_ids[cid]
                    for cid, cell in X.cells2.items()
                )
                and X.ident2 == {f: groups.two_cell(0, f) for f in inp.B.one_cells}
                and (b.iota, b.c) == (inp.iota, inp.c),
                "from_bicategory: cells, graft rows, identities or biasing differ "
                "from the Z_n counts",
            )
            text = p.timed(None, lambda: ser.dumps(ser.to_doc(X, b)))
            X2, b2 = p.timed(None, lambda: ser.from_doc(ser.loads(text)))
            p.check(X2 == X and b2 == b, "loads(dumps(X)) differs from X")

            report = p.timed("verdict", lib.core.validate_op2, X2)
            p.check(report.ok, f"validate_op2 on a 2-group: {report.violations[:3]}")

            coh = p.timed("verdict", lib.universality.check_coherence, X2)
            p.check(
                coh.ok
                and coh.universal_two_cells == X.cells2.keys()
                and coh.universal_one_cells == inp.B.one_cells.keys()
                and len(coh.niche_universals) == inp.niches,
                "check_coherence: a 2-group has every cell universal",
            )

            chosen = p.timed("convert", eq.choose_biasing, X2)
            p.check((chosen.iota, chosen.c) == (inp.iota, inp.c),
                    "choose_biasing differs from the identity labels")

            back = p.timed("convert", eq.to_bicategory, X2, chosen, check=False)
            p.check(back == inp.B, "to_bicategory(from_bicategory(B)) != B")
        return p


# ---------------------------------------------------------------------------
# op1-family: the 674 small categories in dimension 1


def invertible(C, f: str) -> bool:
    """Read off the composition table: some g with g.f and f.g identities."""
    s, t = C.arrows[f]
    return any(
        C.compose.get((g, f)) == C.identities[s] and C.compose.get((f, g)) == C.identities[t]
        for g in C.arrows
    )


def paths_up_to(objects, cells: dict[str, tuple[str, str]], bound: int) -> int:
    """Number of composable chains of length 0..bound over ``cells``
    (id -> (source, target)), counted by their last object."""
    ending_at = dict.fromkeys(objects, 1)  # chains of length 0
    total = len(ending_at)
    for _ in range(bound):
        step = dict.fromkeys(objects, 0)
        for s, t in cells.values():
            if s in step and t in step:
                step[t] += ending_at[s]
        ending_at = step
        total += sum(step.values())
    return total


@dataclass
class Op1Item:
    C: object
    paths: int
    invertible: dict


class Op1Family:
    """from_category -> validate_op1 -> to_category -> is_universal_1cell_op1
    on every arrow, for each category of the family in a seeded order."""

    name = "op1-family"
    bound = 4

    def setup(self, lib, seed: int, workdir: str, probe: SpeedProbe) -> tuple[list[Op1Item], dict]:
        fx = lib.fixtures
        with Stopwatch(probe) as watch:
            family = [fx.z2_category()] + fx.small_category_family()
        items = [
            Op1Item(C, paths_up_to(C.objects, C.arrows, self.bound), {f: invertible(C, f) for f in C.arrows})
            for C in family
        ]
        random.Random(seed).shuffle(items)
        return items, {"fixtures.family_s": watch}

    def run_pass(self, lib, items: list[Op1Item], probe: SpeedProbe) -> Pass:
        p = Pass(probe)
        eq, core, uni = lib.equivalences, lib.core, lib.universality
        for it in items:
            with p.guard(self.name):
                X = p.timed("convert", eq.from_category, it.C, self.bound)
                p.check(len(X.comp) == it.paths, "from_category: one comp row per path")
                report = p.timed("verdict", core.validate_op1, X)
                p.check(report.ok, f"validate_op1: {report.violations[:3]}")
                back = p.timed("convert", eq.to_category, X, check=False)
                p.check(back == it.C, "to_category(from_category(C)) != C")
                for f, inv in it.invertible.items():
                    verdict = p.timed("verdict", uni.is_universal_1cell_op1, X, f)
                    p.check(verdict == inv, f"universal {f} != invertible {f}")
                p.end_item()
        return p


# ---------------------------------------------------------------------------
# cli-z3-b4: the command line on files


@dataclass
class Command:
    argv: list[str]
    kind: str | None  # "verdict", "convert" or None
    code: int
    stdout: str | None  # exact expected stdout, or None when ``accept`` decides
    accept: object = None  # callable(stdout) -> bool for outputs not fixed in advance
    writes: tuple[str, bytes] | None = None  # (path, expected file bytes)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _all_universal(cell_ids, bound: int) -> str:
    lines = [f"{cid}: universal" for cid in sorted(cell_ids)]
    lines.append(f"coherence: coherent at arity bound {bound} (closure checked via generators)")
    return "\n".join(lines) + "\n"


def _violation_listing(expected_line: str):
    """Accept a report whose count matches its lines and that names the row."""

    def accept(stdout: str) -> bool:
        head, *lines = stdout.splitlines()
        return (
            head == f"op2cat: {len(lines)} violation(s)"
            and expected_line in lines
        )

    return accept


class CliFiles:
    """``opetokit.cli.main`` in-process on a generated Z3 file pair, the
    shipped fixtures, and seeded corruptions of the Z3 op2cat file."""

    name = "cli-z3-b4"
    order = 3
    bound = 4
    drops = 2
    swaps = 2

    def __init__(self, root: str):
        self.fixtures = os.path.join(root, "docs", "fixtures")

    def setup(self, lib, seed: int, workdir: str, probe: SpeedProbe) -> tuple[list[Command], dict]:
        ser, eq = lib.serialize, lib.equivalences
        n, bound = self.order, self.bound
        B = groups.zn_bicategory(n, lib.bicat.FiniteBicategory)
        X, b = eq.from_bicategory(B, bound)
        op2_doc = ser.to_doc(X, b)
        op2_text = ser.dumps(op2_doc)
        bicat_text = ser.dumps(ser.to_doc(B))
        cell_ids = groups.zn_cell_ids(n, bound)

        def put(name: str, text: str) -> str:
            path = os.path.join(workdir, name)
            _write(path, text)
            return path

        op2 = put("z3.op2cat.json", op2_text)
        bic = put("z3.bicategory.json", bicat_text)
        out_bicat = os.path.join(workdir, "out.bicategory.json")
        out_opic = os.path.join(workdir, "out.op2cat.json")
        out_op1 = os.path.join(workdir, "out.op1cat.json")

        def fx(name: str) -> str:
            return os.path.join(self.fixtures, name)

        with open(fx("op2cat.json"), encoding="utf-8") as fh:
            sign_ids = [row["id"] for row in json.load(fh)["two_cells"]]
        identical = "roundtrip: identical\n"
        commands = [
            Command(["validate", op2], "verdict", 0, "op2cat: ok\n"),
            Command(["validate", bic], "verdict", 0, "bicategory: ok\n"),
            Command(["universal", op2, "--all"], "verdict", 0, _all_universal(cell_ids, bound)),
            Command(["convert", op2, "--to", "bicat", "--out", out_bicat], "convert", 0,
                    out_bicat + "\n", writes=(out_bicat, bicat_text.encode())),
            Command(["convert", bic, "--to", "opic", "--out", out_opic], "convert", 0,
                    out_opic + "\n", writes=(out_opic, op2_text.encode())),
            Command(["roundtrip", op2], "convert", 0, identical),
            Command(["roundtrip", bic], "convert", 0, identical),
        ]
        for name, kind in (("category.json", "category"), ("op1cat.json", "op1cat"),
                           ("bicategory.json", "bicategory"), ("op2cat.json", "op2cat"),
                           ("bicategory_idempotent.json", "bicategory")):
            commands.append(Command(["validate", fx(name)], "verdict", 0, f"{kind}: ok\n"))
        for name in ("bicategory.json", "category.json", "op1cat.json", "op2cat.json",
                     "bicategory_idempotent.json"):
            commands.append(Command(["roundtrip", fx(name)], "convert", 0, identical))
        commands += [
            Command(["universal", fx("op2cat.json"), "--all"], "verdict", 0,
                    _all_universal(sign_ids, bound)),
            Command(["convert", fx("category.json"), "--to", "opic", "--out", out_op1],
                    "convert", 0, out_op1 + "\n", writes=(out_op1, _read(fx("op1cat.json")))),
            Command(["classify", fx("op2cat.json"), fx("op2cat.json"), fx("opmorphism.json")],
                    None, 0, "strict\n"),
        ]
        commands += self._rejects(op2_doc, ser, seed, put)
        return commands, {}

    def _rejects(self, doc: dict, ser, seed: int, put) -> list[Command]:
        """Single-entry corruptions of the op2cat document, picked by the seed.

        A dropped graft row gives exactly one totality violation naming it.
        A right-unit row (cell, slot, identity on the slot edge) whose result
        is swapped for another occupant of the same niche gives a right unit
        violation naming it, among others.
        """
        rng = random.Random(seed)
        rows = doc["graft"]
        edges = {c["id"]: c["source"]["edges"] for c in doc["two_cells"]}
        niche = {}
        for cid, es in edges.items():
            niche.setdefault(tuple(es), []).append(cid)
        ident = doc["identity_two_cells"]
        right_unit = [
            i for i, r in enumerate(rows)
            if r["inner"] == ident[edges[r["outer"]][r["slot"]]]
        ]
        out = []
        for number, i in enumerate(rng.sample(range(len(rows)), self.drops)):
            r = rows[i]
            key = (r["outer"], r["slot"], r["inner"])
            bad = dict(doc, graft=rows[:i] + rows[i + 1:])
            path = put(f"drop{number}.op2cat.json", ser.dumps(bad))
            out.append(Command(["validate", path], "verdict", 1,
                               f"op2cat: 1 violation(s)\n  totality {key!r} "
                               "in-bound graft has no table entry\n"))
        for number, i in enumerate(rng.sample(right_unit, self.swaps)):
            r = rows[i]
            key = (r["outer"], r["slot"], r["inner"])
            other = rng.choice([c for c in niche[tuple(edges[r["outer"]])] if c != r["result"]])
            graft = list(rows)
            graft[i] = dict(r, result=other)
            path = put(f"swap{number}.op2cat.json", ser.dumps(dict(doc, graft=graft)))
            line = f"  right unit {key!r} grafting an identity must not change the cell"
            out.append(Command(["validate", path], "verdict", 1, None, _violation_listing(line)))
        return out

    def run_pass(self, lib, commands: list[Command], probe: SpeedProbe) -> Pass:
        p = Pass(probe)
        for cmd in commands:
            with p.guard(" ".join(cmd.argv[:1])):
                stdout, stderr = io.StringIO(), io.StringIO()

                def call():
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        return lib.cli.main(cmd.argv)

                code = p.timed(cmd.kind, call)
                text = stdout.getvalue()
                ok = code == cmd.code and not stderr.getvalue()
                ok = ok and (text == cmd.stdout if cmd.accept is None else cmd.accept(text))
                if ok and cmd.writes is not None:
                    ok = _read(cmd.writes[0]) == cmd.writes[1]
                p.check(ok, f"opetokit {' '.join(cmd.argv)}: exit {code}, "
                            f"stdout {text[:200]!r}, stderr {stderr.getvalue()[:200]!r}")
        return p
