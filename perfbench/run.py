"""Benchmark of opetokit: end-to-end timings and traced per-module numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the library from
``src/`` and reads ``docs/fixtures/``.  Workloads (closed loop, one caller,
one process, one call at a time):

    op2-z4-b4    library pipeline on the Z4 2-group at arity bound 4
    op1-family   dimension-1 pipeline over the 674 small categories
    cli-z3-b4    opetokit.cli.main on generated Z3 files, the shipped
                 fixtures, and seeded corruptions

Set-up (import of the library plus building the inputs) runs a few times
before the passes and again after each pass; its median is ``setup_s``.
Passes repeat until ``--seconds`` have gone by, so the last one ends after
that, and at least ``FEWEST_PASSES`` run.  Every result is checked against a known
answer.  Times are reported in seconds at a reference speed (``speed.py``).
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate,
the per-module metrics come from the traced ones and the spans are written to
``.perfbench/`` under the checkout.  ``DESIGN.md`` records the design.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
MODULES = ("core", "universality", "bicat", "equivalences", "serialize", "cli", "fixtures")
SETUPS_FIRST = 3  # set-ups before the first pass
FEWEST_PASSES = 3  # untraced passes in a run, however long they take
FEWEST_ROUNDS = 2  # untraced and traced pairs in a traced run
SETUP_SECONDS_BETWEEN = 0.25  # after each pass, set up again until this much time is spent

import workloads  # noqa: E402  (the benchmark's own modules, next to this file)
from spans import Tracer, write_spans  # noqa: E402
from speed import SpeedProbe, Stopwatch  # noqa: E402


WORKLOADS = {
    workloads.Op2Pipeline.name: workloads.Op2Pipeline,
    workloads.Op1Family.name: workloads.Op1Family,
    workloads.CliFiles.name: lambda: workloads.CliFiles(ROOT),
}


def import_library():
    """A fresh import of every opetokit module, as a namespace."""
    for name in [m for m in sys.modules if m == "opetokit" or m.startswith("opetokit.")]:
        del sys.modules[name]
    package = importlib.import_module("opetokit")
    lib = argparse.Namespace(package=package)
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"opetokit.{name}"))
    return lib


# ---------------------------------------------------------------------------
# tracing


def assoc_counts(X) -> tuple[int, int]:
    """Sequential-associativity triples the validator enumerates, and those
    whose composite arity stays within the bound.

    A triple pairs a graft row (b, j, c) with a row (a, i, b); both of its
    composites exist exactly when arity(a) + arity(b) + arity(c) - 2 <= bound.
    """
    arity = {cid: cell.source.arity for cid, cell in X.cells2.items()}
    outer_arities: dict[str, dict[int, int]] = {}  # b -> arity of a -> rows (a, i, b)
    inner_arities: dict[str, dict[int, int]] = {}  # b -> arity of c -> rows (b, j, c)
    for outer, _slot, inner in X.graft:
        here = outer_arities.setdefault(inner, {})
        here[arity.get(outer, 0)] = here.get(arity.get(outer, 0), 0) + 1
        here = inner_arities.setdefault(outer, {})
        here[arity.get(inner, 0)] = here.get(arity.get(inner, 0), 0) + 1
    candidates = in_bound = 0
    for b, below in inner_arities.items():
        above = outer_arities.get(b, {})
        candidates += sum(below.values()) * sum(above.values())
        for ka, na in above.items():
            for kc, nc in below.items():
                if ka + arity.get(b, 0) + kc - 2 <= X.arity_bound:
                    in_bound += na * nc
    return candidates, in_bound


def note_loads(args, kwargs, text):
    return {"serialize.bytes": len(args[0])}


def note_dumps(args, kwargs, text):
    return {"serialize.bytes": len(text)}


def note_validate_op2(args, kwargs, report):
    X = args[0]
    candidates, in_bound = assoc_counts(X)
    return {
        "core.cells2": len(X.cells2),
        "core.graft_rows": len(X.graft),
        "core.paths": workloads.paths_up_to(X.objects, X.cells1, X.arity_bound),
        "core.assoc_candidates": candidates,
        "core.assoc_in_bound": in_bound,
        "core.violations": len(report.violations),
    }


def note_validate_op1(args, kwargs, report):
    X = args[0]
    return {
        "core.paths": workloads.paths_up_to(X.objects, X.cells1, X.arity_bound),
        "core.comp_rows": len(X.comp),
        "core.violations": len(report.violations),
    }


def note_coherence(args, kwargs, report):
    return {
        "universality.niches": len(report.niche_universals),
        "universality.universal_2cells": len(report.universal_two_cells),
        "universality.universal_1cells": len(report.universal_one_cells),
    }


def note_cli(args, kwargs, code):
    return {"cli.exit_1": int(code == 1)}


def command_of(args, kwargs):
    return (args[0] if args else kwargs["argv"])[0]


TRACED = (
    # (module, function, work counts read off each call)
    ("serialize", "loads", note_loads),
    ("serialize", "from_doc", None),
    ("serialize", "to_doc", None),
    ("serialize", "dumps", note_dumps),
    ("core", "validate_op2", note_validate_op2),
    ("core", "validate_op1", note_validate_op1),
    ("universality", "check_coherence", note_coherence),
    ("universality", "is_universal_1cell_op1", None),
    ("bicat", "validate_bicategory", None),
    ("bicat", "validate_category", None),
    ("equivalences", "from_bicategory", None),
    ("equivalences", "choose_biasing", None),
    ("equivalences", "to_bicategory", None),
    ("equivalences", "validate_biasing", None),
    ("equivalences", "from_category", None),
    ("equivalences", "to_category", None),
)
COUNTS = (
    "serialize.bytes", "core.cells2", "core.graft_rows", "core.paths", "core.comp_rows",
    "core.assoc_candidates", "core.assoc_in_bound", "core.violations",
    "universality.niches", "universality.universal_2cells", "universality.universal_1cells",
    "cli.exit_1",
)
CLI_COMMANDS = ("validate", "universal", "convert", "roundtrip", "classify")


def install_tracer(lib) -> Tracer:
    tracer = Tracer()
    namespaces = [lib.package] + [getattr(lib, m) for m in MODULES]
    for module, attr, note in TRACED:
        home = getattr(lib, module)
        tracer.install([home] + namespaces, attr, f"{module}.{attr}", note=note)
    tracer.install([lib.cli], "main", "cli.main", note=note_cli, tag_of=command_of)
    return tracer


def pass_layers(tracer: Tracer, probe: SpeedProbe) -> dict[str, float]:
    """Per-module self times (at the reference speed) and work counts of one
    traced pass."""
    own = tracer.self_times(probe.scaled)
    m: dict[str, float] = {}
    for module, attr, _ in TRACED:
        m[f"{module}.{attr}_s"] = own.get(f"{module}.{attr}", 0.0)
    m["serialize.parse_s"] = m.pop("serialize.loads_s") + m.pop("serialize.from_doc_s")
    m["serialize.dump_s"] = m.pop("serialize.to_doc_s") + m.pop("serialize.dumps_s")
    by_command = dict.fromkeys(CLI_COMMANDS, 0.0)
    for command, seconds in tracer.durations("cli.main", probe.scaled, leave_out="speed.probe"):
        by_command[command] += seconds
    for command in CLI_COMMANDS:
        m[f"cli.{command}_ms"] = 1000.0 * by_command[command]
    m["cli.self_s"] = own.get("cli.main", 0.0)
    for name in COUNTS:
        m[name] = tracer.counts.get(name, 0)
    return m


# ---------------------------------------------------------------------------
# statistics


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of the listed percentiles that still
    has at least ten samples beyond it, by nearest rank."""
    ordered = sorted(samples)
    n = len(ordered)
    best = (50.0, ordered[(n - 1) // 2])
    for hundredths in (9000, 9500, 9900, 9950, 9990, 9995, 9999):
        rank = max(1, -(-n * hundredths // 10000))  # nearest rank, 1-based
        if n - rank < 10:
            break
        best = (hundredths / 100, ordered[rank - 1])
    return best


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


LAYER_UNITS = {"_s": "s", "_ms": "ms"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# main


class SetUps:
    """Timed set-ups: a fresh import of the library plus the inputs.

    The first ones run before the timed phase; more run after every pass, so
    that the median spans the whole run rather than one moment of it.
    """

    def __init__(self, workload, seed: int, workdir: str, probe: SpeedProbe):
        self.workload, self.seed, self.workdir, self.probe = workload, seed, workdir, probe
        self.watches: list[Stopwatch] = []
        self.layers: list[dict[str, Stopwatch]] = []

    def once(self):
        with Stopwatch(self.probe) as watch:
            lib = import_library()
            inputs, layer_watches = self.workload.setup(lib, self.seed, self.workdir, self.probe)
        self.watches.append(watch)
        self.layers.append(layer_watches)
        return lib, inputs

    def between_passes(self) -> None:
        start = time.perf_counter()
        self.once()
        while time.perf_counter() - start < SETUP_SECONDS_BETWEEN:
            self.once()


def run_passes(workload, setups: SetUps, probe: SpeedProbe, seconds: float, traced_too: bool):
    """Passes until ``seconds`` have gone by; with ``traced_too`` each round
    is an untraced pass followed by a traced one.

    Returns (untraced passes, traced passes, tracers of the traced passes).
    """
    for _ in range(SETUPS_FIRST):
        lib, inputs = setups.once()
    plain, traced, tracers = [], [], []
    fewest = FEWEST_ROUNDS if traced_too else FEWEST_PASSES
    start = time.perf_counter()
    while len(plain) < fewest or time.perf_counter() - start < seconds:
        gc.collect()
        this_round = [workload.run_pass(lib, inputs, probe)]
        if traced_too:
            gc.collect()
            tracer = install_tracer(lib)
            probe.tracer = tracer
            try:
                this_round.append(workload.run_pass(lib, inputs, probe))
            finally:
                probe.tracer = None
                tracer.uninstall()
            tracers.append(tracer)
            traced.append(this_round[1])
        plain.append(this_round[0])
        setups.between_passes()
        for p in this_round:  # the probe now has samples past their last call
            p.finish()
    return plain, traced, tracers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "opetokit", "__init__.py")):
        print(f"error: no opetokit sources under {ROOT}/src", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "docs", "fixtures")):
        print(f"error: no docs/fixtures under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workload = WORKLOADS[args.workload]()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    probe = SpeedProbe()
    probe.start()
    try:
        setups = SetUps(workload, args.seed, workdir, probe)
        plain, traced, tracers = run_passes(
            workload, setups, probe, args.seconds, traced_too=bool(args.trace))
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    for p in plain + traced:
        print(f"pass: {p.wall:.3f} s wall, {p.total:.3f} s at reference speed", file=sys.stderr)
    print(f"speed factor {probe.factor():.4f} over {len(probe.samples)} probe samples; "
          f"{len(plain) + len(traced)} passes, {len(setups.watches)} set-ups", file=sys.stderr)

    attempted = sum(p.attempted for p in plain + traced)
    failed = sum(p.failed for p in plain + traced)
    med = statistics.median

    def scaled(watch: Stopwatch) -> float:
        return probe.scaled(watch.start, watch.end, watch.seconds)

    if not args.trace:
        metrics = {
            "setup_s": metric(med(scaled(w) for w in setups.watches), "s"),
            "total_s": metric(med(p.total for p in plain), "s"),
            "verdict_s": metric(med(p.verdict for p in plain), "s"),
            "convert_s": metric(med(p.convert for p in plain), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        layers = [pass_layers(tracer, probe) for tracer in tracers]
        metrics = {}
        for name, first in layers[0].items():
            if layer_unit(name) != "count":
                metrics[name] = metric(med(pl[name] for pl in layers), layer_unit(name))
                continue
            metrics[name] = metric(first, "count")
            if any(pl[name] != first for pl in layers):
                print(f"warning: count {name} differs between traced passes", file=sys.stderr)
        family = [scaled(sl["fixtures.family_s"]) for sl in setups.layers if sl]
        metrics["fixtures.family_s"] = metric(med(family) if family else 0.0, "s")
        items = [x for p in plain for x in p.items]
        pct, value = tail(items) if items else (0.0, 0.0)
        metrics["item_ms.p50"] = metric(1000.0 * med(items) if items else 0.0, "ms")
        metrics["item_ms.tail"] = metric(1000.0 * value, "ms")
        metrics["item_ms.tail_pct"] = metric(pct, "%")
        metrics["item_ms.samples"] = metric(len(items), "count")
        metrics["trace.overhead_s"] = metric(
            med(p.total for p in traced) - med(p.total for p in plain), "s")
        metrics["speed.factor"] = metric(probe.factor(), "x")
        trace_file = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}.jsonl")
        write_spans(trace_file, [tracer.spans for tracer in tracers])
        print(f"spans written to {trace_file}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
