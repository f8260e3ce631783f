"""Command line front end.

    opetokit validate FILE [--kind K] [--format text|json]
    opetokit universal FILE (--cell ID | --all) [--direct-niche-search] [--format text|json]
    opetokit convert FILE --to {bicat,opic} [--arity-bound M] [--seedless-tiebreak] [--out PATH]
    opetokit roundtrip FILE [--arity-bound M]
    opetokit classify SOURCE TARGET MORPHISM

Exit codes: 0 clean, 1 validation or classification negative, 2 parse or
I/O error (a stdout closed by its reader included).  ``classify`` exits 0
for strict and weak verdicts and 1 for lax (a universal occupant exists
whose image is not universal); it validates both structures and the
morphism first and, on violations, prints the first failing report as
``validate`` does and exits 1.
The environment variable OPETOKIT_ARITY_BOUND overrides the default bound 4.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import serialize
from .bicat import validate_bicategory, validate_category
from .core import validate_op1, validate_op2
from .equivalences import (
    choose_biasing,
    classify_morphism,
    from_bicategory,
    from_category,
    to_bicategory,
    to_category,
    validate_op_morphism,
)
from .errors import OpetokitError, ParseError, UnknownKind, UsageError
from .universality import check_coherence, is_universal_2cell

Result = tuple[dict, list[str], int]  # what a command returns: payload, text lines, exit code


def _bound(args) -> int:
    if args.arity_bound is not None:
        bound = args.arity_bound
    else:
        raw = os.environ.get("OPETOKIT_ARITY_BOUND", "4")
        try:
            bound = int(raw)
        except ValueError:
            raise UsageError(f"OPETOKIT_ARITY_BOUND must be an integer, got {raw!r}") from None
    if bound < 0:
        raise UsageError(f"the arity bound must not be negative, got {bound}")
    return bound


def _load(filename: str):
    """A file's ``(kind, structure, biasing)``; the biasing is the one an
    op2cat file stores, and ``None`` for every other file."""
    doc = serialize.load_path(filename)
    obj = serialize.from_doc(doc)
    return (doc["kind"], *obj) if doc["kind"] == "op2cat" else (doc["kind"], obj, None)


def _report(kind: str, report) -> Result:
    """A validator's report as a command result: payload, text lines, exit code."""
    violations, lines = [], []
    for v in report.violations:
        violations.append({"rule": v.rule, "witness": list(v.witness), "message": v.message})
        lines.append(f"  {v.rule} {tuple(v.witness)}{f' {v.message}' if v.message else ''}")
    head = f"{kind}: ok" if report.ok else f"{kind}: {len(violations)} violation(s)"
    payload = {"kind": kind, "ok": report.ok, "violations": violations}
    return payload, [head, *lines], 0 if report.ok else 1


def cmd_validate(args) -> Result:
    kind, obj, _ = _load(args.file)
    if args.kind and args.kind != kind:
        raise UnknownKind(f"file is {kind!r}, asked to validate as {args.kind!r}")
    if kind == "laxfunctor":
        raise UnknownKind("validating a laxfunctor needs its endpoint bicategories; "
                          "use the library call validate_lax_functor")
    validators = {"category": validate_category, "bicategory": validate_bicategory,
                  "op1cat": validate_op1, "op2cat": validate_op2}
    if kind not in validators:
        raise UnknownKind(f"no validator for kind {kind!r}")
    return _report(kind, validators[kind](obj))


def cmd_universal(args) -> Result:
    kind, X, _ = _load(args.file)
    if kind != "op2cat":
        raise UnknownKind("universality checks need an op2cat file")
    validity = validate_op2(X)
    if not validity.ok:
        return _report(kind, validity)
    if args.cell is not None:
        verdict = is_universal_2cell(X, args.cell)
        payload = {"kind": kind, "ok": verdict, "cell": args.cell,
                   "universal": verdict, "violations": []}
        line = f"{args.cell}: {'universal' if verdict else 'non-universal'}"
        return payload, [line], 0 if verdict else 1
    report = check_coherence(X, direct_niche_search=args.direct_niche_search)
    cells = {cid: cid in report.universal_two_cells for cid in sorted(X.cells2)}
    payload, _, code = _report(kind, report)
    payload.update(cells=cells, universal_one_cells=sorted(report.universal_one_cells))
    lines = [f"{cid}: {'universal' if ok else 'non-universal'}" for cid, ok in cells.items()]
    return payload, [*lines, f"coherence: {report}"], code


def _default_out(filename: str, new_kind: str) -> str:
    base = filename[:-5] if filename.endswith(".json") else filename
    return f"{base}.{new_kind}.json"


_PARTNER = {"category": "op1cat", "op1cat": "category", "bicategory": "op2cat", "op2cat": "bicategory"}


def _across(kind: str, structure, biasing, bound: int):
    """The structure's partner of kind ``_PARTNER[kind]`` and the biasing of the
    op2cat end: generated from a bicategory, or the one an op2cat structure is
    converted with, ``choose_biasing``'s when ``biasing`` is None."""
    if kind == "category":
        return from_category(structure, bound), None
    if kind == "bicategory":
        return from_bicategory(structure, bound)
    if kind == "op1cat":
        return to_category(structure), None
    biasing = choose_biasing(structure) if biasing is None else biasing
    return to_bicategory(structure, biasing), biasing


def cmd_convert(args) -> Result:
    kind, obj, biasing = _load(args.file)
    bound = _bound(args)
    if kind not in _PARTNER or _PARTNER[kind].startswith("op") != (args.to == "opic"):
        side = "opetopic" if args.to == "opic" else "classical"
        raise UnknownKind(f"cannot convert {kind!r} to the {side} side")
    out = serialize.to_doc(*_across(kind, obj, None if args.seedless_tiebreak else biasing, bound))
    target = args.out or _default_out(args.file, out["kind"])
    try:
        serialize.save_path(target, out)
    except OSError as exc:
        raise UsageError(f"cannot write {target}: {exc}") from None
    return {"kind": out["kind"], "ok": True, "out": target}, [target], 0


def cmd_roundtrip(args) -> Result:
    kind, obj, biasing = _load(args.file)
    bound = _bound(args)
    if kind not in _PARTNER:
        raise UnknownKind(f"cannot roundtrip kind {kind!r}")
    image, biasing = _across(kind, obj, biasing, bound)
    back_bound = getattr(obj, "arity_bound", bound)  # an opetopic file keeps its own bound
    back = _across(_PARTNER[kind], image, biasing, back_bound)
    # the same answer as comparing documents: every structure here holds its
    # objects sorted, and a document is its structure's tables sorted
    if back == (obj, biasing):
        return {"kind": kind, "ok": True, "differences": []}, ["roundtrip: identical"], 0
    diffs = _doc_diff(serialize.to_doc(obj, biasing), serialize.to_doc(*back))
    lines = [f"roundtrip: {len(diffs)} difference(s)", *(f"  {d}" for d in diffs[:20])]
    return {"kind": kind, "ok": False, "differences": diffs}, lines, 1


def _doc_diff(a: dict, b: dict, prefix: str = "") -> list[str]:
    out = []
    for key in sorted(set(a) | set(b)):
        here = f"{prefix}.{key}" if prefix else str(key)
        if key not in a:
            out.append(f"{here}: only in result")
        elif key not in b:
            out.append(f"{here}: only in original")
        elif isinstance(a[key], dict) and isinstance(b[key], dict):
            out.extend(_doc_diff(a[key], b[key], here))
        elif isinstance(a[key], list) and isinstance(b[key], list) and a[key] != b[key]:
            rows_a = {json.dumps(r, sort_keys=True) for r in a[key]}
            rows_b = {json.dumps(r, sort_keys=True) for r in b[key]}
            changed = rows_a ^ rows_b
            sample = sorted(changed)[0] if changed else ""
            out.append(f"{here}: {len(changed)} row(s) differ, e.g. {sample}")
        elif a[key] != b[key]:
            out.append(f"{here}: {a[key]!r} != {b[key]!r}")
    return out


def cmd_classify(args) -> Result:
    kind_x, X, b = _load(args.source)
    kind_y, Y, b2 = _load(args.target)
    kind_f, morphism, _ = _load(args.morphism)
    if kind_x != "op2cat" or kind_y != "op2cat" or kind_f != "opmorphism":
        raise UnknownKind("classify needs two op2cat files and one opmorphism file")
    for kind, validate, inputs in (("op2cat", validate_op2, (X,)), ("op2cat", validate_op2, (Y,)),
                                   ("opmorphism", validate_op_morphism, (morphism, X, Y))):
        report = validate(*inputs)
        if not report.ok:
            return _report(kind, report)
    b = choose_biasing(X) if b is None else b
    b2 = choose_biasing(Y) if b2 is None else b2
    result = classify_morphism(morphism, X, Y, b, b2)
    code = 0 if result.verdict in ("strict", "weak") else 1
    payload = {"kind": "opmorphism", "ok": code == 0, "verdict": result.verdict,
               "witness": list(result.witness)}
    return payload, [str(result)], code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opetokit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the validator matching a file's kind")
    p.add_argument("file")
    p.add_argument("--kind", choices=serialize.KINDS)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("universal", help="universality verdicts and coherence summary")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cell")
    group.add_argument("--all", action="store_true")
    p.add_argument("--direct-niche-search", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=cmd_universal)

    p = sub.add_parser("convert", help="convert between opetopic and classical files")
    p.add_argument("file")
    p.add_argument("--to", required=True, choices=("bicat", "opic"))
    p.add_argument("--arity-bound", type=int)
    p.add_argument("--seedless-tiebreak", action="store_true",
                   help="ignore any stored biasing and re-choose lexicographically")
    p.add_argument("--out")
    p.set_defaults(run=cmd_convert)

    p = sub.add_parser("roundtrip", help="convert there and back, diff the tables")
    p.add_argument("file")
    p.add_argument("--arity-bound", type=int)
    p.set_defaults(run=cmd_roundtrip)

    p = sub.add_parser("classify", help="strict / weak / lax verdict for a morphism")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("morphism")
    p.set_defaults(run=cmd_classify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use: parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command and write its result, the only output on stdout: the
    payload as JSON under ``--format json``, its text lines otherwise."""
    args = _parser().parse_args(argv)
    try:
        payload, lines, code = args.run(args)
    except (ParseError, UnknownKind, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OpetokitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    as_json = getattr(args, "format", "text") == "json"
    try:
        print(json.dumps(payload, indent=2, sort_keys=True) if as_json else "\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:  # the reader is gone; the exit-time flush must not fail again
        with contextlib.suppress(OSError, ValueError):  # a stdout with no descriptor
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
