"""Command-line front end: parse, classify, correspond, verify, corpus."""

from __future__ import annotations

import argparse
import json
import sys

from .syntax import (
    ParseError, eliminate_iff, parse_inequality, print_formula, props_of,
)
from .semantics import (
    FRAME_CAP, Ineq, enumerate_frames, frame_valid, print_statement,
    valuation_blocks,
)
from .sahlqvist import (
    critical_branches, find_order_type, is_epsilon_sahlqvist,
    is_excellent_branch, parse_order_type,
)
from .alba import AlbaFailure, run_alba
from .fol import (
    as_json, correspondent, emit_fo, holds_on_frame, simplify,
)


class UsageError(Exception):
    """A malformed option; `main` reports it on stderr with exit 2."""


def _read_input(args) -> str:
    if args.formula is not None:
        return args.formula
    with open(args.file, encoding="utf-8") as fh:
        return fh.read().strip()


def _parse_ineq(args) -> Ineq:
    lhs, rhs = parse_inequality(_read_input(args))
    return Ineq(lhs, rhs)


def _order_type(args):
    if args.order_type is None:
        return None
    try:
        return parse_order_type(args.order_type)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _check_max_worlds(args):
    if not 1 <= args.max_worlds <= FRAME_CAP:
        raise UsageError(f"--max-worlds must be in 1..{FRAME_CAP}")


def cmd_parse(args) -> int:
    ineq = _parse_ineq(args)
    print(f"lhs: {print_formula(ineq.lhs)}")
    print(f"rhs: {print_formula(ineq.rhs)}")
    return 0


def cmd_classify(args) -> int:
    ineq = _parse_ineq(args)
    override = _order_type(args)
    if override is not None:
        eps = override if is_epsilon_sahlqvist(ineq, override) else None
    else:
        eps = find_order_type(ineq)
    report = {"sahlqvist": eps is not None, "order_type": eps,
              "variables": {}}
    names = props_of(ineq.lhs) | props_of(ineq.rhs)
    for side, sign in ((ineq.lhs, "+"), (ineq.rhs, "-")):
        side = eliminate_iff(side)
        for both in (dict.fromkeys(names, "1"), dict.fromkeys(names, "d")):
            for name, branch in critical_branches(side, sign, both):
                labels = [f"{s}{row.label}" for row, s in branch]
                entry = report["variables"].setdefault(name, [])
                entry.append({"sign": sign, "branch": labels,
                              "excellent": is_excellent_branch(branch)})
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        verdict = "sahlqvist" if eps is not None else "not sahlqvist"
        print(verdict)
        if eps is not None:
            ot = ", ".join(f"{k}={v}" for k, v in sorted(eps.items())) or "(empty)"
            print(f"order type: {ot}")
        for name, entries in sorted(report["variables"].items()):
            for e in entries:
                flag = "excellent" if e["excellent"] else "not excellent"
                print(f"  {name} ({e['sign']} side): "
                      f"[{', '.join(e['branch'])}] {flag}")
    return 0 if eps is not None else 1


def _write_trace(args, trace):
    if getattr(args, "trace", None):
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump([s.as_dict() for s in trace], fh, indent=2)
            fh.write("\n")


def cmd_correspond(args) -> int:
    ineq = _parse_ineq(args)
    result = run_alba(ineq, _order_type(args))
    _write_trace(args, result.trace)
    if isinstance(result, AlbaFailure):
        print(f"failure ({result.stage}): {result.reason}")
        return 1
    fo = correspondent(result.quasis)
    if args.format == "json":
        out = {"order_type": result.order_type,
               "quasis": [print_statement(q) for q in result.quasis],
               "fo": as_json(fo)}
        print(json.dumps(out, indent=2))
    else:
        ot = ", ".join(f"{k}={v}" for k, v in sorted(result.order_type.items()))
        print(f"order type: {ot or '(empty)'}")
        for q in result.quasis:
            print(print_statement(q))
        print(emit_fo(fo, args.format))
    return 0


def _classes(max_worlds: int):
    """Per world count up to max_worlds, the list of one frame per
    isomorphism class as (frame, orbit), in enumeration order; orbit counts
    the labelled frames of the class."""
    for n in range(1, max_worlds + 1):
        yield list(enumerate_frames(n))


def _check(ineq: Ineq, fo, classes):
    """Yield (frame, orbit, input valid, correspondent holds) for each
    (frame, orbit) of each list in classes, whose frames share one size.
    Both verdicts are the same on every frame of a class.  The simplified
    correspondent (no free names) and the layout are built once per list."""
    vars = sorted(props_of(ineq.lhs) | props_of(ineq.rhs))
    sentence = simplify(fo)
    for size in classes:
        holds = holds_on_frame([frame for frame, _ in size], sentence)
        layout = valuation_blocks(size[0][0].n, vars)
        for k, (frame, orbit) in enumerate(size):
            yield (frame, orbit, frame_valid(frame, ineq, layout),
                   bool(holds >> k & 1))


def cmd_verify(args) -> int:
    ineq = _parse_ineq(args)
    _check_max_worlds(args)
    result = run_alba(ineq, _order_type(args))
    if isinstance(result, AlbaFailure):
        print(f"failure ({result.stage}): {result.reason}")
        return 1
    # classes come in ascending order of their least edge mask, and a FAIL
    # holds on a whole class, so the first FAIL is at the least labelled
    # failing frame
    checked = 0
    for frame, orbit, lhs, rhs in _check(ineq, correspondent(result.quasis),
                                         _classes(args.max_worlds)):
        if lhs != rhs:
            print(f"FAIL at n={frame.n}; edges={sorted(frame.r0)}: "
                  f"input valid={lhs}, correspondent={rhs}")
            return 1
        checked += orbit
    print(f"PASS over {checked} frames (n <= {args.max_worlds})")
    return 0


def load_corpus(path):
    entries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            label = None
            if line.startswith("name:"):
                rest = line[len("name:"):].strip().split(None, 1)
                if len(rest) != 2:
                    msg = f"line {lineno}: name prefix without a formula"
                    raise ValueError(msg)
                label, line = rest
            try:
                lhs, rhs = parse_inequality(line)
            except ParseError as exc:
                msg = f"line {lineno}: {exc}"
                raise ValueError(msg) from exc
            entries.append((label or line, Ineq(lhs, rhs)))
    return entries


def cmd_corpus(args) -> int:
    try:
        entries = load_corpus(args.file)
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    _check_max_worlds(args)
    classes = list(_classes(args.max_worlds))  # drawn once for every entry
    all_ok = True
    for label, ineq in entries:
        result = run_alba(ineq)
        if isinstance(result, AlbaFailure):
            if result.stage == "classify":
                print(f"{label:30} not-sahlqvist")
            else:
                print(f"{label:30} alba-failure: {result.reason}")
            all_ok = False
            continue
        ok = all(lhs == rhs for _, _, lhs, rhs in
                 _check(ineq, correspondent(result.quasis), classes))
        status = "verified" if ok else "MISMATCH"
        all_ok = all_ok and ok
        ot = ",".join(f"{k}={v}"
                      for k, v in sorted(result.order_type.items())) or "-"
        print(f"{label:30} {status}  order-type: {ot}")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sabcorr",
        description="Sahlqvist correspondence for sabotage modal logic")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p, file_only=False):
        if not file_only:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--formula")
            group.add_argument("--file")
        else:
            p.add_argument("--file", required=True)

    p = sub.add_parser("parse", help="parse and echo an inequality")
    add_input(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("classify", help="Sahlqvist classification")
    add_input(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--order-type", help="override, e.g. p=1,q=d")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("correspond", help="compute the FO correspondent")
    add_input(p)
    p.add_argument("--format", choices=["text", "json", "tptp"],
                   default="text")
    p.add_argument("--order-type")
    p.add_argument("--trace", help="write the derivation trace as JSON")
    p.set_defaults(func=cmd_correspond)

    p = sub.add_parser("verify",
                       help="check the correspondent against brute force")
    add_input(p)
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("--order-type")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("corpus", help="batch-run a corpus file")
    add_input(p, file_only=True)
    p.add_argument("--max-worlds", type=int, default=3)
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, UsageError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except RecursionError:
        print("input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
