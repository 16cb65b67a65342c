"""Command-line front end.

Exit codes: 0 success; 1 parse or usage error; 2 precondition failure
(not in class, missing circle split, signature mismatch, an input over
one of the input budgets); 3 internal
consistency failure (non-integer trace, oracle disagreement).  All
scalars in output are exact fraction strings; no floating point is ever
printed.  A reader that closes standard output early (``| head``) cuts
the output short without an error; the exit code is still the command's
own.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .dsl import evaluate, parse
from .engine import (
    IndexReport,
    analyze,
    nonstability_demo,
    punctured_scan,
)
from .errors import (
    BadScanGrid,
    BudgetExceeded,
    ExactError,
    IndexOutOfRange,
    MissingSplit,
    NonIntegerTrace,
    NotBezout,
    NotBFredholm,
    NotCommuting,
    OracleMismatch,
    ParseError,
    SignatureMismatch,
)
from .operators import op_entry
from .scalars import format_scalar

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_INTERNAL = 3

# The sorted names of suites.SUITES, which only the verify command imports.
SUITE_NAMES = ("fedosov", "ideal", "loglaw", "powerlaw", "punctured",
               "traceaxioms", "welldefined", "windingoracle", "windows")

# Input budget of the entries command: each entry is an exact value whose
# size grows with its index.
MAX_WINDOW = 200

_PRECONDITION = (
    BadScanGrid,
    NotBFredholm,
    MissingSplit,
    SignatureMismatch,
    NotCommuting,
    NotBezout,
    IndexOutOfRange,
    BudgetExceeded,
)
_INTERNAL = (NonIntegerTrace, OracleMismatch)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _radii(text: str) -> list[Fraction]:
    try:
        return [Fraction(r.strip()) for r in text.split(",") if r.strip()]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"malformed radius list {text!r}") from None


def _trials(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="bfredholm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=["text", "json", "csv"], default="text")
        sp.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")

    sp = sub.add_parser("analyze", help="classification and index report")
    sp.add_argument("expr")
    common(sp)

    sp = sub.add_parser("index", help="bare index with its route")
    sp.add_argument("expr")
    common(sp)

    sp = sub.add_parser("entries", help="exact matrix window of one block")
    sp.add_argument("expr")
    sp.add_argument("--rows", type=int, default=8)
    sp.add_argument("--cols", type=int, default=8)
    sp.add_argument("--block", type=int, default=0)
    common(sp)

    sp = sub.add_parser("scan", help="punctured-neighborhood scan")
    sp.add_argument("expr")
    sp.add_argument("--radii", type=_radii, default="1/8,1/16,1/32", help="comma-separated rationals")
    sp.add_argument("--directions", type=int, default=8)
    common(sp)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument(
        "--suite", required=True, choices=[*SUITE_NAMES, "all"]
    )
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--trials", type=_trials, default=20)
    common(sp)

    sp = sub.add_parser("demo", help="narrative demonstrations")
    sp.add_argument("name", choices=["nonstability"])
    common(sp)
    return p


def _json(obj, **kw) -> str:
    import json  # only the --format json paths load json
    return json.dumps(obj, **kw)


def _report_dict(rep: IndexReport) -> dict:
    return {
        "classification": rep.classification,
        "index_trace": rep.index_trace,
        "index_winding": rep.index_winding,
        "quotient_index": rep.quotient_index,
        "pathway_notes": list(rep.pathway_notes),
        "defects_in_ideal": rep.defects_in_ideal,
    }


def _emit_report(rep: IndexReport, fmt: str) -> str:
    if fmt == "json":
        return _json(_report_dict(rep), indent=2)
    lines = [f"classification: {rep.classification}"]
    if rep.index_trace is not None:
        lines.append(f"index (trace route):   {rep.index_trace}")
    if rep.index_winding is not None:
        lines.append(f"index (winding route): {rep.index_winding}")
    if rep.quotient_index is not None:
        lines.append(f"witness exponent p (largest block Drazin index): {rep.quotient_index}")
    if rep.defects_in_ideal is not None:
        lines.append(f"witness defects in ideal: {rep.defects_in_ideal}")
    for note in rep.pathway_notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def cmd_analyze(args) -> tuple[int, str]:
    rep = analyze(evaluate(parse(args.expr)))
    text = _emit_report(rep, args.format)
    code = EXIT_PRECONDITION if rep.classification == "NotInClass" else EXIT_OK
    return code, text


def cmd_index(args) -> tuple[int, str]:
    rep = analyze(evaluate(parse(args.expr)))
    if rep.classification == "NotInClass":
        return EXIT_PRECONDITION, "no index: NotInClass"
    idx = rep.index_winding
    route = "trace+winding" if rep.index_trace is not None else "winding"
    if args.format == "json":
        return EXIT_OK, _json({"index": idx, "route": route})
    return EXIT_OK, f"{idx}  (route: {route})"


def cmd_entries(args) -> tuple[int, str]:
    op = evaluate(parse(args.expr))
    if not (0 <= args.block < len(op.blocks)):
        raise IndexOutOfRange(f"block {args.block} of {len(op.blocks)}")
    if args.rows < 0 or args.cols < 0:
        raise IndexOutOfRange(f"window size {args.rows}x{args.cols} is negative")
    if max(args.rows, args.cols) > MAX_WINDOW:
        raise BudgetExceeded("window side", max(args.rows, args.cols), "MAX_WINDOW", MAX_WINDOW)
    rows = [
        [format_scalar(op_entry(op, args.block, i, j)) for j in range(args.cols)]
        for i in range(args.rows)
    ]
    if args.format == "json":
        return EXIT_OK, _json({"rows": rows}, indent=2)
    return EXIT_OK, "\n".join(",".join(r) for r in rows)


def cmd_scan(args) -> tuple[int, str]:
    rep = punctured_scan(evaluate(parse(args.expr)), args.radii, args.directions)
    if args.format == "json":
        return EXIT_OK, _json(
            {
                "base_classification": rep.base_classification,
                "base_index": rep.base_index,
                "stable_radius": str(rep.stable_radius) if rep.stable_radius is not None else None,
                "samples": [
                    {
                        "lambda": format_scalar(r.lam),
                        "classification": r.classification,
                        "index": r.index,
                    }
                    for r in rep.rows
                ],
            },
            indent=2,
        )
    lines = ["lambda,classification,index"]
    for r in rep.rows:
        idx = "" if r.index is None else str(r.index)
        lines.append(f"{format_scalar(r.lam)},{r.classification},{idx}")
    return EXIT_OK, "\n".join(lines)


def cmd_verify(args) -> tuple[int, str]:
    from .suites import run_suite  # the suites load only when verify runs
    cases = run_suite(args.suite, seed=args.seed, trials=args.trials)
    lines = []
    failed = 0
    for name, ok, detail in cases:
        status = "PASS" if ok else "FAIL"
        if not ok:
            failed += 1
        lines.append(f"{status}  {name}: {detail}")
    lines.append(f"{len(cases) - failed}/{len(cases)} cases passed")
    if args.format == "json":
        body = _json(
            {
                "suite": args.suite,
                "passed": len(cases) - failed,
                "failed": failed,
                "cases": [
                    {"name": n, "passed": ok, "detail": d} for n, ok, d in cases
                ],
            },
            indent=2,
        )
        return (EXIT_OK if failed == 0 else EXIT_INTERNAL), body
    return (EXIT_OK if failed == 0 else EXIT_INTERNAL), "\n".join(lines)


def cmd_demo(args) -> tuple[int, str]:
    rows = nonstability_demo()
    if args.format == "json":
        return EXIT_OK, _json(
            {
                "samples": [
                    {
                        "lambda": format_scalar(r["lambda"]),
                        "classification": r["classification"],
                        "index": r["index"],
                    }
                    for r in rows
                ]
            },
            indent=2,
        )
    lines = [
        "T(z-1) has a symbol zero on the unit circle, so it is outside the",
        "representation class; yet every small scalar shift is Fredholm:",
        "",
        "lambda,classification,index",
    ]
    for r in rows:
        idx = "" if r["index"] is None else str(r["index"])
        lines.append(f"{format_scalar(r['lambda'])},{r['classification']},{idx}")
    lines.append("")
    lines.append("B-Fredholmness is not stable under small non-ideal perturbations.")
    return EXIT_OK, "\n".join(lines)


_COMMANDS = {
    "analyze": cmd_analyze,
    "index": cmd_index,
    "entries": cmd_entries,
    "scan": cmd_scan,
    "verify": cmd_verify,
    "demo": cmd_demo,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        code, text = _COMMANDS[args.command](args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except _INTERNAL as e:
        print(f"internal consistency failure: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except _PRECONDITION as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ExactError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed the pipe early.  Point stdout at devnull so
            # that the interpreter's final flush does not fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
