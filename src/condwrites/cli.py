"""Command-line front end.

Exit codes of `analyze`: 0 verified, 1 not verified, 2 analysis/parse/config
error or resource limit, 3 oracle soundness violations.
Exit codes of `bench`: 0 every cell reproduced its frozen verdict, 1 a cell
errored, its verdict drifted or it did not converge, 2 unknown --case name.
`bench` reports verdicts and ops; timing lives in `perfbench`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .lang import LangError, parse_program
from .engine import AnalysisConfig, analyse, render_text, to_machine
from .domains import UniverseTooLarge
from .interference import FuelExhausted
from .oracle import Budget, UniverseEscape, check_soundness, explore
from . import corpus


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="condwrites",
        description="Thread-modular rely-guarantee analyzer for a small concurrent language",
    )
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="analyze a program file")
    a.add_argument("input", help="program file")
    a.add_argument("--domain", choices=["const", "const-powerset"], default="const")
    a.add_argument("--mode", choices=["transitive", "nontransitive"],
                   default="nontransitive")
    a.add_argument("--n", type=int, default=None,
                   help="stabilise precision bound (default: number of "
                   "variables); no effect on const, whose stabilise is "
                   "closed form")
    a.add_argument("--rely-vars", action="append", default=[], metavar="THREAD=v1,v2",
                   help="override the rely variable set of a thread")
    a.add_argument("--emit", choices=["text", "machine"], default="text")
    a.add_argument("--check-oracle", action="store_true",
                   help="run the interleaving oracle and verify outline soundness")
    a.add_argument("--max-disjuncts", type=int, default=64)
    a.add_argument("--fuel-inner", type=int, default=1000)
    a.add_argument("--fuel-outer", type=int, default=1000)
    a.add_argument("--ascii", action="store_true",
                   help="use |->, top, bot instead of unicode glyphs")

    b = sub.add_parser("bench", help="run the benchmark corpus; exit 1 if a "
                       "cell errors, its verdict drifts or it does not "
                       "converge")
    b.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    b.add_argument("--case", action="append", default=[], metavar="NAME",
                   help="restrict to a named corpus program (repeatable)")
    return p


def _parse_rely_vars(specs: list[str]) -> dict[str, frozenset[str]]:
    out: dict[str, frozenset[str]] = {}
    for spec in specs:
        if "=" not in spec:
            raise ValueError(f"bad --rely-vars value {spec!r}, expected THREAD=v1,v2")
        tid, _, names = spec.partition("=")
        tid = tid.strip()
        if tid in out:
            raise ValueError(f"--rely-vars for thread {tid!r} given twice")
        out[tid] = frozenset(n.strip() for n in names.split(",") if n.strip())
    return out


def run_analyze(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: {args.input} is not valid UTF-8: {exc}", file=sys.stderr)
        return 2
    try:
        program = parse_program(text)
        overrides = _parse_rely_vars(args.rely_vars) if args.rely_vars else None
        config = AnalysisConfig(
            mode=args.mode,
            domain=args.domain,
            n=args.n,
            rely_vars=overrides,
            max_disjuncts=args.max_disjuncts,
            fuel_inner=args.fuel_inner,
            fuel_outer=args.fuel_outer,
        )
        result = analyse(program, config)
        if not result.converged:
            print("error: outer fixpoint did not converge within fuel", file=sys.stderr)
            return 2
    except (LangError, FuelExhausted, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    violations = None
    report = None
    if args.check_oracle:
        try:
            report = explore(program, budget=Budget())
            violations = check_soundness(result, report)
        except (LangError, UniverseEscape, UniverseTooLarge) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.emit == "machine":
        payload = to_machine(result)
        if report is not None:
            payload.update(report.to_machine())
            payload["violations"] = [str(v) for v in violations]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        sys.stdout.write(render_text(result, ascii_only=args.ascii))
        if report is not None:
            print(f"oracle: {len(report.reachable)} points explored, "
                  f"bounded={report.bounded}, violations={len(violations or [])}")
            for v in violations or []:
                print(f"  {v}")

    if violations:
        return 3
    return 0 if result.verdict == "verified" else 1


def run_bench(args) -> int:
    unknown = sorted(set(args.case) - {c.name for c in corpus.CASES})
    if unknown:
        print(f"error: no such case: {', '.join(unknown)}", file=sys.stderr)
        return 2
    cases = tuple(c for c in corpus.CASES if not args.case or c.name in args.case)
    rows = corpus.run_suite(cases)
    if args.csv:
        sys.stdout.write(corpus.render_csv(rows))
    else:
        sys.stdout.write(corpus.render_table(rows))
        cheaper, cells = corpus.nt_cheaper_cells(rows)
        print(f"\nnon-transitive mode needs fewer lattice ops in "
              f"{cheaper}/{cells} program/domain cells")
    drift = corpus.verdict_drift(rows, cases)
    for line in drift:
        print(f"error: {line}", file=sys.stderr)
    return 1 if drift else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "analyze":
        return run_analyze(args)
    if args.command == "bench":
        return run_bench(args)
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
