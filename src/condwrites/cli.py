"""Command-line front end.

Exit codes of `analyze`: 0 verified, 1 not verified, 2 analysis/parse/config
error or resource limit, 3 oracle soundness violations. `run_analyze` reads
the file, then parses, analyses and (under --check-oracle) explores and
checks in one `try`, whose one handler turns every error and resource
limit, outer non-convergence included, into exit 2 with an `error:` line.
Exit codes of `bench`: 0 every cell reproduced its frozen verdict, 1 a cell
errored, its verdict drifted or it did not converge, 2 unknown --case name.
Both commands exit 2 with an `error:` line when stdout's reader closes
before the report is written out (`main` flushes stdout to find out).
`bench` reports verdicts and ops; timing lives in `perfbench`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .lang import LangError, parse_program
from .engine import MODES, AnalysisConfig, analyse, render_text, to_machine
from .domains import DOMAINS, UniverseTooLarge
from .interference import FuelExhausted
from .oracle import UniverseEscape, check_soundness, explore
from . import corpus


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="condwrites",
        description="Thread-modular rely-guarantee analyzer for a small concurrent language",
    )
    sub = p.add_subparsers(dest="command", required=True)
    defaults = AnalysisConfig()

    a = sub.add_parser("analyze", help="analyze a program file")
    a.add_argument("input", help="program file")
    a.set_defaults(run=run_analyze)
    a.add_argument("--domain", choices=DOMAINS, default=defaults.domain)
    a.add_argument("--mode", choices=MODES, default=defaults.mode)
    a.add_argument("--n", type=int, default=defaults.n,
                   help="stabilise precision bound (default: number of "
                   "variables); no effect on const, whose stabilise is "
                   "closed form")
    a.add_argument("--rely-vars", action="append", default=[], metavar="THREAD=v1,v2",
                   help="override the rely variable set of a thread")
    a.add_argument("--emit", choices=["text", "machine"], default="text")
    a.add_argument("--check-oracle", action="store_true",
                   help="run the interleaving oracle and verify outline soundness")
    a.add_argument("--max-disjuncts", type=int, default=defaults.max_disjuncts)
    a.add_argument("--fuel-inner", type=int, default=defaults.fuel_inner,
                   help="bound on the steps of each non-transitive "
                   "stabilisation, steps answered from a memo included, on "
                   "the rounds of each rely's close and on the passes of "
                   "each loop")
    a.add_argument("--fuel-outer", type=int, default=defaults.fuel_outer,
                   help="bound on the outer fixpoint's rely derivations, one "
                   "per thread taken off its worklist")
    a.add_argument("--ascii", action="store_true",
                   help="use |->, top, bot instead of unicode glyphs")

    b = sub.add_parser("bench", help="run the benchmark corpus; exit 1 if a "
                       "cell errors, its verdict drifts or it does not "
                       "converge")
    b.set_defaults(run=run_bench)
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
    report, violations = None, []
    try:
        program = parse_program(text)
        config = AnalysisConfig(
            mode=args.mode,
            domain=args.domain,
            n=args.n,
            rely_vars=_parse_rely_vars(args.rely_vars) or None,
            max_disjuncts=args.max_disjuncts,
            fuel_inner=args.fuel_inner,
            fuel_outer=args.fuel_outer,
        )
        result = analyse(program, config)
        if not result.converged:
            raise FuelExhausted("outer fixpoint did not converge within fuel")
        if args.check_oracle:
            report = explore(program)
            violations = check_soundness(result, report)
    except (LangError, FuelExhausted, ValueError, UniverseEscape, UniverseTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.emit == "machine":
        payload = to_machine(result)
        if report:
            payload.update(report.to_machine())
            payload["violations"] = [str(v) for v in violations]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        sys.stdout.write(render_text(result, ascii_only=args.ascii))
        if report:
            print(f"oracle: {len(report.reachable)} points explored, "
                  f"bounded={report.bounded}, violations={len(violations)}")
            for v in violations:
                print(f"  {v}")
    return 3 if violations else (0 if result.verdict == "verified" else 1)


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
    try:
        args = build_parser().parse_args(argv)
        code = args.run(args)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # stdout's reader closed early. Point stdout at devnull, so that the
        # interpreter's flush at exit has nowhere left to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: standard output closed: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
