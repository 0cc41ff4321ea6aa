"""Benchmark corpus and a harness running every domain/mode combination."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .lang import Program, parse_program
from .domains import DOMAINS
from .engine import MODES, AnalysisConfig, analyse

PROGRAMS_DIR = Path(__file__).parent / "programs"


@dataclass(frozen=True)
class BenchCase:
    name: str
    filename: str
    # expected verdict per (domain, mode); regression goldens, derived by
    # running this implementation and frozen afterwards
    expected: dict = field(hash=False, default_factory=dict)

    def load(self) -> Program:
        return parse_program((PROGRAMS_DIR / self.filename).read_text())


def _expect(*verdicts: str) -> dict:
    """Expected verdicts in cell order: const nontransitive, const transitive,
    const-powerset nontransitive, const-powerset transitive."""
    cells = [(d, m) for d in DOMAINS for m in MODES]
    return dict(zip(cells, verdicts, strict=True))


V, N = "verified", "notVerified"

CASES = (
    BenchCase("flagged_write", "flagged_write.cw", _expect(V, V, V, V)),
    BenchCase("branch_choice", "branch_choice.cw", _expect(N, N, V, V)),
    BenchCase("reset_race", "reset_race.cw", _expect(N, N, V, N)),
    BenchCase("spin_gate", "spin_gate.cw", _expect(N, N, V, N)),
    # property holds concretely (oracle-checked) but is beyond the
    # abstraction: write conditions say nothing about written values
    BenchCase("mutex_flags", "mutex_flags.cw", _expect(N, N, N, N)),
    BenchCase("ripple_chain", "ripple_chain.cw", _expect(V, V, V, V)),
    BenchCase("gate_chain", "gate_chain.cw", _expect(N, N, V, N)),
    BenchCase("staged_observer", "staged_observer.cw", _expect(V, V, V, V)),
)

CSV_COLUMNS = ("name", "domain", "mode", "verdict", "ops", "converged")


def run_suite(cases=CASES) -> list[dict]:
    rows = []
    for case in cases:
        program = case.load()
        for domain in DOMAINS:
            for mode in MODES:
                row = {"name": case.name, "domain": domain, "mode": mode}
                try:
                    result = analyse(program, AnalysisConfig(mode=mode, domain=domain))
                    row.update(verdict=result.verdict, ops=result.metrics.ops,
                               converged=result.converged)
                except Exception as exc:  # record per-cell failures, don't abort
                    row.update(verdict=f"error: {exc}", ops=-1, converged=False)
                rows.append(row)
    return rows


def nt_cheaper_cells(rows: list[dict]) -> tuple[int, int]:
    """How many program/domain cells need fewer ops in non-transitive mode
    than in transitive mode, and how many cells are compared: those whose
    two modes both ran and converged. An errored row has ops -1 and
    converged False, so it never counts as cheaper."""
    ops = {(r["name"], r["domain"], r["mode"]): r["ops"]
           for r in rows if r["converged"]}
    cells = {(n, d) for n, d, _ in ops
             if (n, d, "nontransitive") in ops and (n, d, "transitive") in ops}
    cheaper = sum(1 for n, d in cells
                  if ops[(n, d, "nontransitive")] < ops[(n, d, "transitive")])
    return cheaper, len(cells)


def verdict_drift(rows: list[dict], cases=CASES) -> list[str]:
    """One message per row whose verdict, or error, differs from the frozen
    expected verdict of its case, or whose analysis did not converge (its
    notVerified is then a fuel cut, not a reproduced verdict)."""
    expected = {c.name: c.expected for c in cases}
    out = []
    for r in rows:
        cell = f"{r['name']} {r['domain']} {r['mode']}"
        want = expected[r["name"]][(r["domain"], r["mode"])]
        if r["verdict"] != want:
            out.append(f"{cell}: expected {want}, got {r['verdict']}")
        elif not r["converged"]:
            out.append(f"{cell}: did not converge")
    return out


def render_table(rows: list[dict]) -> str:
    header = f"{'program':<16}{'domain':<16}{'mode':<16}{'verdict':<13}{'ops':>8}  conv"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['name']:<16}{r['domain']:<16}{r['mode']:<16}{r['verdict']:<13}"
            f"{r['ops']:>8}  {r['converged']}"
        )
    return "\n".join(lines) + "\n"


def render_csv(rows: list[dict]) -> str:
    import csv
    import io

    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    w.writeheader()
    for r in rows:
        w.writerow({k: r[k] for k in CSV_COLUMNS})
    return buf.getvalue()
