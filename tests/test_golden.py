"""Frozen analyzer output for every corpus program in every domain/mode cell
at the default n = |V|, and in the powerset's two modes at n = 0 and n = 1,
where the coarse term of `stabilise` runs; and the same cells of 20 seeded
programs whose guards, `pre` and `post` use `!` (`randprog.bang_text`).

Compares `to_machine` (without `time_s`) and, for the corpus, `render_text`
(without its `time_s:` line), ops and stats included, against
`golden/corpus_outputs.json`; and, for the corpus, the `--ascii` text report
against the golden text with ⊥ ⊤ ↦ spelled `bot`, `top`, `|->`.
A change that alters outlines, relies, guarantees, op accounting or the run
counters under `stats` must regenerate the file on purpose and report the
difference (every cell's ops and their total, every changed `stats` field of
each cell and each field's total, the cells that changed besides ops and
stats, and the criterion-6 count before and after):

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from dataclasses import dataclass
from pathlib import Path

import pytest

from condwrites.corpus import CASES, DOMAINS, MODES, nt_cheaper_cells
from condwrites.engine import AnalysisConfig, analyse, render_text, to_machine
from condwrites.lang import Program, parse_program

from randprog import bang_text

GOLDEN = Path(__file__).parent / "golden" / "corpus_outputs.json"
SMALL_N = (0, 1)


@dataclass(frozen=True)
class BangCase:
    """A seeded program whose conditions use `!`; its cells keep the
    machine output only."""

    seed: int

    @property
    def name(self) -> str:
        return f"bang_{self.seed}"

    def load(self) -> Program:
        return parse_program(bang_text(self.seed, 2 + self.seed % 2))


def cells(cases) -> list[tuple]:
    return ([(case, domain, mode, None)
             for case in cases for domain in DOMAINS for mode in MODES]
            + [(case, "const-powerset", mode, n)
               for case in cases for mode in MODES for n in SMALL_N])


CELLS = cells(CASES) + cells([BangCase(seed) for seed in range(1, 21)])


def cell_key(case, domain, mode, n) -> str:
    key = f"{case.name}/{domain}/{mode}"
    return key if n is None else f"{key}/n={n}"


def text_report(result, ascii_only: bool = False) -> str:
    """`render_text` without its `time_s:` line."""
    lines = render_text(result, ascii_only).splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("time_s:"))


def cell_result(case, domain, mode, n):
    return analyse(case.load(), AnalysisConfig(mode=mode, domain=domain, n=n))


def cell_output(case, result) -> dict:
    machine = to_machine(result)
    del machine["time_s"]
    if isinstance(case, BangCase):
        return {"machine": machine}
    return {"machine": machine, "text": text_report(result)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_cell(golden):
    assert set(golden) == {cell_key(*cell) for cell in CELLS}


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: cell_key(*c))
def test_output_matches_golden(golden, cell):
    result = cell_result(*cell)
    expected = golden[cell_key(*cell)]
    assert cell_output(cell[0], result) == expected
    if "text" in expected:
        # the --ascii report is the golden text with its glyphs spelled out
        ascii_text = text_report(result, ascii_only=True)
        assert ascii_text == (expected["text"].replace("⊥", "bot")
                              .replace("⊤", "top").replace("↦", "|->"))
        assert ascii_text.isascii()


def without_counts(output: dict) -> dict:
    machine = {k: v for k, v in output["machine"].items()
               if k not in ("ops", "stats")}
    text = "".join(line for line in output.get("text", "").splitlines(keepends=True)
                   if not line.startswith("ops:"))
    return {"machine": machine, "text": text}


def ops_rows(doc: dict) -> list[dict]:
    """The corpus's golden cells at the default n as `corpus.run_suite`-style
    rows carrying ops."""
    rows = []
    for key, output in doc.items():
        if "/n=" in key or key.startswith("bang_"):
            continue
        name, domain, mode = key.split("/")
        rows.append({"name": name, "domain": domain, "mode": mode,
                     "ops": output["machine"]["ops"],
                     "converged": output["machine"]["converged"]})
    return rows


def stats(doc: dict, key: str) -> dict:
    """A cell's `stats`; empty when the cell or its stats are missing."""
    return doc[key]["machine"].get("stats", {}) if key in doc else {}


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    doc = {cell_key(*cell): cell_output(cell[0], cell_result(*cell)) for cell in CELLS}
    changed = []
    for key, output in doc.items():
        before = old[key]["machine"]["ops"] if key in old else None
        print(f"{key}: ops {before} -> {output['machine']['ops']}")
        for name, after in stats(doc, key).items():
            if stats(old, key).get(name) != after:
                print(f"  stats.{name} {stats(old, key).get(name)} -> {after}")
        if key not in old or without_counts(old[key]) != without_counts(output):
            changed.append(key)
    print(f"cells whose output changed besides ops and stats: {len(changed)}")
    for key in changed:
        print(f"  {key}")
    before_ops, after_ops = (sum(row["ops"] for row in ops_rows(d))
                             for d in (old, doc))
    print(f"corpus ops total: {before_ops} -> {after_ops}")
    before_ops, after_ops = (sum(d[key]["machine"]["ops"] for key in d)
                             for d in (old, doc))
    rose = [key for key in doc
            if key in old and doc[key]["machine"]["ops"] > old[key]["machine"]["ops"]]
    print(f"ops total over all cells: {before_ops} -> {after_ops}; "
          f"cells whose ops rose: {len(rose)}")
    for key in rose:
        print(f"  {key}")
    for name in stats(doc, next(iter(doc))):
        before_total, after_total = (sum(stats(d, key).get(name, 0) for key in d)
                                     for d in (old, doc))
        print(f"stats.{name} total over all cells: {before_total} -> {after_total}")
    before_nt, after_nt = (nt_cheaper_cells(ops_rows(d)) for d in (old, doc))
    print("non-transitive mode needs fewer ops (criterion 6): "
          f"{before_nt[0]}/{before_nt[1]} -> {after_nt[0]}/{after_nt[1]} cells")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True, ensure_ascii=False)
                      + "\n", encoding="utf-8")
