"""Frozen analyzer output for every corpus program in every domain/mode cell.

Compares `to_machine` (without `time_s`) and `render_text` (without its
`time_s:` line), ops and stats included, against `golden/corpus_outputs.json`.
A change that alters outlines, relies, guarantees, op accounting or the run
counters under `stats` must regenerate the file on purpose and report the
difference (every cell's ops and their total, every changed `stats` field of
each cell and each field's total, the cells that changed besides ops and
stats, and the criterion-6 count before and after):

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from condwrites.corpus import CASES, DOMAINS, MODES, nt_cheaper_cells
from condwrites.engine import AnalysisConfig, analyse, render_text, to_machine

GOLDEN = Path(__file__).parent / "golden" / "corpus_outputs.json"
CELLS = [(case, domain, mode)
         for case in CASES for domain in DOMAINS for mode in MODES]


def cell_key(case, domain, mode) -> str:
    return f"{case.name}/{domain}/{mode}"


def cell_output(case, domain, mode) -> dict:
    result = analyse(case.load(), AnalysisConfig(mode=mode, domain=domain))
    machine = to_machine(result)
    del machine["time_s"]
    text = "".join(line for line in render_text(result).splitlines(keepends=True)
                   if not line.startswith("time_s:"))
    return {"machine": machine, "text": text}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_cell(golden):
    assert set(golden) == {cell_key(*cell) for cell in CELLS}


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: cell_key(*c))
def test_output_matches_golden(golden, cell):
    assert cell_output(*cell) == golden[cell_key(*cell)]


def without_counts(output: dict) -> dict:
    machine = {k: v for k, v in output["machine"].items()
               if k not in ("ops", "stats")}
    text = "".join(line for line in output["text"].splitlines(keepends=True)
                   if not line.startswith("ops:"))
    return {"machine": machine, "text": text}


def ops_rows(doc: dict) -> list[dict]:
    """The golden cells as `corpus.run_suite`-style rows carrying ops."""
    rows = []
    for key, output in doc.items():
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
    doc = {cell_key(*cell): cell_output(*cell) for cell in CELLS}
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
    for name in stats(doc, next(iter(doc))):
        before_total, after_total = (sum(stats(d, key).get(name, 0) for key in d)
                                     for d in (old, doc))
        print(f"corpus stats.{name} total: {before_total} -> {after_total}")
    before_nt, after_nt = (nt_cheaper_cells(ops_rows(d)) for d in (old, doc))
    print("non-transitive mode needs fewer ops (criterion 6): "
          f"{before_nt[0]}/{before_nt[1]} -> {after_nt[0]}/{after_nt[1]} cells")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True, ensure_ascii=False)
                      + "\n", encoding="utf-8")
