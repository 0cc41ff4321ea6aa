import pytest

from condwrites.corpus import (
    CASES, CSV_COLUMNS, DOMAINS, MODES, nt_cheaper_cells, render_csv,
    render_table, run_suite,
)
from condwrites.engine import AnalysisConfig, analyse
from condwrites.oracle import check_soundness, explore


def test_every_case_covers_all_cells():
    for case in CASES:
        assert set(case.expected) == {(d, m) for d in DOMAINS for m in MODES}


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_expected_verdicts(case):
    program = case.load()
    for (domain, mode), want in case.expected.items():
        res = analyse(program, AnalysisConfig(mode=mode, domain=domain))
        assert res.converged, (case.name, domain, mode)
        assert res.verdict == want, (case.name, domain, mode)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_oracle_soundness(case):
    program = case.load()
    report = explore(program)
    assert not report.bounded
    for domain in DOMAINS:
        for mode in MODES:
            res = analyse(program, AnalysisConfig(mode=mode, domain=domain))
            assert check_soundness(res, report) == [], (case.name, domain, mode)


def test_run_suite_matches_expected():
    rows = run_suite()
    assert len(rows) == len(CASES) * 4
    by_cell = {(r["name"], r["domain"], r["mode"]): r for r in rows}
    for case in CASES:
        for (domain, mode), want in case.expected.items():
            row = by_cell[(case.name, domain, mode)]
            assert row["verdict"] == want
            assert row["converged"] and row["ops"] > 0


def test_renderers():
    rows = run_suite(cases=CASES[:1])
    table = render_table(rows)
    assert "flagged_write" in table
    csv_text = render_csv(rows)
    assert csv_text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(csv_text.strip().splitlines()) == 5


def test_nt_cheaper_cells_skips_errored_and_unconverged_cells():
    def row(name, mode, ops, converged=True):
        return {"name": name, "domain": "const", "mode": mode, "ops": ops,
                "converged": converged}

    rows = [
        row("cheaper", "nontransitive", 5), row("cheaper", "transitive", 9),
        row("dearer", "nontransitive", 9), row("dearer", "transitive", 5),
        # run_suite's row for a cell that raised: ops -1, not converged
        row("errored", "nontransitive", -1, False),
        row("errored", "transitive", 9),
        row("fuel_cut", "nontransitive", 5, False),
        row("fuel_cut", "transitive", 9),
        row("one_mode", "nontransitive", 5),
    ]
    assert nt_cheaper_cells(rows) == (1, 2)
