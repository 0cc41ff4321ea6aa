"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from condwrites import corpus, domains, engine  # noqa: E402

WORKLOADS = ("corpus", "chain", "oracle")


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _run_inprocess(capsys, tmp_path, workload: str, trace: int = 0):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace), "--tiny", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_declared_metric(capsys, tmp_path, workload, trace):
    code, result, out = _run_inprocess(capsys, tmp_path, workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared
    printed = {line.split()[0]: line.split()[-1]
               for line in out.splitlines() if line.startswith("  ")}
    assert all(printed.get(name) == unit for name, unit in declared.items())
    if trace:
        # the wrappers are gone once the run ends
        assert engine.analyse.__module__ == "condwrites.engine"
        assert "filter" not in vars(domains.ConstDomain)
        assert (tmp_path / f"trace-{workload}-5.jsonl").stat().st_size > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ops_repeat_exactly_across_runs(workload):
    ops = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "9",
             "--seconds", "0", "--trace", "0", "--tiny"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        ops.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["ops"]["value"])
    assert ops[0] == ops[1] > 0


def test_planted_wrong_verdict_fails_the_run(capsys, tmp_path, monkeypatch):
    flip = {"verified": "notVerified", "notVerified": "verified"}
    first = corpus.CASES[0]
    wrong = dataclasses.replace(
        first, expected={cell: flip[v] for cell, v in first.expected.items()})
    monkeypatch.setattr(corpus, "CASES", (wrong,) + corpus.CASES[1:])
    code, result, _ = _run_inprocess(capsys, tmp_path, "corpus")
    assert code == 1
    assert not result["correct"] and result["failed"] == len(first.expected)


def test_planted_exception_fails_the_run(capsys, tmp_path, monkeypatch):
    real = engine.analyse

    def analyse(program, config=None):
        if config.domain == "const-powerset" and config.mode == "transitive":
            raise RuntimeError("planted")
        return real(program, config)

    monkeypatch.setattr(engine, "analyse", analyse)
    code, result, _ = _run_inprocess(capsys, tmp_path, "chain")
    assert code == 1
    assert not result["correct"] and result["failed"] == 1


def test_without_analyzer_sources_exits_nonzero_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
