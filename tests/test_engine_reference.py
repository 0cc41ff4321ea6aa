"""Differential test of `engine.analyse` against the outer loop that
re-collects every thread every round, driving the collecting pass that
threaded the guarantee through every statement (`reference_engine.analyse`
and `reference_engine.collect`).

Skipping a thread whose rely did not change, and deriving each guarantee
from the final proof outline, must give the same outlines, relies,
guarantees, verdict, convergence and outer rounds, and never cost more
ops."""

import pytest

from condwrites.corpus import CASES
from condwrites.engine import AnalysisConfig, analyse

from randprog import random_program
import reference_engine

CONFIGS = [
    AnalysisConfig(domain=domain, mode=mode, max_disjuncts=cap)
    for mode in ("nontransitive", "transitive")
    for domain, cap in (("const", 64), ("const-powerset", 64),
                        ("const-powerset", 2), ("const-powerset", 1))
]
PROGRAMS = {
    **{case.name: case.load for case in CASES},
    **{f"seed{seed}": (lambda seed=seed: random_program(seed))
       for seed in range(1, 401)},
}


def observed(result) -> dict:
    return {
        "outlines": {tid: (o.pre, o.post, o.exit)
                     for tid, o in result.outlines.items()},
        "relies": result.relies,
        "guarantees": result.guarantees,
        "verdict": result.verdict,
        "converged": result.converged,
        "outer_iterations": result.metrics.outer_iterations,
    }


@pytest.mark.parametrize("config", CONFIGS,
                         ids=lambda c: f"{c.domain}-{c.max_disjuncts}-{c.mode}")
def test_collect_matches_reference(config):
    for name, load in PROGRAMS.items():
        p = load()
        ours, ref = analyse(p, config), reference_engine.analyse(p, config)
        assert observed(ours) == observed(ref), name
        assert ours.metrics.ops <= ref.metrics.ops, name
