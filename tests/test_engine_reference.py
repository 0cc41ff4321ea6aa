"""Differential test of `engine.analyse` against the outer loop that
re-collects every thread every round, driving the collecting pass that
threaded the guarantee through every statement (`reference_engine.analyse`
and `reference_engine.collect`).

Re-deriving a thread's rely only after another thread's guarantee changed,
re-collecting it only when that rely changed, and deriving each guarantee
from the final proof outline must give the same outlines, relies,
guarantees, verdict, convergence and outer rounds, and never cost more
ops. Deriving a rely joins the other threads' guarantees, so only a thread
with two or more other threads pays lattice operations for it: the 3-thread
programs are where skipped derivations show in ops.

The powerset `stabilise` answers a miss by `stabilise_plan`, the fused pass
over the write-set plan, when the input is within its cap bound, and by
`_stabilise_enum` otherwise. Whole analyses forced onto the enumeration must
give the same `--emit machine` output, ops included, at precisions n below
|V| (where the coarse term runs) and at a cap that sends some misses to the
enumeration."""

import collections

import pytest

from condwrites.corpus import CASES
from condwrites.domains import ConstPowersetDomain
from condwrites.engine import AnalysisConfig, analyse, to_machine

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
    **{f"3threads-seed{seed}":
       (lambda seed=seed: random_program(seed, threads=3, nvars=(3, 4)))
       for seed in range(1, 201)},
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


FUSED_PROGRAMS = {
    **{case.name: case.load for case in CASES},
    **{f"seed{seed}": (lambda seed=seed: random_program(seed))
       for seed in range(1, 101)},
    **{f"3threads-seed{seed}":
       (lambda seed=seed: random_program(seed, threads=3, nvars=(3, 4)))
       for seed in range(1, 101)},
}


def machine(program, config) -> dict:
    out = to_machine(analyse(program, config))
    del out["time_s"]
    return out


@pytest.mark.parametrize("cap", [64, 2])
@pytest.mark.parametrize("n", [None, 1, 0])
def test_fused_stabilise_matches_enumeration_end_to_end(n, cap, monkeypatch):
    fused = ConstPowersetDomain.stabilise_plan
    routes = collections.Counter()

    def recording(self, d, plan, n):
        out = fused(self, d, plan, n)
        if out is None:
            routes["enum"] += 1
        else:
            coarse = any(len(vset) > n for vset, _ in plan.values())
            routes["fused-coarse" if coarse else "fused"] += 1
        return out

    configs = [AnalysisConfig(domain="const-powerset", mode=mode, n=n,
                              max_disjuncts=cap)
               for mode in ("nontransitive", "transitive")]
    programs = {name: load() for name, load in FUSED_PROGRAMS.items()}
    monkeypatch.setattr(ConstPowersetDomain, "stabilise_plan", recording)
    ours = {(name, c.mode): machine(p, c)
            for name, p in programs.items() for c in configs}
    monkeypatch.setattr(ConstPowersetDomain, "stabilise_plan",
                        lambda self, d, plan, n: None)
    for name, p in programs.items():
        for c in configs:
            assert ours[name, c.mode] == machine(p, c), (name, c.mode)
    # cap 2 sends misses to the enumeration; the coarse term runs at n < |V|
    assert routes["fused"] > 0 and (cap == 64 or routes["enum"] > 0), routes
    assert (routes["fused-coarse"] > 0) == (n is not None), routes
