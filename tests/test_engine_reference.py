"""Differential test of `engine.analyse` against the outer loop that
re-collects every thread in every Jacobi round, driving the collecting pass
that threaded the guarantee through every statement
(`reference_engine.analyse` and `reference_engine.collect`).

`engine.analyse` pops threads off one FIFO worklist: a thread's rely is
derived from the newest guarantees only after another thread's guarantee
changed, and the thread is re-collected only when that rely changed; each
guarantee is derived from the final proof outline. It must give the same
outlines, relies, guarantees, verdict and convergence, in no more collects
than the reference runs, one per thread in each round. Rely derivation and
collection are monotone, so chaotic and Jacobi iteration reach the same
least fixpoint (Cousot & Cousot, POPL 1977); the powerset cap is the one
non-monotone step, and caps 2 and 1 are where the cells show that it does
not change the values either. Chaotic iteration can form relies that the
Jacobi rounds never form, so one cell can cost more ops than the reference;
summed over each config's cells, ops must not exceed the reference's. The
test prints how many cells cost more and the largest rise. Deriving a rely
joins the other threads' guarantees, so only a thread with two or more
other threads pays lattice operations for it: the 3-thread programs are
where skipped derivations show in ops. The random programs at nesting
depth 3 and the nested loops of `test_engine.nested_loops` re-enter inner
loops, whose last run `engine.collect` reuses when the entry state repeats
and the reference re-runs.

`ConstPowersetDomain.stabiliser(i)` answers a miss by `stabilise_plan`, the
fused pass over i's write-set plan at the domain's n, which builds terms
only for the heads of the plan's groups and caps its result once. Whole
analyses whose misses run the cap-once spec instead, the enumeration over
every write set of the same plan on an uncapped copy of the domain and one
cap, must give the same `--emit machine` output, ops and collapses
included, at precisions n below |V| (where the coarse term runs) and at
caps 2 and 1, which collapse results.

The cap used to fire inside every meet and join of the enumeration. That
placement stays as the precision reference: whole analyses whose misses
walk the plan through the capped domain must give the same outlines,
relies, guarantees and verdicts, and, where it collapses nothing, the same
`--emit machine` output, ops included."""

import collections

import pytest

from condwrites.corpus import CASES
from condwrites.domains import ConstPowersetDomain
from condwrites.engine import AnalysisConfig, analyse, to_machine
from condwrites.lang import parse_program

from randprog import random_program
from test_engine import chain_text, nested_loops
import reference_engine
import reference_interference

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
    **{f"depth3-seed{seed}": (lambda seed=seed: random_program(seed, depth=3))
       for seed in range(1, 401)},
    **{f"4threads-depth3-seed{seed}":
       (lambda seed=seed: random_program(seed, threads=4, depth=3))
       for seed in range(1, 101)},
    **{f"nested{depth}-{shape}":
       (lambda depth=depth, shape=shape: parse_program(nested_loops(depth, shape)))
       for depth in range(1, 7) for shape in ("plain", "reset", "marked")},
}


def observed(result) -> dict:
    return {
        "outlines": result.outlines,
        "relies": result.relies,
        "guarantees": result.guarantees,
        "verdict": result.verdict,
        "converged": result.converged,
    }


@pytest.mark.parametrize("config", CONFIGS,
                         ids=lambda c: f"{c.domain}-{c.max_disjuncts}-{c.mode}")
def test_collect_matches_reference(config):
    ops = collections.Counter()
    rises = []
    for name, load in PROGRAMS.items():
        p = load()
        ours, ref = analyse(p, config), reference_engine.analyse(p, config)
        assert observed(ours) == observed(ref), name
        assert ours.metrics.collects <= (
            ref.metrics.outer_iterations * len(p.threads)), name
        ops["ours"] += ours.metrics.ops
        ops["ref"] += ref.metrics.ops
        if ours.metrics.ops > ref.metrics.ops:
            rises.append(ours.metrics.ops - ref.metrics.ops)
    print(f"{config.domain}-{config.max_disjuncts}-{config.mode}: "
          f"ops {ops['ref']} -> {ops['ours']}; {len(rises)} of "
          f"{len(PROGRAMS)} cells cost more, by at most {max(rises, default=0)}")
    assert ops["ours"] <= ops["ref"], ops


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


@pytest.mark.parametrize("n,cap", [(None, 64), (1, 64), (0, 64), (None, 2),
                                   (1, 2), (0, 2), (None, 1)])
def test_fused_stabilise_matches_enumeration_end_to_end(n, cap, monkeypatch):
    fused = ConstPowersetDomain.stabilise_plan
    runs = collections.Counter()

    def recording(self, d, plan):
        collapses = self.cap_collapses
        out = fused(self, d, plan)
        runs["capped"] += self.cap_collapses - collapses
        runs["coarse"] += bool(plan[1])  # the plan's coarse (n+1)-sets
        return out

    configs = [AnalysisConfig(domain="const-powerset", mode=mode, n=n,
                              max_disjuncts=cap)
               for mode in ("nontransitive", "transitive")]
    programs = {name: load() for name, load in FUSED_PROGRAMS.items()}
    monkeypatch.setattr(ConstPowersetDomain, "stabilise_plan", recording)
    ours = {(name, c.mode): machine(p, c)
            for name, p in programs.items() for c in configs}
    monkeypatch.setattr(ConstPowersetDomain, "stabilise_plan",
                        reference_interference.stabilise_over_plan)
    for name, p in programs.items():
        for c in configs:
            assert ours[name, c.mode] == machine(p, c), (name, c.mode)
    # caps 2 and 1 collapse results in this sample, except at n = 0, where
    # one coarse havoc over every feasible variable leaves few maps; the
    # coarse term runs at n < |V|
    assert (runs["capped"] > 0) == (cap < 64 and n != 0), runs
    assert (runs["coarse"] > 0) == (n is not None), runs


PRECISION_PROGRAMS = {
    **FUSED_PROGRAMS,
    **{f"chain{k}x{t}": (lambda k=k, t=t: parse_program(chain_text(k, t)))
       for k in (5, 6, 7) for t in (2, 3)},
}


@pytest.mark.parametrize("cap", [64, 8, 2])
def test_cap_once_matches_old_placement(cap, monkeypatch):
    # the corpus, 100 two-thread and 100 three-thread random programs and
    # chain K = 5..7 on 2 and 3 threads, in both modes
    configs = [AnalysisConfig(domain="const-powerset", mode=mode,
                              max_disjuncts=cap)
               for mode in ("nontransitive", "transitive")]
    programs = {name: load() for name, load in PRECISION_PROGRAMS.items()}
    ours = {(name, c.mode): machine(p, c)
            for name, p in programs.items() for c in configs}
    monkeypatch.setattr(ConstPowersetDomain, "stabilise_plan",
                        reference_interference.stabilise_walk)
    cells = collections.Counter()
    for name, p in programs.items():
        for c in configs:
            got, want = ours[name, c.mode], machine(p, c)
            for key in ("verdict", "converged", "threads"):
                assert got[key] == want[key], (name, c.mode, key)
            if want["stats"]["cap_collapses"] == 0:
                cells["no collapse"] += 1
                assert got == want, (name, c.mode)
            else:
                cells["collapsed"] += 1
    # the old placement collapses in some cells below cap 64, not at it
    assert (cells["collapsed"] > 0) == (cap < 64), cells
