"""An analysis, an exploration and the reports leave no cyclic garbage:
everything they allocate is freed by reference counting once the caller
drops the result, so the cyclic collector never has to run for them. The
error paths are covered too: an analysis out of fuel and an exploration
that escapes its universe."""

import gc

from condwrites.corpus import CASES, DOMAINS, MODES, run_suite
from condwrites.domains import Universe
from condwrites.engine import AnalysisConfig, analyse, render_text, to_machine
from condwrites.interference import FuelExhausted
from condwrites.lang import parse_program
from condwrites.oracle import UniverseEscape, check_soundness, explore

from randprog import random_program

CAPS = (64, 2, 1)
NS = (None, 0, 1)


def _workload(programs):
    for program in programs:
        report = explore(program)
        for domain in DOMAINS:
            for mode in MODES:
                for cap in CAPS:
                    for n in NS:
                        res = analyse(program, AnalysisConfig(
                            mode=mode, domain=domain, n=n, max_disjuncts=cap))
                        assert res.converged
                        check_soundness(res, report)
                        to_machine(res)
                        render_text(res)
    run_suite()
    loop = parse_program("vars x; pre x == 0; thread T { while (x < 3) { x := x + 1; } }")
    for domain in DOMAINS:
        try:
            analyse(loop, AnalysisConfig(domain=domain, fuel_inner=1))
        except FuelExhausted:
            pass
        else:
            raise AssertionError("the loop converged in one pass")
    # the doubling escapes under breadth first alone, and with two idle
    # threads under the bitset search before its breadth-first replay
    for idle in ("", "thread B { skip; } thread C { skip; }"):
        doubling = parse_program(f"vars x; pre x == 1; thread A {{ x := x + x; }} {idle}")
        try:
            explore(doubling, Universe.of({"x": (0, 1)}))
        except UniverseEscape:
            pass
        else:
            raise AssertionError("the exploration stayed in its universe")


def test_analyses_and_explorations_leave_no_cyclic_garbage():
    programs = [case.load() for case in CASES]
    programs += [random_program(seed) for seed in range(1, 9)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        _workload(programs)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
