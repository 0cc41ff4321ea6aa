"""The exact store-set domain (`store_domain.StoreSetDomain`) plugged into
the analysis through the `StateDomain` contract alone, on the corpus and on
random programs.

At every point of every program, in both modes, its assertion holds every
store the interleaving oracle reaches there, and lies inside γ of the
shipped domains' assertions: the exact analysis is sound, and the shipped
domains over-approximate it. The programs are the corpus and `randprog`
seeds 1–20 at 2 and 3 threads over 2–3 variables. Next to both domains at
their defaults, the powerset also runs at disjunct caps 2 and 1 and at `n`
0 and 1, which lose precision but must stay above the exact result. On the
corpus those lose precision at some point in 18 of its 64 coarse cells; the
random programs are small, and only cap 1 loses any there, in 4 of 80."""

import pytest

from condwrites import engine
from condwrites.corpus import CASES, MODES
from condwrites.engine import AnalysisConfig, analyse, render_text
from condwrites.oracle import default_universe, explore

from randprog import random_program
from store_domain import StoreSetDomain

DEFAULTS = [dict(domain="const"), dict(domain="const-powerset")]
COARSE = [dict(domain="const-powerset", max_disjuncts=2),
          dict(domain="const-powerset", max_disjuncts=1),
          dict(domain="const-powerset", n=0),
          dict(domain="const-powerset", n=1)]


def assert_sound_and_below(monkeypatch, program, mode, configs):
    universe = default_universe(program)
    shipped = [analyse(program, AnalysisConfig(mode=mode, **config))
               for config in configs]
    monkeypatch.setattr(engine, "make_domain",
                        lambda kind, variables, *_: StoreSetDomain(variables, universe))
    exact = analyse(program, AnalysisConfig(mode=mode))
    assert exact.converged and isinstance(exact.domain, StoreSetDomain)

    report = explore(program, universe)
    assert not report.bounded
    for (tid, point), reached in report.reachable.items():
        assert reached <= exact.outlines[tid][point], (tid, point)
    for tid, outline in exact.outlines.items():
        for point, stores in outline.items():
            for config, result in zip(configs, shipped):
                d = result.outlines[tid][point]
                outside = [s for s in stores
                           if not result.domain.contains(d, exact.domain.env(s))]
                assert not outside, (config, tid, point, outside[:3])
    return exact


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_store_sets_are_sound_and_below_both_domains(monkeypatch, case, mode):
    exact = assert_sound_and_below(monkeypatch, case.load(), mode, DEFAULTS + COARSE)
    # the report lays out a third domain's elements, and --ascii translates
    # them exactly
    assert render_text(exact, ascii_only=True).isascii()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("seed", range(1, 21))
def test_store_sets_on_random_programs_are_below_coarse_domains(
        monkeypatch, seed, threads, mode):
    assert_sound_and_below(monkeypatch, random_program(seed, threads, (2, 3)), mode,
                           DEFAULTS + COARSE)
