"""The exact store-set domain (`store_domain.StoreSetDomain`) plugged into
the analysis through the `StateDomain` contract alone, on the corpus.

At every point of every corpus program, in both modes, its assertion holds
every store the interleaving oracle reaches there, and lies inside γ of the
const and the default powerset assertions: the exact analysis is sound, and
the two shipped domains over-approximate it."""

import pytest

from condwrites import engine
from condwrites.corpus import CASES, MODES
from condwrites.engine import AnalysisConfig, analyse, render_text
from condwrites.oracle import default_universe, explore

from store_domain import StoreSetDomain


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_store_sets_are_sound_and_below_both_domains(monkeypatch, case, mode):
    program = case.load()
    universe = default_universe(program)
    shipped = [analyse(program, AnalysisConfig(mode=mode, domain=domain))
               for domain in ("const", "const-powerset")]
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
            for result in shipped:
                d = result.outlines[tid][point]
                outside = [s for s in stores
                           if not result.domain.contains(d, exact.domain.env(s))]
                assert not outside, (result.config.domain, tid, point, outside[:3])
    # the report lays out a third domain's elements, and --ascii translates
    # them exactly
    assert render_text(exact, ascii_only=True).isascii()
