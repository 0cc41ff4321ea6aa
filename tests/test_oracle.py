import pytest

from condwrites import corpus
from condwrites.domains import CM_BOT, Universe, UniverseTooLarge, cm_make
from condwrites.engine import EXIT, AnalysisConfig, analyse
from condwrites.lang import parse_program
from condwrites.oracle import (
    Budget, UniverseEscape, check_soundness, default_universe, explore,
)

from randprog import random_program
from reference_oracle import explore as reference_explore
from test_lang import FLAGGED


def test_flagged_write_exit_states():
    p = parse_program(FLAGGED)
    rep = explore(p)
    order = rep.universe.var_order
    assert order == ("x", "z", "r")
    # every interleaving terminates with r == 0
    assert rep.exit_states and all(s[2] == 0 for s in rep.exit_states)
    assert not rep.bounded


def test_default_universe_uses_program_literals():
    p = parse_program("vars x; pre x == 5; thread T { x := 3; }")
    u = default_universe(p)
    assert u.domain_of("x") == (0, 1, 3, 5)


def test_single_thread_assign():
    p = parse_program("vars x; pre x == 0; thread T { x := 1; }")
    rep = explore(p)
    assert rep.exit_states == {(1,)}
    assert rep.reachable[("T", 1)] == {(0,)}
    assert rep.reachable[("T", EXIT)] == {(1,)}


def test_two_writers_interleave():
    p = parse_program("vars x; thread A { x := 1; } thread B { x := 2; }")
    rep = explore(p)
    # whichever writes last decides the exit value
    assert rep.exit_states == {(1,), (2,)}


def test_guard_is_one_visible_step():
    # B can overwrite z between A's guard evaluation and its then-branch
    p = parse_program("""
        vars z, w;
        pre z == 0 && w == 0;
        thread A { if (z == 0) { w := z; } }
        thread B { z := 1; }
    """)
    rep = explore(p)
    assert (1, 1) in rep.exit_states  # guard saw z=0, body read z=1


def test_loop_terminates_via_cycle_detection():
    p = parse_program("""
        vars g;
        pre g == 0;
        thread A { while (g == 0) { skip; } }
        thread B { g := 1; }
    """)
    rep = explore(p)
    assert rep.exit_states == {(1,)}
    assert not rep.bounded


def test_universe_escape():
    p = parse_program("vars x; pre x == 1; thread T { x := x + x; }")
    with pytest.raises(UniverseEscape):
        explore(p, Universe.of({"x": (0, 1)}))


def test_budget_bounds_exploration():
    p = parse_program("""
        vars x, y, z;
        thread A { x := 1; y := 1; z := 1; }
        thread B { x := 0; y := 0; z := 0; }
    """)
    rep = explore(p, budget=Budget(max_states=3, max_steps=10))
    assert rep.bounded
    with pytest.raises(ValueError):
        explore(p, budget=Budget(max_states=0))


def test_transitions_collection():
    p = parse_program("vars x; pre x == 0; thread T { x := 1; }")
    rep = explore(p, collect_transitions=True)
    assert rep.transitions == {("T", (0,), (1,))}


def test_exploration_deterministic():
    p = parse_program(FLAGGED)
    a, b = explore(p), explore(p)
    assert a.reachable == b.reachable and a.exit_states == b.exit_states


def test_check_soundness_accepts_converged_analysis():
    p = parse_program(FLAGGED)
    rep = explore(p)
    for domain in ("const", "const-powerset"):
        for mode in ("transitive", "nontransitive"):
            res = analyse(p, AnalysisConfig(mode=mode, domain=domain))
            assert check_soundness(res, rep) == []


def test_check_soundness_flags_corrupted_outline():
    p = parse_program(FLAGGED)
    rep = explore(p)
    res = analyse(p, AnalysisConfig())
    res.outlines["T0"].pre[1] = cm_make({"r": 7})  # claim something false
    bad = check_soundness(res, rep)
    assert bad and all(v.tid == "T0" and v.point == 1 for v in bad)
    assert "outside outline assertion" in str(bad[0])

    res2 = analyse(p, AnalysisConfig())
    res2.outlines["T1"].exit = CM_BOT  # exit is definitely reachable
    assert any(v.point == EXIT for v in check_soundness(res2, rep))


def test_machine_report_shape():
    rep = explore(parse_program(FLAGGED))
    m = rep.to_machine()["oracle"]
    assert m["vars"] == ["x", "z", "r"]
    assert m["bounded"] is False
    assert m["reachable_counts"]["T0@1"] > 0
    assert all(s[2] == 0 for s in m["exit_states"])


# -- differential tests against the reference explorer ---------------------------

# The two budgets each stop most random programs part way; `state_cut`
# stops every corpus program, `step_cut` all but spin_gate and mutex_flags.
SETTINGS = {
    "plain": {},
    "transitions": {"collect_transitions": True},
    "state_cut": {"budget": Budget(max_states=10)},
    "step_cut": {"budget": Budget(max_steps=30)},
}


def assert_same_report(got, want, where):
    assert got.bounded == want.bounded, where
    assert got.reachable == want.reachable, where
    assert got.exit_states == want.exit_states, where
    assert got.transitions == want.transitions, where
    # same discovery order per point, so soundness violations list alike
    for key, states in want.reachable.items():
        assert list(got.reachable[key]) == list(states), (where, key)
    for tid in {tid for tid, _ in want.reachable}:
        assert ([k for k in got.reachable if k[0] == tid]
                == [k for k in want.reachable if k[0] == tid]), (where, tid)


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("case", corpus.CASES, ids=lambda c: c.name)
def test_explore_matches_reference_on_corpus(case, setting):
    p = parse_program((corpus.PROGRAMS_DIR / case.filename).read_text())
    got = explore(p, **SETTINGS[setting])
    assert_same_report(got, reference_explore(p, **SETTINGS[setting]), case.name)
    if setting == "state_cut":
        assert got.bounded


@pytest.mark.parametrize("setting", SETTINGS)
def test_explore_matches_reference_on_random_programs(setting):
    bounded = 0
    for seed in range(1, 401):
        p = random_program(seed)
        got = explore(p, **SETTINGS[setting])
        assert_same_report(got, reference_explore(p, **SETTINGS[setting]), seed)
        bounded += got.bounded
    assert (bounded > 0) == setting.endswith("cut")


def test_explore_matches_reference_on_universe_escape():
    p = parse_program("""
        vars x, y;
        pre x == 0 && y == 0;
        thread A { x := 1; x := x + x; }
        thread B { y := 1; y := y + y; }
    """)
    errors = []
    for fn in (explore, reference_explore):
        with pytest.raises(UniverseEscape) as info:
            fn(p)
        errors.append(str(info.value))
    assert errors[0] == errors[1] == "A:2 wrote x=2, outside the universe"


# -- initial stores ----------------------------------------------------------------


@pytest.mark.parametrize("pre", [
    "x == 1 && y == 0",
    "0 == y && (x == 1 || x == 0)",
    "x == 1 && y != x",
    "x == 0 && x == 1",   # conflicting pins: no initial store
    "x == 7 && y == 0",   # a pin outside the universe: no initial store
    "!(x == 1) && y == 1",
    "x + 0 == 1 && y <= 1",
    "x == y && true",
])
def test_initial_stores_match_reference(pre):
    p = parse_program(f"vars x, y; pre {pre}; thread A {{ x := y; }} thread B {{ y := 1; }}")
    u = Universe.of({"x": (0, 1, 2), "y": (0, 1, 2)})
    assert_same_report(explore(p, u), reference_explore(p, u), pre)


def test_initial_stores_enumerate_only_pinned_stores(monkeypatch):
    # pre pins all 12 variables of a 3^12-store universe: one store is
    # enumerated and pre is evaluated on it once; no guard is ever evaluated
    from condwrites import oracle

    names = [f"v{k}" for k in range(12)]
    p = parse_program(f"vars {', '.join(names)}; "
                      f"pre {' && '.join(f'{v} == 0' for v in names)}; "
                      "thread T { v0 := 2; }")
    u = Universe.of({v: (0, 1, 2) for v in names})
    calls = []
    real = oracle.eval_cond

    def counted(c, s):
        calls.append(c)
        return real(c, s)

    monkeypatch.setattr(oracle, "eval_cond", counted)
    rep = explore(p, u)
    assert calls == [p.pre]
    assert rep.exit_states == {(2,) + (0,) * 11}


def test_initial_stores_keep_the_universe_cap():
    p = parse_program("vars x, y; pre x == 0 && y == 0; thread T { x := 1; }")
    with pytest.raises(UniverseTooLarge):
        explore(p, Universe.of({"x": range(10), "y": range(10)}, cap=50))
