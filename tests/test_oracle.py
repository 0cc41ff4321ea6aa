import itertools

import pytest

from condwrites import corpus
from condwrites.domains import (
    CM_BOT, UNIVERSE_CAP, ConstDomain, Universe, UniverseTooLarge, cm_make,
)
from condwrites.engine import EXIT, AnalysisConfig, analyse
from condwrites.lang import EvalOverflow, control_flow, parse_program
from condwrites.oracle import (
    Budget, OracleReport, UniverseEscape, check_soundness, default_universe, explore,
)

from randprog import random_program
from reference_oracle import (
    check_soundness as reference_check_soundness, explore as reference_explore,
)
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
    res.outlines["T0"][1] = cm_make({"r": 7})  # claim something false
    bad = check_soundness(res, rep)
    assert bad and all(v.tid == "T0" and v.point == 1 for v in bad)
    assert "outside outline assertion" in str(bad[0])

    res2 = analyse(p, AnalysisConfig())
    res2.outlines["T1"][EXIT] = CM_BOT  # exit is definitely reachable
    assert any(v.point == EXIT for v in check_soundness(res2, rep))


def test_check_soundness_raises_on_a_point_without_assertion():
    # every reached point needs an outline assertion: a report with a thread
    # the analysis has no outline for, or a point missing from an outline,
    # is a mismatch between analysis and report, not a sound result
    one = parse_program("vars x; thread T0 { x := 1; }")
    two = parse_program("vars x; thread T0 { x := 1; } thread T9 { x := 0; }")
    res = analyse(one, AnalysisConfig())
    with pytest.raises(KeyError, match="T9"):
        check_soundness(res, explore(two))
    rep = explore(one)
    assert check_soundness(res, rep) == []
    del res.outlines["T0"][1]
    with pytest.raises(KeyError, match="^1$"):
        check_soundness(res, rep)


def test_check_soundness_lists_violations_in_report_order():
    # claims that fail at three points of two threads: the violations list
    # thread by thread, point by point, as the report lists them
    p = parse_program(FLAGGED)
    rep = explore(p)
    res = analyse(p, AnalysisConfig())
    res.outlines["T0"][1] = cm_make({"x": 0})
    res.outlines["T0"][EXIT] = cm_make({"x": 1})
    res.outlines["T1"][2] = cm_make({"x": 1})
    assert [(v.tid, v.point, v.state) for v in check_soundness(res, rep)] == [
        ("T0", EXIT, (0, 0, 0)),
        ("T0", EXIT, (0, 1, 0)),
        ("T0", 1, (1, 0, 1)),
        ("T0", 1, (1, 1, 0)),
        ("T0", 1, (1, 0, 0)),
        ("T0", 1, (1, 1, 1)),
        ("T1", 2, (0, 1, 0)),
        ("T1", 2, (0, 1, 1)),
    ]


def test_explore_builds_each_graph_once(monkeypatch):
    # one control-flow graph per thread, `Thread.flow`, serves the
    # universe's literals, the guard and the search, and a second
    # exploration of the same program builds none
    from condwrites import lang

    built = []
    real = lang.control_flow

    def counted(body):
        built.append(body)
        return real(body)

    monkeypatch.setattr(lang, "control_flow", counted)
    p = parse_program(FLAGGED)
    assert built == []
    explore(p)
    explore(p)
    assert built == [t.body for t in p.threads]


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
    "state_cut": {"budget": Budget(max_states=10)},
    "step_cut": {"budget": Budget(max_steps=30)},
}


def canonical(report):
    """`report` rebuilt in the canonical order: threads in program order
    (the order in which the reference first records them), points ascending
    with EXIT first, and stores by index, each set filled in that order."""
    u = report.universe
    domains = [u.domain_of(v) for v in u.var_order]
    tids = list(dict.fromkeys(tid for tid, _ in report.reachable))

    def index(store):
        return tuple(vals.index(n) for vals, n in zip(domains, store))

    def point_order(item):
        (tid, pt), _ = item
        return tids.index(tid), 0 if pt == EXIT else pt

    reachable = {key: set(sorted(states, key=index))
                 for key, states in sorted(report.reachable.items(), key=point_order)}
    return OracleReport(u, reachable, set(sorted(report.exit_states, key=index)),
                        report.bounded)


def assert_identical(got, want, where):
    """Equal fields, and the same order in every dict and set."""
    assert got.universe == want.universe, where
    assert got.bounded == want.bounded, where
    assert got.reachable == want.reachable, where
    assert got.exit_states == want.exit_states, where
    # the same order per point, so soundness violations list alike
    for key, states in want.reachable.items():
        assert list(got.reachable[key]) == list(states), (where, key)
    assert list(got.reachable) == list(want.reachable), where
    assert list(got.exit_states) == list(want.exit_states), where


def assert_same_report(got, want, where):
    """`got` is the reference's report `want`, in the canonical order."""
    assert_identical(got, canonical(want), where)


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
    # uncut, most three-thread programs take the bitset search
    bounded = 0
    for seed, threads in itertools.product(range(1, 401), (2, 3)):
        p = random_program(seed, threads=threads)
        got = explore(p, **SETTINGS[setting])
        assert_same_report(got, reference_explore(p, **SETTINGS[setting]), (seed, threads))
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
    # 8^7 stores exceed the cap, although `pre` pins every variable
    names = [f"v{i}" for i in range(7)]
    p = parse_program(f"vars {', '.join(names)}; pre {' && '.join(f'{v} == 0' for v in names)};"
                      "thread T { v0 := 1; }")
    u = Universe.of({v: range(8) for v in names})
    assert u.size() > UNIVERSE_CAP
    with pytest.raises(UniverseTooLarge):
        explore(p, u)


# -- the two searches --------------------------------------------------------------


@pytest.fixture
def searches(monkeypatch):
    """The names of the searches that `explore` runs, in call order."""
    from condwrites import oracle

    ran = []
    for name in ("_saturate", "_breadth_first"):
        def spy(*args, _real=getattr(oracle, name), _name=name):
            ran.append(_name)
            return _real(*args)

        monkeypatch.setattr(oracle, name, spy)
    return ran


def configs(p):
    """The number of (program counters, store) configurations of p."""
    n = default_universe(p).size()
    for t in p.threads:
        n *= len(control_flow(t.body).stmts)
    return n


def test_searches_agree_below_the_guard(searches, monkeypatch):
    # with the shape check forced on, every corpus and random program takes
    # the bitset search under the default budget; a budget of exactly
    # `configs` states cannot cut the breadth-first search either, so the
    # two must report the same
    from condwrites import oracle

    monkeypatch.setattr(oracle, "_bitsets_pay", lambda size, points: True)
    programs = [(case.name, parse_program((corpus.PROGRAMS_DIR / case.filename).read_text()))
                for case in corpus.CASES]
    programs += [(seed, random_program(seed)) for seed in range(1, 401)]
    programs += [((seed, 3), random_program(seed, threads=3)) for seed in range(1, 401)]
    programs += [((seed, 4), random_program(seed, threads=4)) for seed in range(1, 101)]
    for where, p in programs:
        searches.clear()
        fast = explore(p)
        slow = explore(p, budget=Budget(max_states=configs(p)))
        assert searches == ["_saturate", "_breadth_first"], where
        assert not slow.bounded, where
        assert_identical(fast, slow, where)


def test_searches_leave_equal_tables(monkeypatch):
    # each table's keys are its thread's (point, store) projection of the
    # reached configurations, with None at EXIT: the bitset search, which
    # sweeps no EXIT pair and reads EXIT off its final bitsets, must leave
    # the tables that breadth first, stepping every pair, leaves
    from condwrites import oracle

    left = []  # (search name, the tables it filled)
    for name in ("_saturate", "_breadth_first"):
        def spy(*args, _real=getattr(oracle, name), _name=name):
            result = _real(*args)
            left.append((_name, args[5]))
            return result

        monkeypatch.setattr(oracle, name, spy)
    monkeypatch.setattr(oracle, "_bitsets_pay", lambda size, points: True)
    programs = [(case.name, parse_program((corpus.PROGRAMS_DIR / case.filename).read_text()))
                for case in corpus.CASES]
    programs += [((seed, threads), random_program(seed, threads=threads))
                 for threads in (3, 4) for seed in range(1, 101)]
    exits = 0
    for where, p in programs:
        left.clear()
        explore(p)
        explore(p, budget=Budget(max_states=configs(p)))
        [(fast, fast_tables), (slow, slow_tables)] = left
        assert (fast, slow) == ("_saturate", "_breadth_first"), where
        assert fast_tables == slow_tables, where
        exits += sum(delta is None for table in fast_tables for delta in table.values())
    assert exits > 0


def test_explore_matches_reference_on_four_thread_programs(searches):
    # the shape of the `oracle` perfbench workload: about two in five of
    # these programs take the bitsets under the default budget
    for seed in range(1, 101):
        p = random_program(seed, threads=4)
        assert_same_report(explore(p), reference_explore(p), seed)
    assert 0 < searches.count("_saturate") < len(searches) == 100


# A keeps the store through a run of writes and a loop whose body writes
# nothing new (its back edge leads to vectors A's sweep has already stepped),
# then swaps x and y.
CHAINED = """
    vars x, y, z;
    pre x == 0 && y == 1 && z == 0;
    thread A { y := 1; z := 0; y := y; while (z == 0) { x := x; } x, y := y, x; }
    thread B { z := 1; }
    thread C { if (x == 1) { y := 0; } }
"""


def test_chained_rounds_match_reference(searches):
    # steps that keep the store are closed over in the pop that reaches
    # them, and the swap reads each store's cached environment without
    # writing to it
    p = parse_program(CHAINED)
    got = explore(p)
    assert searches == ["_saturate"]
    assert_same_report(got, reference_explore(p), "chained")
    assert got.exit_states == {(1, 0, 1)}


def assert_saturation_exact(p, searches, where):
    """The bitset search on p reports what the reference and breadth first,
    run at the budget guard, report."""
    got = explore(p)
    slow = explore(p, budget=Budget(max_states=configs(p)))
    assert searches == ["_saturate", "_breadth_first"], where
    assert_same_report(got, reference_explore(p), where)
    assert_identical(got, slow, where)
    return got


# A and C each keep the store, then change it. Store (1, 1) follows only a
# vector with both past their first step in the initial store, which C's
# closure reaches from the vector that A's closure added, not from the pop's.
JOINT = """
    vars x, y;
    pre x == 0 && y == 0;
    thread A { x := 0; y := 1; }
    thread B { skip; }
    thread C { y := 0; x := 1; }
"""


def test_saturation_composes_the_threads_store_keeping_steps(searches):
    got = assert_saturation_exact(parse_program(JOINT), searches, "joint")
    assert got.exit_states == {(0, 1), (1, 0), (1, 1)}


def test_saturation_sweeps_a_later_threads_back_edge_again(searches):
    # B's write y := 1 moves it into the loop body under a new store, where
    # the skip's back edge reaches the loop head as new vectors; only a second
    # sweep of B steps them out of the loop to x := 1
    p = parse_program("""
        vars x, y;
        pre x == 0 && y == 0;
        thread A { skip; }
        thread B { while (y == 0) { y := 1; skip; } x := 1; }
        thread C { skip; }
    """)
    got = assert_saturation_exact(p, searches, "back edge")
    assert got.exit_states == {(1, 1)}


def test_escape_behind_composed_store_keeping_steps(searches):
    # B's escaping write runs only in store (1, 1), which JOINT's A and C
    # reach only through the composition of their store-keeping steps
    p = parse_program(JOINT.replace("thread B { skip; }",
                                    "thread B { if (x == 1 && y == 1) { x := x + 2; } }"))
    errors = []
    for fn in (explore, reference_explore,
               lambda p: explore(p, budget=Budget(max_states=configs(p)))):
        with pytest.raises(UniverseEscape) as info:
            fn(p)
        errors.append(str(info.value))
    assert searches == ["_saturate", "_breadth_first", "_breadth_first"]
    assert errors == ["B:2 wrote x=3, outside the universe"] * 3


def test_same_programs_escape_as_the_reference(searches, monkeypatch):
    # over a one-value universe most writes escape: with the shape check
    # forced on, the bitset search raises on exactly the programs on which
    # the reference raises, and with the reference's message, which the
    # breadth-first replay over the same tables finds
    from condwrites import oracle

    monkeypatch.setattr(oracle, "_bitsets_pay", lambda size, points: True)
    raised = 0
    for seed, threads, values in itertools.product(range(1, 301), (3, 4), ((0,), (1,))):
        p = random_program(seed, threads=threads)
        u = Universe.of({v: values for v in p.variables})
        where = (seed, threads, values)
        outcomes = []
        for fn in (explore, reference_explore):
            try:
                outcomes.append(fn(p, u))
            except UniverseEscape as escape:
                outcomes.append(str(escape))
        if isinstance(outcomes[1], str):
            assert outcomes[0] == outcomes[1], where
            assert searches == ["_saturate", "_breadth_first"], where
            raised += 1
        else:
            assert_same_report(outcomes[0], outcomes[1], where)
            assert searches == ["_saturate"], where
        searches.clear()
    assert 0 < raised < 1200


OVERFLOWS = """
    vars x;
    thread A { skip; x := 9223372036854775807 * 2; }
    thread B { x := 9223372036854775807 * 3; }
    thread C { skip; }
"""


def test_same_overflow_as_the_reference(searches):
    # the bitset search steps B's overflowing write after A's, breadth first
    # before it: the replay over the same tables reports B's overflow, as
    # the reference and a breadth-first search cut by the budget do
    p = parse_program(OVERFLOWS)
    messages = []
    for fn in (explore, reference_explore,
               lambda p: explore(p, budget=Budget(max_states=10))):
        with pytest.raises(EvalOverflow) as overflow:
            fn(p)
        messages.append(str(overflow.value))
    assert messages == ["integer overflow: 27670116110564327421"] * 3
    assert searches == ["_saturate", "_breadth_first", "_breadth_first"]


THREE = """
    vars x, y;
    pre x == 0 && y == 0;
    thread A { x := 1; y := x; }
    thread B { y := 1; }
    thread C { if (x == 1) { y := 0; } }
"""


@pytest.mark.parametrize("field", ["max_states", "max_steps"])
def test_guard_boundary(searches, field):
    p = parse_program(THREE)
    n = configs(p) * (len(p.threads) if field == "max_steps" else 1)
    reports = [explore(p, budget=Budget(**{field: limit})) for limit in (n + 1, n)]
    assert searches == ["_saturate", "_breadth_first"]
    assert_identical(*reports, field)


def long_thread(n, threads=3):
    """A thread of n store-keeping writes, next to one that changes the store
    and, with three threads, one that skips: 4 stores, n + 5 points in all."""
    body = " ".join(["y := 0;"] * n)
    third = " thread C { skip; }" if threads == 3 else ""
    return parse_program(f"vars x, y; pre x == 0 && y == 0; "
                         f"thread A {{ {body} }} thread B {{ x := 1; }}{third}")


def test_search_follows_the_program_shape(searches):
    # two threads take breadth first, however long they are
    for case in corpus.CASES:
        explore(parse_program((corpus.PROGRAMS_DIR / case.filename).read_text()))
    explore(long_thread(2000, threads=2))
    assert searches == ["_breadth_first"] * (len(corpus.CASES) + 1)
    # three threads take the bitsets while the masks take at most 4 bits per
    # configuration: sum(P_k) = n + 5 points against 4 * 4 stores
    searches.clear()
    for n in (11, 12, 2000):
        explore(long_thread(n))
    assert searches == ["_saturate", "_breadth_first", "_breadth_first"]


def test_universe_escape_after_another_thread_changes_the_store(searches):
    # A's write escapes only once B has set y, so the bitset search must
    # step A from a store that B's step queued
    p = parse_program("""
        vars x, y;
        pre x == 0 && y == 0;
        thread A { while (y == 0) { skip; } x := x + 2; }
        thread B { y := 1; }
        thread C { skip; }
    """)
    u = Universe.of({"x": (0, 1), "y": (0, 1)})
    errors = []
    for fn in (explore, reference_explore):
        with pytest.raises(UniverseEscape) as info:
            fn(p, u)
        errors.append(str(info.value))
    assert searches == ["_saturate", "_breadth_first"]
    assert errors[0] == errors[1] == "A:3 wrote x=2, outside the universe"


def test_unreachable_universe_escape_is_not_raised(searches):
    # y stays 0, so A's escaping write is never reached and never evaluated
    p = parse_program("""
        vars x, y;
        pre y == 0;
        thread A { if (y == 1) { x := x + 2; } }
        thread B { x := 1; }
        thread C { skip; }
    """)
    u = Universe.of({"x": (0, 1), "y": (0, 1)})
    got = explore(p, u)
    assert searches == ["_saturate"]
    assert ("A", 2) not in got.reachable
    assert_same_report(got, reference_explore(p, u), "unreachable escape")


# Multi-target writes: the new store index moves by the targets alone. z sits
# between x and y in the store order, so the two targets have distinct strides.
MULTI_TARGET = {
    "swap": ("""
        vars x, z, y;
        pre x == 0 && y == 1;
        thread A { x, y := y, x; x, y := y, x; }
        thread B { x := 2; }
        thread C { y := 2; z := 1; }
    """, None),
    "keep": ("""
        vars x, z, y;
        pre x == 0 && y == 0;
        thread A { x, y := 1, x; x, y := 1, x; }
        thread B { x := 0; z := 1; }
        thread C { y := 1; }
    """, None),
    "second_escapes": ("""
        vars x, z, y;
        pre x == 1 && y == 0;
        thread A { x, y := 0, 2; }
        thread B { z := 1; }
        thread C { y := 1; }
    """, {"x": (0, 1), "z": (0, 1), "y": (0, 1)}),
}


@pytest.mark.parametrize("bitsets", [True, False], ids=["saturate", "breadth_first"])
@pytest.mark.parametrize("case", MULTI_TARGET)
def test_multi_target_writes_match_reference(searches, monkeypatch, case, bitsets):
    from condwrites import oracle

    monkeypatch.setattr(oracle, "_bitsets_pay", lambda size, points: bitsets)
    text, values = MULTI_TARGET[case]
    p = parse_program(text)
    u = Universe.of(values) if values else None
    if case == "second_escapes":
        errors = []
        for fn in (explore, reference_explore):
            with pytest.raises(UniverseEscape) as info:
                fn(p, u)
            errors.append(str(info.value))
        assert errors[0] == errors[1] == "A:1 wrote y=2, outside the universe"
        assert searches == (["_saturate", "_breadth_first"] if bitsets else ["_breadth_first"])
    else:
        assert_same_report(explore(p, u), reference_explore(p, u), case)
        assert searches == (["_saturate"] if bitsets else ["_breadth_first"])


# -- the grouped soundness check ---------------------------------------------------

CELLS = list(itertools.product(("const", "const-powerset"), ("transitive", "nontransitive")))


def soundness_programs():
    """The corpus and 100 random programs each of three and four threads."""
    programs = [(case.name, parse_program((corpus.PROGRAMS_DIR / case.filename).read_text()))
                for case in corpus.CASES]
    programs += [((seed, threads), random_program(seed, threads=threads))
                 for threads in (3, 4) for seed in range(1, 101)]
    return programs


def corrupt(res, rep, rng):
    """Set a few outline points, drawn by `rng`, to bottom or to a constant
    map that pins one variable to one universe value, which most reached
    stores break; draws repeat values, so corrupted points share them."""
    dom = res.domain
    u = rep.universe
    points = [(tid, pt) for tid, outline in res.outlines.items() for pt in outline]
    for tid, pt in rng.sample(points, min(len(points), rng.randint(1, 4))):
        if rng.random() < 0.3:
            value = dom.bot()
        else:
            v = rng.choice(u.var_order)
            m = cm_make({v: rng.choice(u.domain_of(v))})
            value = m if isinstance(dom, ConstDomain) else dom.make([m])
        res.outlines[tid][pt] = value


@pytest.mark.parametrize("domain,mode", CELLS)
def test_check_soundness_matches_reference(domain, mode):
    import random

    rng = random.Random(f"{domain}/{mode}")
    failing = 0
    for where, p in soundness_programs():
        rep = explore(p)
        res = analyse(p, AnalysisConfig(mode=mode, domain=domain))
        for stage in ("analysed", "corrupted"):
            if stage == "corrupted":
                corrupt(res, rep, rng)
            got = [(v.tid, v.point, v.state) for v in check_soundness(res, rep)]
            want = [(v.tid, v.point, v.state) for v in reference_check_soundness(res, rep)]
            assert got == want, (where, stage)
            failing += bool(want)
    assert failing > 100


def test_check_soundness_runs_contains_once_per_assertion_and_store(monkeypatch):
    # the four-thread random programs assert few distinct values at many
    # points, so grouping must save calls, and no pair may be checked twice
    saved = 0
    for seed in range(1, 21):
        p = random_program(seed, threads=4)
        rep = explore(p)
        res = analyse(p, AnalysisConfig(domain="const-powerset"))
        calls = []
        real = res.domain.contains

        def spy(d, state, _real=real):
            calls.append((d, tuple(state.items())))
            return _real(d, state)

        monkeypatch.setattr(res.domain, "contains", spy)
        check_soundness(res, rep)
        assert len(calls) == len(set(calls)), seed
        saved += sum(map(len, rep.reachable.values())) - len(calls)
    assert saved > 0
