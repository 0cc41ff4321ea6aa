import collections
import itertools
import random
from functools import reduce

import pytest

from condwrites import engine
from condwrites.corpus import CASES, DOMAINS, MODES
from condwrites.domains import (
    CM_BOT, CM_TOP, ConstDomain, ConstPowersetDomain, cm_make,
)
from condwrites.engine import (
    EXIT, AnalysisConfig, analyse, check_post, collect,
    reduce_interference, rely, render_text, to_machine,
)
from condwrites.interference import CondWrites
from condwrites.lang import Assign, parse_program, statements

from randprog import random_program
import reference_engine
from test_lang import FLAGGED


def analyse_flagged(**kw):
    defaults = dict(mode="transitive", domain="const", n=3)
    defaults.update(kw)
    return analyse(parse_program(FLAGGED), AnalysisConfig(**defaults))


def test_flagged_write_golden_outlines():
    res = analyse_flagged()
    assert res.converged and res.verdict == "verified"
    dom, (t0, t1) = res.domain, res.program.threads
    o0 = res.outlines["T0"]
    assert o0[1] == CM_TOP
    assert o0[2] == cm_make({"r": 0})
    assert o0[3] == cm_make({"r": 0, "z": 0})
    assert o0[4] == cm_make({"r": 0, "z": 0, "x": 0})
    assert dom.post(t0.flow.stmts[4], o0[4]) == cm_make({"r": 0, "z": 0, "x": 0})
    # the branch join forgets z and x; the exit keeps only r
    assert o0[EXIT] == cm_make({"r": 0})
    o1 = res.outlines["T1"]
    assert o1[1] == CM_TOP
    assert o1[2] == cm_make({"z": 1})
    assert dom.post(t1.flow.stmts[2], o1[2]) == cm_make({"z": 1, "x": 1})
    assert o1[EXIT] == CM_TOP


def test_flagged_write_golden_conditions():
    res = analyse_flagged()
    # interferences are sparse: z (and T1's r) are written by nothing
    assert res.guarantees["T0"] == {
        "x": cm_make({"r": 0, "z": 0}), "r": CM_TOP}
    assert res.guarantees["T1"] == {"x": cm_make({"z": 1})}
    # T1's rely is the closure of T0's guarantee, which drops the r-binding
    assert res.relies["T1"] == {"x": cm_make({"z": 0}), "r": CM_TOP}
    assert res.relies["T0"] == res.guarantees["T1"]


def test_flagged_write_all_cells_verify():
    for domain in ("const", "const-powerset"):
        for mode in ("transitive", "nontransitive"):
            res = analyse_flagged(domain=domain, mode=mode)
            assert res.converged and res.verdict == "verified", (domain, mode)


def test_reduce_interference():
    dom = ConstDomain(("x", "z", "r"))
    cw = CondWrites(dom)
    i = {"x": cm_make({"r": 0, "z": 0}), "z": cm_make({"x": 1})}  # r: ⊥
    out = reduce_interference(cw, i, frozenset({"x", "z"}))
    # r's own condition goes to top; r is havocked from the others
    assert out == {"x": cm_make({"z": 0}), "z": cm_make({"x": 1}), "r": CM_TOP}
    # a missing write-condition outside the rely goes to top too, and one
    # inside it stays missing (⊥)
    out = reduce_interference(cw, i, frozenset({"x", "r"}))
    assert out == {"x": cm_make({"r": 0}), "z": CM_TOP}
    # with every variable relied on, nothing is havocked: each
    # write-condition is kept as it is
    out = reduce_interference(cw, i, frozenset(dom.variables))
    assert out == i and all(out[v] is i[v] for v in i)


def test_rely_joins_other_guarantees_only():
    dom = ConstDomain(("x", "z", "r"))
    cw = CondWrites(dom)
    gs = {
        "A": {"x": cm_make({"z": 0})},
        "B": {"z": cm_make({"x": 1})},
        "C": {"r": CM_TOP},
    }
    allv = frozenset({"x", "z", "r"})
    r_a = rely(cw, "A", gs, allv, transitive=False)
    assert r_a == {"z": cm_make({"x": 1}), "r": CM_TOP}
    r_c = rely(cw, "C", gs, allv, transitive=False)
    assert r_c == {"x": cm_make({"z": 0}), "z": cm_make({"x": 1})}


def test_rely_vars_override_weakens_to_top():
    res = analyse_flagged(rely_vars={"T0": frozenset()})
    # with no rely variables T0 assumes arbitrary interference everywhere
    assert res.relies["T0"] == dict.fromkeys(res.domain.variables, CM_TOP)
    assert res.verdict == "notVerified"


def test_single_thread_is_plain_constant_propagation():
    p = parse_program("""
        vars x, y;
        pre true;
        post y == 3;
        thread T { x := 1; y := x + 2; }
    """)
    res = analyse(p, AnalysisConfig())
    assert res.verdict == "verified"
    assert res.outlines["T"][EXIT] == cm_make({"x": 1, "y": 3})
    assert res.relies["T"] == {}
    # one pop builds G; no other thread reads it, so nothing is queued again
    assert res.metrics.outer_iterations == 1


def test_loop_collecting_semantics():
    p = parse_program("""
        vars x, g;
        pre x == 0 && g == 0;
        post g == 1;
        thread A { while (g == 0) { x := 1; } }
        thread B { g := 1; }
    """)
    for mode in ("transitive", "nontransitive"):
        res = analyse(p, AnalysisConfig(mode=mode))
        assert res.converged
        # g != 0 is not expressible as a constant map, so A's exit is top;
        # the verdict still holds through the meet with B's exit
        assert res.outlines["A"][EXIT] == CM_TOP
        assert res.outlines["B"][EXIT] == cm_make({"g": 1})
        assert res.guarantees["B"]["g"] == cm_make({"g": 0})
        assert res.verdict == "verified"


def nested_loops(depth: int, shape: str) -> str:
    """`depth` nested `while (x == 0)` loops around `x := 1;`, so every
    pass of a loop enters the loop inside it again. The "plain" shape and
    the "reset" one, which puts `x := 0;` before each loop, enter it from
    the same state each time. "marked" sets a fresh variable after each
    inner loop, so the second pass of a loop enters the one inside it from
    a larger state."""
    body, names = "x := 1;", ["x"]
    for k in range(depth):
        loop = f"while (x == 0) {{ {body} }}"
        if shape == "reset":
            body = f"x := 0; {loop}"
        elif shape == "marked" and k < depth - 1:
            names.append(f"z{k}")
            body = f"{loop} z{k} := 1;"
        else:
            body = loop
    pre = " && ".join(f"{v} == 0" for v in names) if shape == "marked" else "true"
    return f"vars {', '.join(names)}; pre {pre}; post true; thread A {{ {body} }}"


@pytest.mark.parametrize("shape", ["plain", "reset"])
def test_nested_loops_cost_ops_linear_in_depth(shape):
    # a loop re-entered with its last entry state takes its last exit, so
    # ops grow linearly up to the nesting bound of 398 loops, not as 2^depth
    for domain in DOMAINS:
        for mode in MODES:
            config = AnalysisConfig(mode=mode, domain=domain)
            for depth in (1, 2, 4, 8, 14, 398):
                res = analyse(parse_program(nested_loops(depth, shape)), config)
                assert res.converged and res.verdict == "verified"
                want = 3 * depth if shape == "reset" else 2 * depth - 1
                assert res.metrics.ops == want, (domain, mode, depth)


def test_marked_nested_loops_cost_ops_polynomial_in_depth():
    # each loop runs again only on its outer loop's passes whose entry grew
    for domain in DOMAINS:
        for mode in MODES:
            config = AnalysisConfig(mode=mode, domain=domain)
            for depth in (1, 2, 4, 8, 16, 40):
                res = analyse(parse_program(nested_loops(depth, "marked")), config)
                assert res.converged and res.verdict == "verified"
                assert res.metrics.ops <= depth * (depth + 1), (domain, mode, depth)


@pytest.mark.parametrize("shape", ["plain", "reset", "marked"])
def test_reused_loop_runs_match_the_reference(shape):
    # the reference collect re-runs every inner loop on every outer pass
    for domain in DOMAINS:
        for mode in MODES:
            config = AnalysisConfig(mode=mode, domain=domain)
            for depth in range(1, 7):
                p = parse_program(nested_loops(depth, shape))
                ours, ref = analyse(p, config), reference_engine.analyse(p, config)
                assert ours.outlines == ref.outlines, (domain, mode, depth)
                assert ours.guarantees == ref.guarantees, (domain, mode, depth)
                assert ours.metrics.ops <= ref.metrics.ops, (domain, mode, depth)


def test_collect_stabilises_each_point_once(monkeypatch):
    # collect looks up its rely's stabiliser once and applies it at every
    # point: count the stabiliser's applications, and the look-ups
    stab_calls, stabilisers, posts, assigns = [], [], [], []
    real_stabiliser = CondWrites.stabiliser
    real_post, real_trans = ConstDomain.post, CondWrites.transitions

    def stabiliser(self, i, transitive):
        stabilisers.append(transitive)
        stab = real_stabiliser(self, i, transitive)

        def counted(d):
            stab_calls.append(d)
            return stab(d)
        return counted

    def post(self, a, d):
        posts.append(a.label)
        return real_post(self, a, d)

    def transitions(self, d, a):
        assigns.append(a.label)
        return real_trans(self, d, a)

    monkeypatch.setattr(CondWrites, "stabiliser", stabiliser)
    monkeypatch.setattr(ConstDomain, "post", post)
    monkeypatch.setattr(CondWrites, "transitions", transitions)
    for domain in ("const", "const-powerset"):
        res = analyse_flagged(domain=domain, mode="nontransitive")
        cw = CondWrites(res.domain)
        for t in res.program.threads:
            stab_calls.clear()
            stabilisers.clear()
            collect(cw, t.body, cw.dom.top(), res.relies[t.tid], False)
            assert len(stab_calls) == len(list(statements(t.body))) + 1
            assert stabilisers == [False]

    p = parse_program("""
        vars x, g;
        pre x == 0 && g == 0;
        thread A { skip; while (g == 0) { x := 1; } }
    """)
    cw = CondWrites(ConstDomain(p.variables))
    stab_calls.clear()
    stabilisers.clear()
    posts.clear()
    assigns.clear()
    collect(cw, p.threads[0].body, cw.dom.filter(p.pre, CM_TOP), cw.bot(), False)
    assert stabilisers == [False]
    # each pass stabilises the loop head and the body's assignment once and
    # runs that assignment; the skip and the exit add one call each. The loop
    # stops once its state is stable, and the guarantee is read off the
    # outline afterwards, one transitions call per assignment
    passes = len(posts)
    assert passes == 2
    assert len(stab_calls) == 1 + 2 * passes + 1
    assert assigns == [3]


@pytest.mark.parametrize("domain,cap", [
    ("const", 64), ("const-powerset", 64), ("const-powerset", 2), ("const-powerset", 1)])
def test_guarantee_fold_matches_the_reduce_over_transitions(domain, cap):
    # collect folds each assignment's transitions into the guarantee per
    # target, in preorder: the same per-variable left fold as
    # reduce(cw.join, ...), so it adds the same value, ops and cap collapses,
    # also at caps where joins collapse and so do not associate. In `staged`
    # v is written from three pairwise incomparable states, so at cap 2 the
    # fold's second join collapses; random programs collapse only at cap 1
    staged = parse_program("""
        vars a, b, v; pre a == 0 && b == 0;
        thread T { v := 1; a := 1; v := 0; b, v := 1, 1; }
        thread U { if (v == 1) { skip; } }
    """)
    programs = [staged] + [random_program(seed, threads, (2, 3))
                           for seed in range(1, 31) for threads in (2, 3)]
    seen = collections.Counter()
    for p, mode in itertools.product(programs, MODES):
        res = analyse(p, AnalysisConfig(mode=mode, domain=domain, max_disjuncts=cap))
        dom = res.domain
        cw = CondWrites(dom)
        d_pre = dom.filter(p.pre, dom.top())
        for t in p.threads:
            counts = []  # (ops, collapses) when the fold starts

            def transitions(d, a, real=cw.transitions):
                if not counts:
                    counts.append((dom.ops, dom.cap_collapses))
                return real(d, a)

            cw.transitions = transitions
            g, outline = collect(cw, t.body, d_pre, res.relies[t.tid], mode == "transitive")
            del cw.transitions
            ops, collapses = counts[0] if counts else (dom.ops, dom.cap_collapses)
            fold = g, dom.ops - ops, dom.cap_collapses - collapses
            writes = [cw.transitions(outline[a.label], a)
                      for a in statements(t.body) if isinstance(a, Assign)]
            ops, collapses = dom.ops, dom.cap_collapses
            want = reduce(cw.join, writes, cw.bot())
            assert fold == (want, dom.ops - ops, dom.cap_collapses - collapses)
            seen["joins"] += fold[1]
            seen["collapses"] += fold[2]
    assert seen["joins"] and (cap == 64 or seen["collapses"]), seen


@pytest.mark.parametrize("mode", MODES)
def test_powerset_builds_one_plan_per_rely(monkeypatch, mode):
    # in every corpus powerset cell the write-set plan is built exactly once
    # per distinct rely stabilised under: when CondWrites first looks up
    # that rely's stabiliser, which it then keeps for the analysis
    plans, made = [], []
    real = ConstPowersetDomain._write_sets

    def counted(self, i):
        plans.append(frozenset(i.items()))
        return real(self, i)

    class Recorded(CondWrites):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            made.append(self)

    monkeypatch.setattr(ConstPowersetDomain, "_write_sets", counted)
    monkeypatch.setattr(engine, "CondWrites", Recorded)
    for case in CASES:
        plans.clear()
        made.clear()
        analyse(case.load(), AnalysisConfig(mode=mode, domain="const-powerset"))
        (cw,) = made
        assert plans, case.name
        assert len(plans) == len(cw._stabilisers), case.name
        assert set(plans) == set(cw._stabilisers), case.name


def test_check_post():
    dom = ConstDomain(("x",))
    p = parse_program("vars x; post x == 1; thread T { x := 1; }")
    assert check_post(dom, {"T": {EXIT: cm_make({"x": 1})}}, p.post) == "verified"
    assert check_post(dom, {"T": {EXIT: CM_TOP}}, p.post) == "notVerified"
    assert check_post(dom, {"T": {EXIT: CM_BOT}}, p.post) == "verified"  # unreachable exit
    # the meet across threads decides, not any single thread
    assert check_post(
        dom, {"T": {EXIT: CM_TOP}, "U": {EXIT: cm_make({"x": 1})}}, p.post) == "verified"


def test_outline_points_include_exit():
    # an outline's keys are the thread's control-flow points: every label
    # and EXIT, the keys the oracle reports reachable stores under
    programs = [case.load() for case in CASES]
    programs += [random_program(seed) for seed in range(1, 101)]
    for program in programs:
        for domain in ("const", "const-powerset"):
            for mode in ("transitive", "nontransitive"):
                res = analyse(program, AnalysisConfig(mode=mode, domain=domain))
                for t in program.threads:
                    assert set(res.outlines[t.tid]) == {
                        *range(1, len(t.flow.stmts)), EXIT}, (t.tid, domain, mode)


def test_determinism():
    a = analyse_flagged(domain="const-powerset", mode="nontransitive")
    b = analyse_flagged(domain="const-powerset", mode="nontransitive")
    assert a.metrics.ops == b.metrics.ops
    ma, mb = to_machine(a), to_machine(b)
    ma.pop("time_s"), mb.pop("time_s")
    assert ma == mb


def test_no_state_leaks_across_analyses():
    # the stabilise memo lives in one analysis' CondWrites, so a repeated
    # analysis pays full cost again and its ops do not depend on history
    other = next(c for c in CASES if c.name == "gate_chain").load()

    def machine(program):
        res = analyse(program, AnalysisConfig(mode="nontransitive",
                                              domain="const-powerset"))
        m = to_machine(res)
        m.pop("time_s")
        return m

    first = machine(parse_program(FLAGGED))
    assert machine(parse_program(FLAGGED)) == first
    machine(other)
    assert machine(parse_program(FLAGGED)) == first


def test_analyse_skips_collect_under_an_unchanged_rely(monkeypatch):
    # In transitive mode T1's first rely, the closure of T0's first
    # guarantee, is already top. T1's own write changes T0's guarantee, so
    # T0 is queued again, and its new guarantee queues T1, whose rely comes
    # out the same: T1 keeps its guarantee and outline, and 4 rely
    # derivations (pops T0, T1, T0, T1) take 3 collects
    calls = []
    real = engine.collect

    def counting(cw, body, d, r, *rest):
        calls.append((body, r))
        return real(cw, body, d, r, *rest)

    monkeypatch.setattr(engine, "collect", counting)
    program = parse_program("""
        vars x, y;
        pre true;
        post true;
        thread T0 { x := 1; y := y; }
        thread T1 { x := 1; }
    """)
    res = analyse(program, AnalysisConfig(mode="transitive", domain="const"))
    assert res.converged and res.metrics.outer_iterations == 4
    assert len(calls) == res.metrics.collects == 3
    assert [b for b, _ in calls] == [t.body for t in program.threads] + [
        program.threads[0].body]
    assert to_machine(res)["stats"]["collects"] == len(calls)
    # no thread is collected again under the rely of its previous collect
    last = {}
    for body, r in calls:
        assert last.get(id(body)) != r
        last[id(body)] = r
    # each skipped thread's outline is still the one its final rely gives
    d_pre = res.domain.filter(program.pre, res.domain.top())
    for t in program.threads:
        g, outline = real(CondWrites(res.domain), t.body, d_pre,
                          res.relies[t.tid], True)
        assert g == res.guarantees[t.tid]
        assert outline == res.outlines[t.tid]


def mutex_flags_events(monkeypatch):
    """Analyse mutex_flags, const non-transitive, recording each rely
    derivation as ("rely", tid, the guarantees it reads) and each collect
    as ("collect", tid, the guarantee it returns)."""
    events = []
    real_rely, real_collect = engine.rely, engine.collect
    program = next(c for c in CASES if c.name == "mutex_flags").load()
    tids = {id(t.body): t.tid for t in program.threads}

    def rely_(cw, tid, guarantees, *rest):
        events.append(("rely", tid, dict(guarantees)))
        return real_rely(cw, tid, guarantees, *rest)

    def collect_(cw, body, *rest):
        g, outline = real_collect(cw, body, *rest)
        events.append(("collect", tids[id(body)], g))
        return g, outline

    monkeypatch.setattr(engine, "rely", rely_)
    monkeypatch.setattr(engine, "collect", collect_)
    res = analyse(program, AnalysisConfig(mode="nontransitive", domain="const"))
    return program, res, events


def test_analyse_rederives_a_rely_only_after_another_guarantee_changed(monkeypatch):
    # mutex_flags converges in 5 pops. The first four take T0, T1, T0 and
    # T1, and each of those four collects changes its thread's
    # guarantee, so it queues the other thread; T0's first change finds T1
    # queued already, and does not queue it twice. T1's second change
    # queues T0 once more; T0's guarantee then stays, so T1's rely is not
    # derived again and the worklist empties. Each of these relies differs
    # from the last, so each is followed by a collect
    _, res, events = mutex_flags_events(monkeypatch)
    calls = [tid for kind, tid, _ in events if kind == "rely"]
    assert res.converged and res.metrics.outer_iterations == len(calls)
    assert calls == ["T0", "T1", "T0", "T1", "T0"]
    assert res.metrics.collects == len(calls)


def test_rely_reads_the_newest_guarantees(monkeypatch):
    # Chaotic iteration: every rely is derived from the newest guarantees,
    # so T1's first rely already reads the guarantee T0's first collect
    # made. The Jacobi rounds of `reference_engine` read only the previous
    # round's guarantees, and take 4 rounds here, 8 collects when they skip
    # unchanged relies, where the worklist takes 5 pops and 5 collects
    program, res, events = mutex_flags_events(monkeypatch)
    newest = {t.tid: {} for t in program.threads}
    for kind, tid, value in events:
        if kind == "rely":
            assert value == newest
        else:
            newest[tid] = value
    (_, first, g0), (_, second, read) = events[1:3]
    assert (first, second) == ("T0", "T1")
    assert g0 != {} and read["T0"] == g0
    assert (res.metrics.outer_iterations, res.metrics.collects) == (5, 5)
    ref = reference_engine.analyse(program, res.config)
    assert ref.metrics.outer_iterations == 4
    assert (ref.relies, ref.guarantees, ref.outlines) == (
        res.relies, res.guarantees, res.outlines)


def test_machine_report_fields():
    m = to_machine(analyse_flagged())
    assert m["verdict"] == "verified"
    assert m["mode"] == "transitive" and m["domain"] == "const" and m["n"] == 3
    assert isinstance(m["ops"], int) and m["ops"] > 0
    assert m["converged"] is True
    t0 = m["threads"]["T0"]
    assert set(t0) == {"rely", "guarantee", "outline"}
    assert t0["outline"]["1"] == "⊤"
    assert t0["outline"]["exit"] == "[r↦0]"
    assert t0["guarantee"]["x"] == "[r↦0, z↦0]"


def test_cap_collapses_are_counted():
    # no corpus cell collapses at the default cap; at cap 2 the powerset
    # cells collapse 14 elements in all, and one collapse costs reset_race
    # its non-transitive powerset verdict. Const has no cap.
    total = 0
    for case in CASES:
        program = case.load()
        for mode in ("nontransitive", "transitive"):
            for domain in ("const", "const-powerset"):
                wide = analyse(program, AnalysisConfig(mode=mode, domain=domain))
                narrow = analyse(program, AnalysisConfig(
                    mode=mode, domain=domain, max_disjuncts=2))
                assert wide.metrics.cap_collapses == 0
                assert to_machine(narrow)["stats"]["cap_collapses"] == (
                    narrow.metrics.cap_collapses)
                if domain == "const":
                    assert narrow.metrics.cap_collapses == 0
                total += narrow.metrics.cap_collapses
    assert total == 14
    race = next(c for c in CASES if c.name == "reset_race").load()
    wide, narrow = (analyse(race, AnalysisConfig(domain="const-powerset",
                                                 max_disjuncts=cap))
                    for cap in (64, 2))
    assert (wide.verdict, narrow.verdict) == ("verified", "notVerified")
    assert narrow.metrics.cap_collapses == 1


def test_render_text_mentions_everything():
    txt = render_text(analyse_flagged())
    assert "thread T0:" in txt and "thread T1:" in txt
    assert "verdict:   verified" in txt
    assert "[r↦0]  (exit)" in txt
    ascii_txt = render_text(analyse_flagged(), ascii_only=True)
    assert "|->" in ascii_txt and "↦" not in ascii_txt


def chain_text(k: int, threads: int) -> str:
    # chainK: thread t runs K guarded writes over a ring of K flags,
    # `if (v[(i+t)%K] == 0) { v[(i+t+1)%K] := 1; }`
    names = [f"v{j}" for j in range(k)]
    lines = [f"vars {', '.join(names)};",
             f"pre {' && '.join(f'{v} == 0' for v in names)};",
             "post true;"]
    for t in range(threads):
        body = " ".join(f"if ({names[(j + t) % k]} == 0) "
                        f"{{ {names[(j + t + 1) % k]} := 1; }}" for j in range(k))
        lines.append(f"thread T{t} {{ {body} }}")
    return "\n".join(lines) + "\n"


def test_chain16_const_transitive_ops():
    # the const close visits one least write set per binding; a walk over
    # the constrained variables' subsets would need 3,686 ops here
    result = analyse(parse_program(chain_text(16, 2)),
                     AnalysisConfig(mode="transitive", domain="const"))
    assert result.converged and result.verdict == "verified"
    assert result.metrics.ops == 1_105


def test_config_validation():
    p = parse_program(FLAGGED)
    with pytest.raises(ValueError):
        analyse(p, AnalysisConfig(n=7))
    with pytest.raises(ValueError):
        analyse(p, AnalysisConfig(mode="sideways"))
    with pytest.raises(ValueError):
        analyse(p, AnalysisConfig(domain="intervals"))


def test_outer_iteration_guarantees_grow_monotonically():
    # the guarantees after 1, 2 and 3 rely derivations grow towards the
    # fixpoint, which flagged_write reaches in 3
    p = parse_program(FLAGGED)
    cfgs = [AnalysisConfig(mode=m, domain=d, fuel_outer=k)
            for m in ("transitive", "nontransitive")
            for d in ("const", "const-powerset")
            for k in (1, 2, 3)]
    by_key = {}
    for cfg in cfgs:
        res = analyse(p, cfg)
        by_key[(cfg.mode, cfg.domain, cfg.fuel_outer)] = res
    for m in ("transitive", "nontransitive"):
        for d in ("const", "const-powerset"):
            g1 = by_key[(m, d, 1)]
            g2 = by_key[(m, d, 2)]
            g3 = by_key[(m, d, 3)]
            cw = CondWrites(g3.domain)
            for tid in ("T0", "T1"):
                assert cw.leq(g1.guarantees[tid], g2.guarantees[tid])
                assert cw.leq(g2.guarantees[tid], g3.guarantees[tid])
            assert g3.converged


def test_unconverged_run_is_not_verified():
    res = analyse_flagged(fuel_outer=1)
    assert not res.converged and res.verdict == "notVerified"
    # the one rely derivation reached T0 alone
    assert set(res.relies) == set(res.outlines) == {"T0"}


# -- sparse interferences -------------------------------------------------------


def test_interferences_are_sparse_and_joins_with_bottom_are_skipped(monkeypatch):
    # No rely, guarantee, `close` result or `transitions` result stores a ⊥
    # write-condition, and a domain join or meet counts an op exactly when
    # neither operand is ⊥: over every corpus cell and 50 random programs,
    # in both domains and both modes
    def assert_sparse(dom, i, what):
        assert not [v for v, wc in i.items() if dom.is_bot(wc)], (what, i)
        seen[what] += 1

    def checking_op(real, name):
        def op(self, d1, d2):
            before = self.ops
            out = real(self, d1, d2)
            performed = not (self.is_bot(d1) or self.is_bot(d2))
            assert self.ops - before == performed, (name, d1, d2)
            seen[f"{name}s performed" if performed else f"{name}s with ⊥"] += 1
            return out
        return op

    def checking(real, what, result=lambda out: out):
        def wrapper(owner, *args):
            out = real(owner, *args)
            assert_sparse(owner.dom, result(out), what)
            return out
        return wrapper

    seen = collections.Counter()
    for cls in (ConstDomain, ConstPowersetDomain):
        for name in ("join", "meet"):
            monkeypatch.setattr(cls, name, checking_op(getattr(cls, name), name))
    monkeypatch.setattr(CondWrites, "close", checking(CondWrites.close, "close"))
    monkeypatch.setattr(CondWrites, "transitions",
                        checking(CondWrites.transitions, "transitions"))
    monkeypatch.setattr(engine, "rely", checking(engine.rely, "rely"))
    monkeypatch.setattr(engine, "collect", checking(
        engine.collect, "guarantee", result=lambda out: out[0]))
    programs = ([case.load() for case in CASES]
                + [random_program(seed) for seed in range(1, 51)])
    for p in programs:
        for domain in DOMAINS:
            for mode in MODES:
                res = analyse(p, AnalysisConfig(mode=mode, domain=domain))
                for i in (*res.relies.values(), *res.guarantees.values()):
                    assert_sparse(res.domain, i, "result")
    assert all(seen[what] for what in (
        "close", "transitions", "rely", "guarantee", "result",
        "joins performed", "joins with ⊥", "meets performed", "meets with ⊥")), seen
