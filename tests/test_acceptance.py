"""Acceptance suite. Each test covers one acceptance criterion and prints a
single PASS/FAIL line (run with -s or -rA to see them in passing runs)."""

import itertools
import random
import sys
import time

import pytest

from condwrites.domains import (
    CM_TOP, ConstDomain, ConstPowersetDomain, Universe, cm_make,
)
from condwrites.corpus import nt_cheaper_cells
from condwrites.engine import AnalysisConfig, analyse, rely
from condwrites.interference import CondWrites
from condwrites.lang import parse_program
from condwrites.oracle import check_soundness, explore

from conftest import (
    bf_exec_assign, bf_gamma, bf_gamma_x, bf_is_transitive, bf_states,
    bf_step_image, random_assign, random_cm, random_elem, random_interference,
)
from corpus_helpers import corpus_rows
import reference_interference
from test_engine import nested_loops
from test_lang import FLAGGED
from randprog import random_program

VARS3 = ("x", "z", "r")
U3 = Universe.of({v: (0, 1) for v in VARS3})


def report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}", file=sys.stderr)
    assert ok, name


def domains(n: int | None = None):
    # the const domain takes no n; the powerset's defaults to |V|
    return [ConstDomain(VARS3), ConstPowersetDomain(VARS3, n=n)]


def interferences_per_n() -> list[list[CondWrites]]:
    """For each of `domains()`, one CondWrites per n in 0..|VARS3|."""
    per_n = [domains(n) for n in range(len(VARS3) + 1)]
    return [[CondWrites(doms[k]) for doms in per_n] for k in range(2)]


# -- 1: worked-example golden ---------------------------------------------------


def test_criterion_1_worked_example_golden():
    started = time.perf_counter()
    res = analyse(parse_program(FLAGGED),
                  AnalysisConfig(mode="transitive", domain="const", n=3))
    elapsed = time.perf_counter() - started
    o0, o1 = res.outlines["T0"], res.outlines["T1"]
    t0, t1 = res.program.threads

    def post(t, outline, k):  # the assertion after statement k
        return res.domain.post(t.flow.stmts[k], outline[k])

    ok = (
        res.converged
        and res.verdict == "verified"
        and [o0[k] for k in (1, 2, 3, 4)] + [post(t0, o0, 4)] == [
            CM_TOP,
            cm_make({"r": 0}),
            cm_make({"r": 0, "z": 0}),
            cm_make({"r": 0, "z": 0, "x": 0}),
            cm_make({"r": 0, "z": 0, "x": 0}),
        ]
        and [o1[1], o1[2], post(t1, o1, 2)] == [
            CM_TOP, cm_make({"z": 1}), cm_make({"z": 1, "x": 1})]
        # interferences are sparse: z (and T1's r) are written by nothing
        and res.guarantees["T0"] == {
            "x": cm_make({"r": 0, "z": 0}), "r": CM_TOP}
        and res.guarantees["T1"] == {"x": cm_make({"z": 1})}
        and res.relies["T1"] == {"x": cm_make({"z": 0}), "r": CM_TOP}
        and res.relies["T0"] == res.guarantees["T1"]
        and elapsed < 1.0
    )
    report("1 worked-example golden", ok)


# -- 2: soundness lemma suites ----------------------------------------------------


def suite_2a_inputs(dom, count=500):
    rng = random.Random(1001)
    for _ in range(count):
        yield (random_interference(rng, dom), random_elem(rng, dom),
               rng.randint(0, len(VARS3)))


def test_criterion_2a_stabilise_soundness():
    bad = 0
    for cws in interferences_per_n():
        dom = cws[0].dom
        for i, d, n in suite_2a_inputs(dom):
            out = cws[n].stabilise(i, d)
            g_in = bf_gamma(dom, d, U3)
            reach = g_in | bf_step_image(bf_gamma_x(dom, i, U3), g_in)
            if not reach <= bf_gamma(dom, out, U3):
                bad += 1
    report("2a stabilise soundness (500 triples per domain)", bad == 0)


def test_criterion_2b_transitions_soundness():
    bad = 0
    for dom in domains():
        cw = CondWrites(dom)
        rng = random.Random(1002)
        for _ in range(500):
            d = random_elem(rng, dom)
            a = random_assign(rng, VARS3)
            gx = bf_gamma_x(dom, cw.transitions(d, a), U3)
            for s in bf_gamma(dom, d, U3):
                if (s, bf_exec_assign(a, s, U3.var_order)) not in gx:
                    bad += 1
    report("2b transitions soundness (500 pairs per domain)", bad == 0)


def test_criterion_2c_close_properties():
    bad = 0
    for dom in domains():
        cw = CondWrites(dom)
        rng = random.Random(1003)
        for _ in range(100):  # 100 x 2 domains >= 200 inputs
            i = random_interference(rng, dom)
            c = cw.close(i)
            if not cw.leq(i, c):
                bad += 1
            if not bf_is_transitive(bf_gamma_x(dom, c, U3)):
                bad += 1
            if cw.close(c) != c:
                bad += 1
    report("2c close is inflationary, transitive, idempotent (200 inputs)",
           bad == 0)


# -- 3: optimisation equivalence ---------------------------------------------------


def test_criterion_3_optimisation_equivalence():
    # the production stabilise and close, which always prune, against the
    # unpruned reference walks
    mismatches = 0
    for cws, ref_dom in zip(interferences_per_n(), domains()):
        rng = random.Random(1004)
        cw, ref = cws[-1], CondWrites(ref_dom)
        for _ in range(250):  # x2 domains = 500 stabilise inputs
            i = random_interference(rng, cw.dom)
            d = random_elem(rng, cw.dom)
            n = rng.randint(0, len(VARS3))
            # the pruned enumeration, and the public path: const's closed
            # form or powerset's memoised fused pass
            want = reference_interference.stabilise_enum(ref, i, d, n)
            pruned = reference_interference.stabilise_enum(
                cws[n], i, d, n, b1=True)
            if pruned != want or cws[n].stabilise(i, d) != want:
                mismatches += 1
        rng2 = random.Random(1005)
        for _ in range(250):  # x2 domains = 500 close inputs
            i = random_interference(rng2, cw.dom)
            if cw.close(i) != reference_interference.close(ref, i):
                mismatches += 1
    report("3 optimisation equivalence (500 stabilise + 500 close inputs)",
           mismatches == 0)


# -- 4: havoc axioms and lattice laws ------------------------------------------------


def test_criterion_4_lattice_laws():
    from test_domains import ALL_CMS, U2, VARS

    bad = 0
    dom = ConstDomain(VARS)
    subsets = [frozenset(s) for k in range(3)
               for s in itertools.combinations(VARS, k)]
    for d1, d2 in itertools.product(ALL_CMS, repeat=2):
        j, m = dom.join(d1, d2), dom.meet(d1, d2)
        if not (dom.leq(d1, j) and dom.leq(d2, j)
                and dom.leq(m, d1) and dom.leq(m, d2)):
            bad += 1
        if bf_gamma(dom, j, U2) < bf_gamma(dom, d1, U2) | bf_gamma(dom, d2, U2):
            bad += 1
        if bf_gamma(dom, m, U2) != bf_gamma(dom, d1, U2) & bf_gamma(dom, d2, U2):
            bad += 1
    for d in ALL_CMS:
        for v1 in subsets:
            h = dom.havoc(d, v1)
            if not dom.leq(d, h):
                bad += 1
            for v2 in subsets:
                if dom.havoc(h, v2) != dom.havoc(d, v1 | v2):
                    bad += 1

    pw = ConstPowersetDomain(VARS)
    rng = random.Random(1006)
    for _ in range(1000):
        d1 = pw.make(random_cm(rng, VARS) for _ in range(rng.randint(0, 3)))
        d2 = pw.make(random_cm(rng, VARS) for _ in range(rng.randint(0, 3)))
        j, m = pw.join(d1, d2), pw.meet(d1, d2)
        g1, g2 = bf_gamma(pw, d1, U2), bf_gamma(pw, d2, U2)
        if bf_gamma(pw, j, U2) != g1 | g2 or bf_gamma(pw, m, U2) != g1 & g2:
            bad += 1
        if pw.leq(d1, d2) and not g1 <= g2:
            bad += 1
        drop = frozenset(rng.sample(VARS, rng.randint(0, 2)))
        h = pw.havoc(d1, drop)
        if not pw.leq(d1, h) or pw.havoc(h, drop) != h:
            bad += 1
    report("4 havoc axioms + lattice laws (exhaustive const, 1000 powerset)",
           bad == 0)


# -- 5: end-to-end soundness vs the interleaving oracle -------------------------------


def test_criterion_5_random_programs_vs_oracle():
    started = time.perf_counter()
    failures = []
    count = 0
    seed = 0
    while count < 100:
        seed += 1
        program = random_program(seed)
        report_ = explore(program)
        if report_.bounded:
            continue  # budget-cut exploration is not ground truth; skip
        count += 1
        for domain in ("const", "const-powerset"):
            for mode in ("transitive", "nontransitive"):
                res = analyse(program, AnalysisConfig(mode=mode, domain=domain))
                if not res.converged:
                    failures.append((seed, domain, mode, "did not converge"))
                    continue
                bad = check_soundness(res, report_)
                if bad:
                    failures.append((seed, domain, mode, bad[:3]))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 120.0
    if failures:
        print(failures[:5], file=sys.stderr)
    report(f"5 end-to-end soundness on 100 random programs ({elapsed:.1f}s)", ok)


def test_criterion_5_nested_random_programs_vs_oracle():
    # nested loops re-enter inner loops, whose last run the collecting pass
    # reuses when the entry state repeats
    failures = []
    programs = ([random_program(seed, depth=3) for seed in range(1, 401)]
                + [random_program(seed, threads=4, depth=3)
                   for seed in range(1, 101)]
                + [parse_program(nested_loops(depth, shape)) for depth in (2, 5)
                   for shape in ("plain", "reset", "marked")])
    for program in programs:
        report_ = explore(program)
        if report_.bounded:
            failures.append((program, "exploration cut by the budget"))
            continue
        for domain in ("const", "const-powerset"):
            for mode in ("transitive", "nontransitive"):
                res = analyse(program, AnalysisConfig(mode=mode, domain=domain))
                if not res.converged or check_soundness(res, report_):
                    failures.append((program, domain, mode))
    report(f"5 end-to-end soundness on {len(programs)} programs with nested "
           "loops", not failures)


def test_criterion_5_wide_random_programs_vs_oracle():
    # 3 threads over 4-5 variables: up to 2^5 stores times the product of
    # three threads' points, all explored within the default budget
    started = time.perf_counter()
    failures = []
    for seed in range(1, 201):
        program = random_program(seed, threads=3, nvars=(4, 5))
        report_ = explore(program)
        if report_.bounded:
            failures.append((seed, "exploration cut by the budget"))
            continue
        for domain in ("const", "const-powerset"):
            for mode in ("transitive", "nontransitive"):
                res = analyse(program, AnalysisConfig(mode=mode, domain=domain))
                if not res.converged:
                    failures.append((seed, domain, mode, "did not converge"))
                    continue
                bad = check_soundness(res, report_)
                if bad:
                    failures.append((seed, domain, mode, bad[:3]))
    elapsed = time.perf_counter() - started
    if failures:
        print(failures[:5], file=sys.stderr)
    report(f"5 end-to-end soundness on 200 random 3-thread programs over "
           f"4-5 variables ({elapsed:.1f}s)", not failures)


# -- 6: qualitative corpus patterns ----------------------------------------------------


def test_criterion_6_corpus_patterns():
    rows = corpus_rows()
    verdict = {(r["name"], r["domain"], r["mode"]): r["verdict"] for r in rows}
    names = {r["name"] for r in rows}

    pattern_i = any(
        verdict[(n, "const-powerset", "nontransitive")] == "verified"
        and verdict[(n, "const-powerset", "transitive")] == "verified"
        and verdict[(n, "const", "nontransitive")] == "notVerified"
        and verdict[(n, "const", "transitive")] == "notVerified"
        for n in names
    )
    pattern_ii = any(
        verdict[(n, "const-powerset", "nontransitive")] == "verified"
        and verdict[(n, "const-powerset", "transitive")] == "notVerified"
        for n in names
    )
    # every program/domain cell is compared: both of its modes converged
    cheaper, cells = nt_cheaper_cells(rows)
    majority = cells == 2 * len(names) and cheaper * 2 > cells
    report(
        f"6 corpus patterns (i={pattern_i}, ii={pattern_ii}, "
        f"nontransitive cheaper in {cheaper}/{cells} cells)",
        pattern_i and pattern_ii and majority,
    )


# -- 7: mode fixpoint contracts -----------------------------------------------------


def test_criterion_7_fixpoint_contracts():
    bad = 0
    for cws in interferences_per_n():
        dom = cws[0].dom
        for i, d, n in suite_2a_inputs(dom):
            fixed = cws[n].stabilise_fix(i, d)
            again = cws[n].stabilise(i, fixed)
            if not (dom.leq(again, fixed) and dom.leq(fixed, again)):
                bad += 1

    from condwrites.corpus import CASES
    for case in CASES:
        program = case.load()
        for domain in ("const", "const-powerset"):
            res = analyse(program, AnalysisConfig(
                mode="transitive", domain=domain))
            if not res.converged:
                bad += 1
                continue
            cw = CondWrites(res.domain)
            for tid, r in res.relies.items():
                if cw.close(r) != r:
                    bad += 1
    report("7 stabilise_fix is a fixpoint; transitive relies are closed",
           bad == 0)
