"""Rely-guarantee generation: per-thread collecting semantics, rely
derivation, the outer fixpoint, and the postcondition verdict.

A collecting pass carries only the abstract state through a thread body and
records its proof outline. The thread's guarantee is read off that outline
afterwards: the join of the transitions of each assignment from its
pre-assertion, as in the paper, in the preorder of the assignments' labels.

The outer fixpoint sweeps the threads in program order, Gauss-Seidel style
(Schwarz et al., "Improving thread-modular abstract interpretation", SAS
2021), and is driven by change. A thread is dirty until its rely is derived,
and again whenever another thread's guarantee changes; a sweep derives the
rely of each dirty thread from the newest guarantees, those updated earlier
in the same sweep included, and re-collects the thread only when that rely
came out different. It has converged when no thread is dirty after a sweep.
The values are those of Jacobi rounds, which derive every rely from the
previous round's guarantees: rely derivation and collection are monotone, so
both chaotic and Jacobi iteration from bottom reach the least fixpoint
(Cousot & Cousot, POPL 1977). The powerset disjunct cap is the one
non-monotone step; `tests/test_engine_reference.py` checks the values
against the Jacobi reference at caps that collapse disjuncts too, and that
no program takes more sweeps than the reference takes rounds. A sweep can
form relies that Jacobi rounds never do, so one program's ops can rise.

A join or meet with a bottom operand is neither performed nor counted (see
`domains`), so the join folds over guarantees and transitions start from
bottom at no cost. Interferences are sparse (a missing variable's
write-condition is bottom), so joining guarantees joins only the
write-conditions both hold. The meet fold over exit states in `check_post`
starts from its first operand, as a meet with top is still counted. A rely
holds top for each variable outside the thread's rely variables."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import reduce

from .lang import (
    EXIT, Assign, Block, Cond, Ite, Program, Skip, While, format_inst, negate,
)
from .domains import StateDomain, make_domain
from .interference import CondWrites, FuelExhausted, Interference


MODES = ("nontransitive", "transitive")


@dataclass
class AnalysisConfig:
    mode: str = "nontransitive"  # one of MODES
    domain: str = "const"        # one of domains.DOMAINS
    n: int | None = None         # powerset stabilise bound; default |V|
    rely_vars: dict[str, frozenset[str]] | None = None  # overrides program
    max_disjuncts: int = 64
    fuel_inner: int = 1000
    fuel_outer: int = 1000       # outer sweeps over the threads


@dataclass
class Metrics:
    ops: int = 0
    time_s: float = 0.0
    outer_iterations: int = 0
    collects: int = 0   # collecting passes run, one per thread body
    memo_hits: int = 0  # stabilise and close calls answered from a memo
    cap_collapses: int = 0  # powerset elements collapsed to their flat join


# A proof outline maps each control-flow point of a thread (its statement
# labels and EXIT, the keys of `lang.control_flow`) to the assertion there.
Outline = dict


@dataclass
class AnalysisResult:
    program: Program
    config: AnalysisConfig
    relies: dict[str, Interference]
    guarantees: dict[str, Interference]
    outlines: dict[str, Outline]
    metrics: Metrics
    verdict: str  # "verified" | "notVerified"
    converged: bool
    domain: StateDomain
    cw: CondWrites


def reduce_interference(cw: CondWrites, i: Interference,
                        rely_vars: frozenset[str]) -> Interference:
    """Eliminate variables outside rely_vars: their own write-conditions go
    to top and they are havocked out of every remaining write-condition.
    A missing write-condition is bottom, and its havoc too, so it stays
    missing."""
    dom = cw.dom
    drop = frozenset(dom.variables) - rely_vars
    out = {v: dom.top() for v in dom.variables if v in drop}
    for v, wc in i.items():
        if v in rely_vars:
            # havoc by nothing keeps an element as it is
            out[v] = dom.havoc(wc, drop) if drop else wc
    return out


def rely(cw: CondWrites, tid: str, guarantees: dict[str, Interference],
         rely_vars: frozenset[str], transitive: bool) -> Interference:
    others = [g for other, g in guarantees.items() if other != tid]
    acc = reduce(cw.join, others, cw.bot())
    acc = reduce_interference(cw, acc, rely_vars)
    if transitive:
        acc = cw.close(acc)
    return acc


def collect(cw: CondWrites, body: Block, d, r: Interference,
            transitive: bool) -> tuple[Interference, Outline]:
    """Run one thread body from state d under rely r; return the guarantee
    it generates and its proof outline.

    The pass carries the state alone and stabilises each labelled point's
    incoming state once; a loop stops when its state is stable. The
    guarantee is the join of `cw.transitions(outline[a.label], a)` over
    the assignments `a` of the body, in preorder, which is the order the
    pass first reaches them in. That equals joining the transitions of
    every pass as the pass runs: each pass's pre-assertions are at or below
    the final ones, since loop states only grow and the semantics is
    monotone, and `transitions` is monotone too. Stopping a loop once its
    state is stable loses nothing: one more pass would recompute the same
    outline.

    A loop entered again with the state of its last entry takes its last
    exit and runs no pass: under one rely a loop's run is a function of its
    entry, and that run wrote every label inside the loop. So nested loops
    cost time linear in their depth. The test is equality, not order, as
    the powerset cap is not monotone."""
    dom = cw.dom
    outline: Outline = {}
    assigns: dict[int, Assign] = {}
    loops: dict[int, tuple] = {}  # loop label -> its last (entry, exit)

    stab = cw.stabiliser(r, transitive)

    def run(block, d):
        for inst in block:
            if isinstance(inst, Skip):
                outline[inst.label] = stab(d)
            elif isinstance(inst, Assign):
                assigns[inst.label] = inst
                s = outline[inst.label] = stab(d)
                d = dom.post(inst, s)
            elif isinstance(inst, Ite):
                s = outline[inst.label] = stab(d)
                d1 = run(inst.then, dom.filter(inst.cond, s))
                d2 = run(inst.els, dom.filter(negate(inst.cond), s))
                d = dom.join(d1, d2)
            elif isinstance(inst, While):
                if inst.label in loops and loops[inst.label][0] == d:
                    d = loops[inst.label][1]
                    continue
                entry = d
                for _ in range(cw.fuel):
                    s = stab(d)
                    d_next = dom.join(d, run(inst.body, dom.filter(inst.cond, s)))
                    if dom.leq(d_next, d):
                        break
                    d = d_next
                else:
                    raise FuelExhausted(
                        f"loop at point {inst.label} did not converge in {cw.fuel} passes")
                # the converging pass left d unchanged, so s is its stabilisation
                outline[inst.label] = s
                d = dom.filter(negate(inst.cond), s)
                loops[inst.label] = entry, d
            else:
                raise TypeError(inst)
        return d

    outline[EXIT] = stab(run(body, d))
    writes = [cw.transitions(outline[label], a) for label, a in assigns.items()]
    return reduce(cw.join, writes, cw.bot()), outline


def analyse(program: Program, config: AnalysisConfig | None = None) -> AnalysisResult:
    config = config or AnalysisConfig()
    started = time.perf_counter()
    # the resolved config, n included, is the one the result reports
    config = replace(config, n=len(program.variables) if config.n is None else config.n)
    if not 0 <= config.n <= len(program.variables):
        raise ValueError(f"n must be within 0..{len(program.variables)}")
    for limit in ("max_disjuncts", "fuel_inner", "fuel_outer"):
        if getattr(config, limit) < 1:
            raise ValueError(f"{limit} must be >= 1, got {getattr(config, limit)}")
    dom = make_domain(config.domain, program.variables, config.max_disjuncts, config.n)
    cw = CondWrites(dom, fuel=config.fuel_inner)
    transitive = config.mode == "transitive"
    if config.mode not in MODES:
        raise ValueError(f"unknown mode {config.mode!r}")

    rvars = {t.tid: t.rely_vars for t in program.threads}
    for tid, names in (config.rely_vars or {}).items():
        if tid not in rvars:
            raise ValueError(f"rely_vars for unknown thread {tid!r}")
        undeclared = sorted(names - frozenset(program.variables))
        if undeclared:
            raise ValueError(f"rely_vars names undeclared variable {undeclared[0]!r}")
        rvars[tid] = names

    d_pre = dom.filter(program.pre, dom.top())
    guarantees = {t.tid: cw.bot() for t in program.threads}
    relies: dict[str, Interference] = {}
    outlines: dict[str, Outline] = {}
    dirty = set(guarantees)  # the threads whose rely must be derived again
    converged = False
    rounds = collects = 0

    for _ in range(config.fuel_outer):
        rounds += 1
        # A rely is a function of the other threads' guarantees and collect
        # a pure function of (body, d_pre, rely) under one `cw`, so a thread
        # keeps its rely until another thread's guarantee changes, and its
        # guarantee and outline unless its rely changes. Values compare by
        # content (const maps are sets, powerset elements antichains), so
        # `==` on interferences is lattice equality. A sweep reads the
        # newest guarantees, those it has updated included (Gauss-Seidel).
        for t in program.threads:
            if t.tid not in dirty:
                continue
            dirty.discard(t.tid)
            r = rely(cw, t.tid, guarantees, rvars[t.tid], transitive)
            if r == relies.get(t.tid):
                continue
            relies[t.tid] = r
            collects += 1
            g, outlines[t.tid] = collect(cw, t.body, d_pre, r, transitive)
            if g != guarantees[t.tid]:
                guarantees[t.tid] = g
                dirty.update(tid for tid in guarantees if tid != t.tid)
        if not dirty:
            converged = True
            break

    verdict = check_post(dom, outlines, program.post) if converged else "notVerified"
    metrics = Metrics(
        ops=dom.ops,
        time_s=time.perf_counter() - started,
        outer_iterations=rounds,
        collects=collects,
        memo_hits=cw.memo_hits,
        cap_collapses=dom.cap_collapses,
    )
    return AnalysisResult(
        program=program, config=config, relies=relies, guarantees=guarantees,
        outlines=outlines, metrics=metrics, verdict=verdict,
        converged=converged, domain=dom, cw=cw,
    )


def check_post(dom: StateDomain, outlines: dict[str, Outline],
               post: Cond) -> str:
    """The postcondition holds if no state in the meet of all thread exit
    assertions can satisfy its negation."""
    exits = [outline[EXIT] for outline in outlines.values()]
    d_final = reduce(dom.meet, exits) if exits else dom.top()
    violating = dom.filter(negate(post), d_final)
    return "verified" if dom.is_bot(violating) else "notVerified"


# ---------------------------------------------------------------------------
# Reports


def to_machine(result: AnalysisResult) -> dict:
    dom = result.domain
    bot = dom.bot()
    threads = {}
    for t in result.program.threads:
        r, g = result.relies[t.tid], result.guarantees[t.tid]
        threads[t.tid] = {
            "rely": {v: dom.fmt(r.get(v, bot)) for v in dom.variables},
            "guarantee": {v: dom.fmt(g.get(v, bot)) for v in dom.variables},
            "outline": {str(k): dom.fmt(d) for k, d in result.outlines[t.tid].items()},
        }
    return {
        "verdict": result.verdict,
        "ops": result.metrics.ops,
        "time_s": result.metrics.time_s,
        "converged": result.converged,
        "mode": result.config.mode,
        "domain": result.config.domain,
        "n": result.config.n,
        "threads": threads,
        "stats": {
            "outer_rounds": result.metrics.outer_iterations,
            "collects": result.metrics.collects,
            "memo_hits": result.metrics.memo_hits,
            "cap_collapses": result.metrics.cap_collapses,
        },
    }


def render_text(result: AnalysisResult, ascii_only: bool = False) -> str:
    dom, cw = result.domain, result.cw
    lines: list[str] = []
    for t in result.program.threads:
        outline = result.outlines[t.tid]
        lines.append(f"thread {t.tid}:")
        lines.append(format_inst(
            t.body, 1, lambda label: dom.fmt(outline[label], ascii_only)))
        lines.append(f"       {dom.fmt(outline[EXIT], ascii_only)}  (exit)")
        lines.append(f"    rely      = {cw.fmt(result.relies[t.tid], ascii_only)}")
        lines.append(f"    guarantee = {cw.fmt(result.guarantees[t.tid], ascii_only)}")
        lines.append("")
    lines.append(f"verdict:   {result.verdict}")
    lines.append(f"converged: {result.converged}")
    lines.append(f"ops:       {result.metrics.ops}")
    lines.append(f"time_s:    {result.metrics.time_s:.4f}")
    return "\n".join(lines) + "\n"
