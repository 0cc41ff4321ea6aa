"""Rely-guarantee generation: per-thread collecting semantics, rely
derivation, the outer fixpoint, and the postcondition verdict.

A collecting pass carries only the abstract state through a thread body and
records its proof outline. The thread's guarantee is read off that outline
afterwards: the join of the transitions of each assignment from its
pre-assertion, as in the paper, in the preorder of the assignments' labels.

The outer fixpoint is chaotic iteration over one FIFO worklist of threads
(Cousot & Cousot, POPL 1977; Schwarz et al., "Improving thread-modular
abstract interpretation", SAS 2021). The worklist starts with every thread
in program order. A popped thread's rely is derived from the newest
guarantees, and the thread is collected again only when that rely changed:
collect is a pure function of the body, the initial state and the rely
under one `CondWrites`, and interferences compare by content. When a
thread's guarantee changes, every other thread not yet queued is appended
in program order. The fixpoint has converged when the worklist is empty.
Rely derivation and collection are monotone, so any fair order from bottom
reaches the least fixpoint, the values of the Jacobi rounds of
`tests/reference_engine.py`. The powerset disjunct cap is the one
non-monotone step; `tests/test_engine_reference.py` checks the values
against that reference at caps that collapse disjuncts too. The order forms
relies that Jacobi rounds never do, so ops depend on it, and so on the
order in which the threads are declared.

A join or meet with a bottom operand is neither performed nor counted (see
`domains`), so the join folds over guarantees and transitions start from
bottom at no cost. Interferences are sparse (a missing variable's
write-condition is bottom), so joining guarantees joins only the
write-conditions both hold. The meet fold over exit states in `check_post`
starts from its first operand, as a meet with top is still counted. A rely
holds top for each variable outside the thread's rely variables.

The two reports are one document: `to_machine` formats every element once,
with the domain's `fmt`, and `render_text` lays the document out around
each thread's `lang.format_inst` body."""

from __future__ import annotations

import time
from collections import deque
from dataclasses import asdict, dataclass, replace
from functools import reduce

from .lang import (
    EXIT, Assign, Block, Cond, Ite, Program, Skip, While, format_inst, negate,
)
from .domains import ASCII, StateDomain, fmt_map, make_domain
from .interference import CondWrites, FuelExhausted, Interference


MODES = ("nontransitive", "transitive")


@dataclass
class AnalysisConfig:
    mode: str = "nontransitive"  # one of MODES
    domain: str = "const"        # one of domains.DOMAINS
    n: int | None = None         # powerset stabilise bound; default |V|
    rely_vars: dict[str, frozenset[str]] | None = None  # overrides program
    max_disjuncts: int = 64
    # bounds each non-transitive stabilisation's steps (memo-answered steps
    # included), each close's rounds and each loop's passes
    fuel_inner: int = 1000
    fuel_outer: int = 1000       # rely derivations of the outer fixpoint


@dataclass
class Metrics:
    ops: int = 0
    time_s: float = 0.0
    outer_iterations: int = 0  # rely derivations, one per worklist pop
    collects: int = 0   # collecting passes run, one per thread body
    # domain steps and close calls answered from a memo, each step counted
    # as a loop of memoised steps would have looked it up
    memo_hits: int = 0
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
    # when False, `relies` and `outlines` hold only the threads the worklist
    # reached, so the reports are for converged results
    converged: bool
    domain: StateDomain


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
    incoming state once; a loop stops when its state is stable. At each
    point it pays for the statement's transfer function and one stabiliser
    look-up: statements dispatch on their exact type, the domain's
    operations are bound once per pass, and a guard's negation is the
    node's cached `neg`. The guarantee is the join of
    `cw.transitions(outline[a.label], a)` over the assignments `a` of the
    body, in preorder, which is the order the pass first reaches them in;
    it is folded per target into one dict, the same per-variable left fold
    as `reduce(cw.join, …)`, so every cap joins in the same order. That
    equals joining the transitions of every pass as the pass runs: each
    pass's pre-assertions are at or below the final ones, since loop
    states only grow and the semantics is monotone, and `transitions` is
    monotone too. Stopping a loop once its state is stable loses nothing:
    one more pass would recompute the same outline.

    A loop entered again with the state of its last entry takes its last
    exit and runs no pass: under one rely a loop's run is a function of its
    entry, and that run wrote every label inside the loop. So nested loops
    cost time linear in their depth. The test is equality, not order, as
    the powerset cap is not monotone.

    The recursive `run` holds itself, and with it the outline and the
    stabiliser, through its closure cell, so it is cleared when the pass
    ends or `FuelExhausted` escapes a loop. With the `CondWrites` memos
    cycle-free too (see `interference`), an analysis holds no reference
    cycle: its memos and plans are freed by reference counting when
    `analyse` returns."""
    dom = cw.dom
    post, filter_, join, leq = dom.post, dom.filter, dom.join, dom.leq
    outline: Outline = {}
    assigns: dict[int, Assign] = {}
    loops: dict[int, tuple] = {}  # loop label -> its last (entry, exit)

    stab = cw.stabiliser(r, transitive)

    def run(block, d):
        for inst in block:
            kind = type(inst)
            if kind is Assign:
                assigns[inst.label] = inst
                s = outline[inst.label] = stab(d)
                d = post(inst, s)
            elif kind is Skip:
                outline[inst.label] = stab(d)
            elif kind is Ite:
                s = outline[inst.label] = stab(d)
                d = join(run(inst.then, filter_(inst.cond, s)),
                         run(inst.els, filter_(inst.neg, s)))
            elif kind is While:
                if inst.label in loops and loops[inst.label][0] == d:
                    d = loops[inst.label][1]
                    continue
                entry = d
                for _ in range(cw.fuel):
                    s = stab(d)
                    d_next = join(d, run(inst.body, filter_(inst.cond, s)))
                    if leq(d_next, d):
                        break
                    d = d_next
                else:
                    raise FuelExhausted(
                        f"loop at point {inst.label} did not converge in {cw.fuel} passes")
                # the converging pass left d unchanged, so s is its stabilisation
                outline[inst.label] = s
                d = filter_(inst.neg, s)
                loops[inst.label] = entry, d
            else:
                raise TypeError(inst)
        return d

    try:
        outline[EXIT] = stab(run(body, d))
    finally:
        run = None  # run holds itself through its closure cell
    guarantee: Interference = cw.bot()
    for label, a in assigns.items():
        for v, wc in cw.transitions(outline[label], a).items():
            guarantee[v] = join(guarantee[v], wc) if v in guarantee else wc
    return guarantee, outline


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
    bodies = {t.tid: t.body for t in program.threads}
    guarantees = {tid: cw.bot() for tid in bodies}
    relies: dict[str, Interference] = {}
    outlines: dict[str, Outline] = {}
    work = deque(guarantees)  # the threads whose rely must be derived again
    pops = collects = 0

    while work and pops < config.fuel_outer:
        pops += 1
        tid = work.popleft()
        r = rely(cw, tid, guarantees, rvars[tid], transitive)
        if r == relies.get(tid):
            continue
        relies[tid] = r
        collects += 1
        g, outlines[tid] = collect(cw, bodies[tid], d_pre, r, transitive)
        if g != guarantees[tid]:
            guarantees[tid] = g
            work.extend(o for o in guarantees if o != tid and o not in work)
    converged = not work

    verdict = check_post(dom, outlines, program.post) if converged else "notVerified"
    metrics = Metrics(
        ops=dom.ops,
        time_s=time.perf_counter() - started,
        outer_iterations=pops,
        collects=collects,
        memo_hits=cw.memo_hits,
        cap_collapses=dom.cap_collapses,
    )
    return AnalysisResult(
        program=program, config=config, relies=relies, guarantees=guarantees,
        outlines=outlines, metrics=metrics, verdict=verdict,
        converged=converged, domain=dom,
    )


def check_post(dom: StateDomain, outlines: dict[str, Outline],
               post: Cond) -> str:
    """The postcondition holds if no state in the meet of all thread exit
    assertions can satisfy its negation."""
    exits = [outline[EXIT] for outline in outlines.values()]
    d_final = reduce(dom.meet, exits)
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
    # every counter of `Metrics` but ops and time_s, which lead the document
    stats = asdict(result.metrics)
    del stats["ops"], stats["time_s"]
    return {
        "verdict": result.verdict,
        "ops": result.metrics.ops,
        "time_s": result.metrics.time_s,
        "converged": result.converged,
        "mode": result.config.mode,
        "domain": result.config.domain,
        "n": result.config.n,
        "threads": threads,
        "stats": stats,
    }


def render_text(result: AnalysisResult, ascii_only: bool = False) -> str:
    """The text report: `to_machine`'s document laid out around each
    thread's annotated body. With `ascii_only`, the finished report is
    translated by `domains.ASCII`. That is exact: the tokenizer admits only
    ASCII into identifiers and literals, and ⊥ ⊤ ↦ are the report's only
    other characters outside ASCII."""
    doc = to_machine(result)
    lines: list[str] = []
    for t in result.program.threads:
        thread = doc["threads"][t.tid]
        outline = thread["outline"]
        lines.append(f"thread {t.tid}:")
        lines.append(format_inst(t.body, 1, lambda label: outline[str(label)]))
        lines.append(f"       {outline[EXIT]}  (exit)")
        lines.append(f"    rely      = {fmt_map(thread['rely'].items())}")
        lines.append(f"    guarantee = {fmt_map(thread['guarantee'].items())}")
        lines.append("")
    lines.append(f"verdict:   {doc['verdict']}")
    lines.append(f"converged: {doc['converged']}")
    lines.append(f"ops:       {doc['ops']}")
    lines.append(f"time_s:    {doc['time_s']:.4f}")
    text = "\n".join(lines) + "\n"
    return text.translate(ASCII) if ascii_only else text
