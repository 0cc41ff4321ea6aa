"""Differential references for `condwrites.engine`, kept verbatim.

`collect` is the collecting pass before it was reduced to the state alone.
It threads (state, guarantee) through every statement, joins the guarantee
at each assignment, branch merge and loop pass, and runs one more loop pass
whenever only the guarantee grew.

`analyse` is the outer loop before it skipped unchanged relies: every round
re-derives every thread's rely and re-runs `collect` (this module's) for
every thread. Only `tests/test_engine_reference.py` uses them.
"""

from __future__ import annotations

import time

from condwrites.lang import EXIT, Assign, Ite, Program, Seq, Skip, While, negate
from condwrites.domains import make_domain
from condwrites.engine import (
    AnalysisConfig, AnalysisResult, Metrics, Outline, check_post, rely,
)
from condwrites.interference import CondWrites, FuelExhausted, Interference


class _Collector:
    """One pass of the collecting semantics over a thread body under a fixed
    rely. The value flowing through the body is (state, guarantee), and each
    labelled point stabilises its incoming state once."""

    def __init__(self, cw: CondWrites, r: Interference, n: int,
                 transitive: bool, outline: Outline, fuel_inner: int):
        self.cw = cw
        self.dom = cw.dom
        self.r = r
        self.n = n
        self.transitive = transitive
        self.outline = outline
        self.fuel_inner = fuel_inner

    def stab(self, d):
        if self.transitive:
            return self.cw.stabilise(self.r, d, self.n)
        return self.cw.stabilise_fix(self.r, d, self.n)

    def run(self, inst, d, g: Interference) -> tuple[object, Interference]:
        dom, cw, outline = self.dom, self.cw, self.outline
        if isinstance(inst, Seq):
            for item in inst.items:
                d, g = self.run(item, d, g)
            return d, g
        if isinstance(inst, Skip):
            if inst.label is not None:
                outline[inst.label] = self.stab(d)
            return d, g
        if isinstance(inst, Assign):
            s = outline[inst.label] = self.stab(d)
            return dom.post(inst, s), cw.join(g, cw.transitions(s, inst))
        if isinstance(inst, Ite):
            s = outline[inst.label] = self.stab(d)
            d1, g1 = self.run(inst.then, dom.filter(inst.cond, s), g)
            d2, g2 = self.run(inst.els, dom.filter(negate(inst.cond), s), g)
            return dom.join(d1, d2), cw.join(g1, g2)
        if isinstance(inst, While):
            for _ in range(self.fuel_inner):
                s = self.stab(d)
                d_body, g_body = self.run(inst.body, dom.filter(inst.cond, s), g)
                d_next, g_next = dom.join(d, d_body), cw.join(g, g_body)
                if dom.leq(d_next, d) and cw.leq(g_next, g):
                    break
                d, g = d_next, g_next
            else:
                raise FuelExhausted(
                    f"loop at point {inst.label} did not converge in {self.fuel_inner} passes")
            # the converging pass left d unchanged, so s is its stabilisation
            outline[inst.label] = s
            return dom.filter(negate(inst.cond), s), g
        raise TypeError(inst)


def collect(cw: CondWrites, body, d, r: Interference, n: int, transitive: bool,
            fuel_inner: int = 1000) -> tuple[Interference, Outline]:
    """Run one thread body from state d under rely r; return the guarantee
    it generates and its proof outline."""
    outline: Outline = {}
    coll = _Collector(cw, r, n, transitive, outline, fuel_inner)
    d, g = coll.run(body, d, cw.bot())
    outline[EXIT] = coll.stab(d)
    return g, outline


def analyse(program: Program, config: AnalysisConfig | None = None) -> AnalysisResult:
    config = config or AnalysisConfig()
    started = time.perf_counter()
    dom = make_domain(config.domain, program.variables, config.max_disjuncts)
    cw = CondWrites(dom, fuel=config.fuel_inner)
    n = config.n if config.n is not None else len(program.variables)
    if not 0 <= n <= len(program.variables):
        raise ValueError(f"n must be within 0..{len(program.variables)}")
    transitive = config.mode == "transitive"
    if config.mode not in ("transitive", "nontransitive"):
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
    converged = False
    rounds = 0

    for _ in range(config.fuel_outer):
        rounds += 1
        relies = {
            t.tid: rely(cw, t.tid, guarantees, rvars[t.tid], transitive)
            for t in program.threads
        }
        new_g: dict[str, Interference] = {}
        outlines = {}
        for t in program.threads:
            new_g[t.tid], outlines[t.tid] = collect(
                cw, t.body, d_pre, relies[t.tid], n, transitive, config.fuel_inner)
        if new_g == guarantees:
            converged = True
            guarantees = new_g
            break
        guarantees = new_g

    verdict = check_post(dom, outlines, program.post) if converged else "notVerified"
    metrics = Metrics(
        ops=dom.ops,
        time_s=time.perf_counter() - started,
        outer_iterations=rounds,
    )
    return AnalysisResult(
        program=program, config=config, relies=relies, guarantees=guarantees,
        outlines=outlines, metrics=metrics, verdict=verdict,
        converged=converged, domain=dom, cw=cw,
    )
