"""Rely-guarantee generation: per-thread collecting semantics, rely
derivation, the outer fixpoint, and the postcondition verdict."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .lang import (
    EXIT, Assign, Cond, Ite, Program, Seq, Skip, While, negate,
)
from .domains import OpsCounter, StateDomain, make_domain
from .interference import CondWrites, FuelExhausted, Interference


@dataclass
class AnalysisConfig:
    mode: str = "nontransitive"  # or "transitive"
    domain: str = "const"        # or "const-powerset"
    n: int | None = None         # stabilise precision bound; default |V|
    rely_vars: dict[str, frozenset[str]] | None = None  # overrides program
    max_disjuncts: int = 64
    fuel_inner: int = 1000
    fuel_outer: int = 1000
    opt_b1: bool = True
    opt_b2a: bool = True
    opt_b2b: bool = True


@dataclass
class Metrics:
    ops: int = 0
    time_s: float = 0.0
    outer_iterations: int = 0


@dataclass
class ProofOutline:
    """Abstract assertion before each labeled statement, that statement's
    post-assertion, and the joined (stabilised) thread exit."""

    pre: dict[int, object] = field(default_factory=dict)
    post: dict[int, object] = field(default_factory=dict)
    exit: object = None

    def points(self) -> dict:
        out: dict = dict(self.pre)
        out[EXIT] = self.exit
        return out


@dataclass
class AnalysisResult:
    program: Program
    config: AnalysisConfig
    relies: dict[str, Interference]
    guarantees: dict[str, Interference]
    outlines: dict[str, ProofOutline]
    metrics: Metrics
    verdict: str  # "verified" | "notVerified"
    converged: bool
    domain: StateDomain
    cw: CondWrites


def reduce_interference(cw: CondWrites, i: Interference,
                        rely_vars: frozenset[str]) -> Interference:
    """Eliminate variables outside rely_vars: their own write-conditions go
    to top and they are havocked out of every remaining write-condition."""
    dom = cw.dom
    drop = frozenset(dom.variables) - rely_vars
    out = {}
    for v in dom.variables:
        if v in rely_vars:
            out[v] = dom.havoc(i[v], drop)
        else:
            out[v] = dom.top()
    return out


def rely(cw: CondWrites, tid: str, guarantees: dict[str, Interference],
         rely_vars: frozenset[str], transitive: bool) -> Interference:
    acc = cw.bot()
    for other, g in guarantees.items():
        if other != tid:
            acc = cw.join(acc, g)
    acc = reduce_interference(cw, acc, rely_vars)
    if transitive:
        acc = cw.close(acc)
    return acc


class _Collector:
    """One pass of the collecting semantics over a thread body under a fixed
    rely. The value flowing through the body is (state, guarantee), and each
    labelled point stabilises its incoming state once."""

    def __init__(self, cw: CondWrites, r: Interference, n: int,
                 transitive: bool, outline: ProofOutline, fuel_inner: int):
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
                outline.pre[inst.label] = outline.post[inst.label] = self.stab(d)
            return d, g
        if isinstance(inst, Assign):
            s = outline.pre[inst.label] = self.stab(d)
            d2 = outline.post[inst.label] = dom.post(inst, s)
            return d2, cw.join(g, cw.transitions(s, inst))
        if isinstance(inst, Ite):
            s = outline.pre[inst.label] = self.stab(d)
            d1, g1 = self.run(inst.then, dom.filter(inst.cond, s), g)
            d2, g2 = self.run(inst.els, dom.filter(negate(inst.cond), s), g)
            d = outline.post[inst.label] = dom.join(d1, d2)
            return d, cw.join(g1, g2)
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
            outline.pre[inst.label] = s
            d = outline.post[inst.label] = dom.filter(negate(inst.cond), s)
            return d, g
        raise TypeError(inst)


def collect(cw: CondWrites, body, d, r: Interference, n: int, transitive: bool,
            fuel_inner: int = 1000) -> tuple[Interference, ProofOutline]:
    """Run one thread body from state d under rely r; return the guarantee
    it generates and its proof outline."""
    outline = ProofOutline()
    coll = _Collector(cw, r, n, transitive, outline, fuel_inner)
    d, g = coll.run(body, d, cw.bot())
    outline.exit = coll.stab(d)
    return g, outline


def analyse(program: Program, config: AnalysisConfig | None = None) -> AnalysisResult:
    config = config or AnalysisConfig()
    started = time.perf_counter()
    ops = OpsCounter()
    dom = make_domain(config.domain, program.variables, ops, config.max_disjuncts)
    cw = CondWrites(dom, fuel=config.fuel_inner, opt_b1=config.opt_b1,
                    opt_b2a=config.opt_b2a, opt_b2b=config.opt_b2b)
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
    outlines: dict[str, ProofOutline] = {}
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
        if all(cw.eq(new_g[tid], guarantees[tid]) for tid in new_g):
            converged = True
            guarantees = new_g
            break
        guarantees = new_g

    verdict = check_post(dom, outlines, program.post) if converged else "notVerified"
    metrics = Metrics(
        ops=ops.count,
        time_s=time.perf_counter() - started,
        outer_iterations=rounds,
    )
    return AnalysisResult(
        program=program, config=config, relies=relies, guarantees=guarantees,
        outlines=outlines, metrics=metrics, verdict=verdict,
        converged=converged, domain=dom, cw=cw,
    )


def check_post(dom: StateDomain, outlines: dict[str, ProofOutline],
               post: Cond) -> str:
    """The postcondition holds if no state in the meet of all thread exit
    assertions can satisfy its negation."""
    d_final = dom.top()
    for outline in outlines.values():
        d_final = dom.meet(d_final, outline.exit)
    violating = dom.filter(negate(post), d_final)
    return "verified" if dom.is_bot(violating) else "notVerified"


# ---------------------------------------------------------------------------
# Reports


def to_machine(result: AnalysisResult) -> dict:
    dom, cw = result.domain, result.cw
    threads = {}
    for t in result.program.threads:
        outline = result.outlines.get(t.tid, ProofOutline())
        threads[t.tid] = {
            "rely": {v: dom.fmt(result.relies[t.tid][v]) for v in dom.variables},
            "guarantee": {v: dom.fmt(result.guarantees[t.tid][v]) for v in dom.variables},
            "outline": {
                **{str(k): dom.fmt(d) for k, d in sorted(outline.pre.items())},
                EXIT: dom.fmt(outline.exit) if outline.exit is not None else None,
            },
        }
    return {
        "verdict": result.verdict,
        "ops": result.metrics.ops,
        "time_s": result.metrics.time_s,
        "converged": result.converged,
        "mode": result.config.mode,
        "domain": result.config.domain,
        "n": result.config.n if result.config.n is not None else len(result.program.variables),
        "threads": threads,
    }


def render_text(result: AnalysisResult, ascii_only: bool = False) -> str:
    from .lang import format_cond, format_expr  # local import to avoid cycle noise

    dom, cw = result.domain, result.cw
    lines: list[str] = []

    def emit_inst(inst, outline: ProofOutline, indent: int) -> None:
        pad = "    " * indent
        if isinstance(inst, Seq):
            for item in inst.items:
                emit_inst(item, outline, indent)
            return
        if isinstance(inst, Skip):
            if inst.label is None:
                return
            lines.append(f"{pad}   {dom.fmt(outline.pre[inst.label], ascii_only)}")
            lines.append(f"{pad}{inst.label}: skip;")
            return
        if isinstance(inst, Assign):
            lines.append(f"{pad}   {dom.fmt(outline.pre[inst.label], ascii_only)}")
            lhs = ", ".join(inst.targets)
            rhs = ", ".join(format_expr(e) for e in inst.exprs)
            lines.append(f"{pad}{inst.label}: {lhs} := {rhs};")
            return
        if isinstance(inst, Ite):
            lines.append(f"{pad}   {dom.fmt(outline.pre[inst.label], ascii_only)}")
            lines.append(f"{pad}{inst.label}: if ({format_cond(inst.cond)}) {{")
            emit_inst(inst.then, outline, indent + 1)
            if not (isinstance(inst.els, Skip) and inst.els.label is None):
                lines.append(f"{pad}}} else {{")
                emit_inst(inst.els, outline, indent + 1)
            lines.append(f"{pad}}}")
            return
        if isinstance(inst, While):
            lines.append(f"{pad}   {dom.fmt(outline.pre[inst.label], ascii_only)}")
            lines.append(f"{pad}{inst.label}: while ({format_cond(inst.cond)}) {{")
            emit_inst(inst.body, outline, indent + 1)
            lines.append(f"{pad}}}")
            return
        raise TypeError(inst)

    for t in result.program.threads:
        outline = result.outlines[t.tid]
        lines.append(f"thread {t.tid}:")
        emit_inst(t.body, outline, 1)
        lines.append(f"       {dom.fmt(outline.exit, ascii_only)}  (exit)")
        lines.append(f"    rely      = {cw.fmt(result.relies[t.tid], ascii_only)}")
        lines.append(f"    guarantee = {cw.fmt(result.guarantees[t.tid], ascii_only)}")
        lines.append("")
    lines.append(f"verdict:   {result.verdict}")
    lines.append(f"converged: {result.converged}")
    lines.append(f"ops:       {result.metrics.ops}")
    lines.append(f"time_s:    {result.metrics.time_s:.4f}")
    return "\n".join(lines) + "\n"
