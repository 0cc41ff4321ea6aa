"""The collecting pass before it was reduced to the state alone, kept
verbatim as the differential reference for `condwrites.engine.collect`.

It threads (state, guarantee) through every statement, joins the guarantee
at each assignment, branch merge and loop pass, and runs one more loop pass
whenever only the guarantee grew. Only `tests/test_engine_reference.py`
uses it.
"""

from __future__ import annotations

from condwrites.lang import Assign, Ite, Seq, Skip, While, negate
from condwrites.engine import ProofOutline
from condwrites.interference import CondWrites, FuelExhausted, Interference


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
