"""The constant maps as frozensets of `(var, value)` bindings, the powerset
primitives before their one-disjunct fast paths, and the const stabilise
step before its count test, kept as the differential reference for
`condwrites.domains`.

The `cm_*` functions, `pw_normalize` and `fmt_cm` are the bodies the
analyzer ran before constant maps became interned bitsets. A map here is a
frozenset binding each variable at most once: `CM_TOP` is the empty
frozenset and bottom is the analyzer's own sentinel `CM_BOT`, so `ref`
turns an analyzer element into this module's form through `cm_items`.
`cm_eval` evaluates an expression over such a map's bindings, the rule the
analyzer's `domains._eval` applies to its own maps.

`leq`, `join`, `meet`, `havoc`, `post` and `filter_cmp` are the bodies of
the `ConstPowersetDomain` methods of those names over these maps, written
as functions of the domain `self`, whose counters `ops` and `cap_collapses`
and cap `max_disjuncts` they use: apart from the ⊥ operands of a join or
meet and a join whose one antichain holds the other, every result goes
through `make`, so it is normalised and capped whatever the operands'
sizes; `contains` and `fmt_pw` are the powerset's `contains` and `fmt`.
`const_stabiliser` is `ConstDomain.stabiliser` as the closed form
reads, on the analyzer's own maps: it builds and counts the meet of d with
every write-condition of i, and havocs the variables whose meet is not ⊥.
Only the tests use these.
"""

from __future__ import annotations

import itertools
from functools import partial

from condwrites.domains import CM_BOT, cm_items, fmt_map
from condwrites.lang import (
    CMP_OPS, Assign, Cmp, EvalOverflow, Expr, Lit, VarRef, eval_expr,
)

CM_TOP = frozenset()
PW_BOT = frozenset()
PW_TOP = frozenset({CM_TOP})


def ref(d):
    """An analyzer constant map in this module's form."""
    return CM_BOT if d is CM_BOT else frozenset(cm_items(d))


def ref_pw(d) -> frozenset:
    """An analyzer powerset element in this module's form."""
    return frozenset(map(ref, d))


# -- constant maps ---------------------------------------------------------------


def cm_make(bindings: dict[str, int]) -> frozenset:
    return frozenset(bindings.items())


def cm_leq(d1, d2) -> bool:
    if d1 is CM_BOT:
        return True
    if d2 is CM_BOT:
        return False
    return d2 <= d1


def cm_join(d1, d2):
    if d1 is CM_BOT:
        return d2
    if d2 is CM_BOT:
        return d1
    return d1 & d2


def cm_meet(d1, d2):
    if d1 is CM_BOT or d2 is CM_BOT:
        return CM_BOT
    merged = d1 | d2
    if len(dict(merged)) != len(merged):  # some variable bound to two values
        return CM_BOT
    return merged


def cm_havoc(d, drop: frozenset[str]):
    if d is CM_BOT:
        return CM_BOT
    return frozenset([b for b in d if b[0] not in drop])


def cm_contains(d, state: dict) -> bool:
    return d is not CM_BOT and d <= state.items()


def cm_eval(e: Expr, s: dict) -> int | None:
    """Abstract expression evaluation over s, a constant map's bindings as a
    dict: the concrete value, or None (unknown) when e reads an unbound
    variable or overflows 64 bits."""
    if isinstance(e, Lit):
        return e.n
    if isinstance(e, VarRef):
        return s.get(e.name)
    try:
        return eval_expr(e, s)
    except (KeyError, EvalOverflow):
        return None


def cm_post(a: Assign, d):
    if d is CM_BOT:
        return CM_BOT
    s = dict(d)
    # every right-hand side reads the old bindings; the targets are distinct
    values = [cm_eval(e, s) for e in a.exprs]
    for v, n in zip(a.targets, values):
        if n is None:
            s.pop(v, None)
        else:
            s[v] = n
    return frozenset(s.items())


def cm_filter_cmp(c: Cmp, d):
    if d is CM_BOT:
        return CM_BOT
    s = dict(d)
    lv = cm_eval(c.left, s)
    rv = cm_eval(c.right, s)
    if lv is not None and rv is not None:
        return d if CMP_OPS[c.op](lv, rv) else CM_BOT
    if c.op == "==":
        # refine an unbound variable compared against a known constant
        if isinstance(c.left, VarRef) and lv is None and rv is not None:
            return cm_meet(d, cm_make({c.left.name: rv}))
        if isinstance(c.right, VarRef) and rv is None and lv is not None:
            return cm_meet(d, cm_make({c.right.name: lv}))
    return d


def fmt_cm(d) -> str:
    if d is CM_BOT:
        return "⊥"
    return fmt_map(sorted(d)) if d else "⊤"


# -- the powerset over these maps ------------------------------------------------


def pw_normalize(maps) -> frozenset:
    # keep the maximal maps: those whose bindings strictly contain no other's
    uniq = set(maps)
    uniq.discard(CM_BOT)
    if len(uniq) < 2:
        return frozenset(uniq)
    kept: list[frozenset] = []
    for m in sorted(uniq, key=len):
        for k in kept:
            if k < m:
                break
        else:
            kept.append(m)
    return frozenset(kept)


def cap(self, d):
    if len(d) <= self.max_disjuncts:
        return d
    self.cap_collapses += 1
    return frozenset({frozenset.intersection(*d)})


def make(self, maps):
    return cap(self, pw_normalize(maps))


def leq(self, d1, d2) -> bool:
    # Hoare order: sound, possibly incomplete
    return all(any(m2 <= m1 for m2 in d2) for m1 in d1)


def join(self, d1, d2):
    if not d1:
        return d2
    if not d2:
        return d1
    self.ops += 1
    if d1 <= d2:
        return d2
    if d2 <= d1:
        return d1
    return make(self, d1 | d2)


def meet(self, d1, d2):
    if not d1 or not d2:
        return PW_BOT
    self.ops += 1
    return make(self, (cm_meet(m1, m2) for m1 in d1 for m2 in d2))


def havoc(self, d, drop: frozenset[str]):
    return make(self, map(cm_havoc, d, itertools.repeat(drop)))


def post(self, a: Assign, d):
    return make(self, map(partial(cm_post, a), d))


def filter_cmp(self, c: Cmp, d):
    return make(self, map(partial(cm_filter_cmp, c), d))


def contains(self, d, state: dict) -> bool:
    return any(cm_contains(m, state) for m in d)


def fmt_pw(d) -> str:
    if not d:
        return "⊥"
    if d == PW_TOP:
        return "⊤"
    return "{" + "; ".join(map(fmt_cm, sorted(d, key=sorted))) + "}"


# -- the const stabilise step ----------------------------------------------------


def const_stabiliser(self, i: dict):
    def step(d):
        touched = frozenset(u for u, wc in i.items()
                            if self.meet(d, wc) is not CM_BOT)
        return self.havoc(d, touched)
    return step
