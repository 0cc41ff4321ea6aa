"""The powerset primitives before their one-disjunct fast paths, `cm_post`
before its one-pass form, and the const stabilise step before its index,
kept as the differential reference for `condwrites.domains`.

`leq`, `join`, `meet`, `havoc`, `post` and `filter_cmp` are the bodies of
the `ConstPowersetDomain` methods of those names, written as functions of
the domain `self`: apart from the ⊥ operands of a join or meet and a join
whose one antichain holds the other, every result goes through `make`, so
it is normalised and capped whatever the operands' sizes. `post` maps this
module's `cm_post`, which havocs the targets and adds the known values as a
set union. `const_stabiliser` is `ConstDomain.stabiliser` as the closed
form reads: it builds and counts the meet of d with every write-condition
of i, and havocs the variables whose meet is not ⊥. Only the tests use
these.
"""

from __future__ import annotations

import itertools
from functools import partial

from condwrites.domains import (
    CM_BOT, PW_BOT, cm_eval, cm_filter_cmp, cm_havoc, cm_meet,
)
from condwrites.lang import Assign, Cmp


def cm_post(a: Assign, d):
    if d is CM_BOT:
        return CM_BOT
    s = dict(d)
    values = [cm_eval(e, s) for e in a.exprs]
    known = {(v, n) for v, n in zip(a.targets, values) if n is not None}
    return cm_havoc(d, frozenset(a.targets)) | known


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
    return self.make(d1 | d2)


def meet(self, d1, d2):
    if not d1 or not d2:
        return PW_BOT
    self.ops += 1
    return self.make(cm_meet(m1, m2) for m1 in d1 for m2 in d2)


def havoc(self, d, drop: frozenset[str]):
    return self.make(map(cm_havoc, d, itertools.repeat(drop)))


def post(self, a: Assign, d):
    return self.make(map(partial(cm_post, a), d))


def filter_cmp(self, c: Cmp, d):
    return self.make(map(partial(cm_filter_cmp, c), d))


def const_stabiliser(self, i: dict):
    def step(d):
        touched = frozenset(u for u, wc in i.items()
                            if self.meet(d, wc) is not CM_BOT)
        return self.havoc(d, touched)
    return step
