"""The subset enumerations before the per-rely write-set plan, kept as the
differential reference for `CondWrites._stabilise_enum` and
`CondWrites._close_one`.

Each subset starts its write-condition meet from `dom.top()`, and every
call re-folds every subset's meets. The prunings are keyword arguments, all
off by default: `b1` skips the supersets of a write set whose wc is bottom
in `stabilise_enum`; `b2a` restricts `close_one` to the variables the
write-condition constrains, and `b2b` skips the strict supersets of a set
whose meet its havoc covers. The production walks always prune. Only the
tests use these. They are written as functions of a `CondWrites` instance
`self`, whose `dom`, `fuel`, `leq` and `_subsets` they read.
"""

from __future__ import annotations

from condwrites.interference import CondWrites, FuelExhausted, Interference


def stabilise_enum(self: CondWrites, i: Interference, d, n: int, *,
                   b1: bool = False):
    # the generic subset enumeration, and the reference for closed forms
    dom = self.dom
    variables = sorted(dom.variables)
    acc = d
    y_acc = dom.bot()
    y_vars: set[str] = set()
    blocked: list[frozenset[str]] = []
    for combo in self._subsets(variables, min(n + 1, len(variables))):
        vset = frozenset(combo)
        if b1 and any(b <= vset for b in blocked):
            continue
        wc = dom.top()
        for v in combo:
            wc = dom.meet(wc, i[v])
        if dom.is_bot(wc):
            if b1:
                blocked.append(vset)
            continue
        m = dom.meet(d, wc)
        if len(combo) <= n:
            acc = dom.join(acc, dom.havoc(m, vset))
        elif not dom.is_bot(m):
            y_acc = dom.join(y_acc, m)
            y_vars |= vset
    if y_vars:
        acc = dom.join(acc, dom.havoc(y_acc, frozenset(y_vars)))
    return acc


def close_one(self: CondWrites, i: Interference, v: str, *,
              b2a: bool = False, b2b: bool = False):
    dom = self.dom
    iv = i[v]
    if b2a:
        candidates = sorted(
            u for u in dom.variables if dom.havoc(iv, frozenset((u,))) != iv
        )
    else:
        candidates = sorted(dom.variables)
    acc = iv  # empty-set term: havoc by nothing meets the empty meet (top)
    dominated: list[frozenset[str]] = []
    for combo in self._subsets(candidates, len(candidates)):
        if not combo:
            continue
        vset = frozenset(combo)
        if b2b and any(d0 < vset for d0 in dominated):
            continue
        h = dom.havoc(iv, vset)
        m = dom.top()
        for u in combo:
            m = dom.meet(m, i[u])
        if b2b and dom.leq(m, h):
            dominated.append(vset)
            acc = dom.join(acc, m)
        else:
            acc = dom.join(acc, dom.meet(h, m))
    return acc


def close(self: CondWrites, i: Interference, *, b2a: bool = False,
          b2b: bool = False) -> Interference:
    """`CondWrites.close`'s fixpoint over `close_one`, without the memo."""
    cur = i
    for _ in range(self.fuel):
        nxt = {v: close_one(self, cur, v, b2a=b2a, b2b=b2b)
               for v in self.dom.variables}
        if self.leq(nxt, cur):
            return nxt
        cur = nxt
    raise FuelExhausted(f"close did not converge in {self.fuel} steps")
