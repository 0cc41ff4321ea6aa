"""Conditional-writes interference lattice over a pluggable state domain.

An interference element maps every program variable to the abstract state
under which it may be written (its write-condition). A transition changing
v is admitted only if its pre-state satisfies v's write-condition.

`CondWrites.stabilise(i, d, n)` joins havoc(d ⊓ wc_S, S) over every feasible
write set S of at most n variables, where wc_S is the meet of i[v] over v in
S, and folds the feasible (n+1)-sets into one coarse havoc. The enumeration
walks up to 2^|V| subsets; a miss runs the domain's `stabilise(i, d, n)`,
the const closed form or the powerset fused pass over a write-set plan.

`CondWrites.close(i)` repeats the domain's `close_one(i, v)` for every v
until nothing grows. `close_one` joins into i[v] one term per write set S
of the variables i[v] binds: with wc_S the meet of i[u] over S and
h = havoc(i[v], S), the term is wc_S if wc_S ⊑ h, else h ⊓ wc_S.

`stabilise` is memoised per `CondWrites` instance for every domain, keyed on
(the write-conditions in variable order, d, n): the domain's `stabilise`
runs only on a miss. `close` is memoised the same way on the
write-conditions in variable order, and its fixpoint loop over the domain's
`close_one` runs only on a miss. The keys hold values, not identities:
lattice elements are frozensets (or the const bottom sentinel, equal only
to itself), which hash by content and cache their hash. Both memos are
exact because the domain's `stabilise` and `close_one`, and so `close`, are
pure functions of their arguments and of the instance's fixed `dom` and
`fuel`; a `close` that runs out of fuel raises and stores nothing.
`analyse` builds one domain and one `CondWrites` per call, so the memos,
and the domain's write-set plans, live for one analysis. A hit performs no
lattice operation and so counts no ops; `memo_hits` counts the hits of both
memos.
"""

from __future__ import annotations

from .lang import Assign
from .domains import StateDomain

# Interference elements are plain dicts var -> domain element, total over
# the domain's variable set. Treated as immutable. Both domains' elements
# compare by content, so `==` on interferences is lattice equality.
Interference = dict


class FuelExhausted(Exception):
    pass


class CondWrites:
    def __init__(self, dom: StateDomain, fuel: int = 1000):
        self.dom = dom
        self.fuel = fuel
        self._stabilise_memo: dict = {}  # (write-conditions, d, n) -> result
        self._close_memo: dict = {}  # write-conditions -> closed interference
        self.memo_hits = 0  # stabilise and close calls answered from a memo

    # -- lattice ------------------------------------------------------------

    def bot(self) -> Interference:
        return {v: self.dom.bot() for v in self.dom.variables}

    def join(self, i1: Interference, i2: Interference) -> Interference:
        return {v: self.dom.join(i1[v], i2[v]) for v in self.dom.variables}

    def leq(self, i1: Interference, i2: Interference) -> bool:
        return all(self.dom.leq(i1[v], i2[v]) for v in self.dom.variables)

    def fmt(self, i: Interference, ascii_only: bool = False) -> str:
        arrow = "|->" if ascii_only else "↦"
        body = ", ".join(
            f"{v}{arrow}{self.dom.fmt(i[v], ascii_only)}" for v in self.dom.variables
        )
        return f"[{body}]"

    # -- interference application and derivation ------------------------------

    def stabilise(self, i: Interference, d, n: int):
        """Weaken d to include every state reachable in one step of i.

        Transitions touching at most n variables are handled exactly; larger
        write sets are folded into a single coarse havoc over the variables
        occurring in any feasible (n+1)-set. Memoised for the lifetime of
        this instance on (i's write-conditions in variable order, d, n); a
        miss runs the domain's `stabilise`, and a repeated input returns the
        stored result without lattice operations.
        """
        key = (tuple(i[v] for v in self.dom.variables), d, n)
        out = self._stabilise_memo.get(key)
        if out is not None:
            self.memo_hits += 1
            return out
        out = self._stabilise_memo[key] = self.dom.stabilise(i, d, n)
        return out

    def stabilise_fix(self, i: Interference, d, n: int):
        """Least fixpoint of stabilise: closes d under any number of i-steps."""
        cur = d
        for _ in range(self.fuel):
            nxt = self.stabilise(i, cur, n)
            if self.dom.leq(nxt, cur):
                return nxt
            cur = nxt
        raise FuelExhausted(f"stabilise_fix did not converge in {self.fuel} steps")

    def transitions(self, d, a: Assign) -> Interference:
        """Interference induced by one assignment from pre-states in d."""
        out = self.bot()
        for v in a.targets:
            out[v] = d
        return out

    def close(self, i: Interference) -> Interference:
        """Weaken write-conditions until the concretisation is transitive.
        Each step runs the domain's `close_one`. Memoised for the lifetime
        of this instance on i's write-conditions in variable order; a
        repeated input returns the stored result without lattice operations."""
        key = tuple(i[v] for v in self.dom.variables)
        out = self._close_memo.get(key)
        if out is not None:
            self.memo_hits += 1
            return out
        cur = i
        for _ in range(self.fuel):
            nxt = {v: self.dom.close_one(cur, v) for v in self.dom.variables}
            if self.leq(nxt, cur):
                self._close_memo[key] = nxt
                return nxt
            cur = nxt
        raise FuelExhausted(f"close did not converge in {self.fuel} steps")
