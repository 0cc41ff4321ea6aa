"""Conditional-writes interference lattice over a pluggable state domain.

An interference element maps variables to the abstract state under which
each may be written (its write-condition). A transition changing v is
admitted only if its pre-state satisfies v's write-condition.

Interferences are sparse: a variable missing from the dict has write-condition
⊥ (nothing writes it), and no ⊥ value is ever stored, so dict `==` is
lattice equality. `bot()` is `{}`, `transitions` holds only the assignment's
targets, and `join`, `leq` and `close` touch only the keys present. So no
join with a ⊥ write-condition is performed: `join(⊥, x)` is x, the rule by
which the engine starts no fold from bottom, applied per variable.

The contract is `CondWrites.stabiliser(i, transitive)`, which
`engine.collect` applies at each point of a pass under the rely i: one step,
or in non-transitive mode the step's least fixpoint. The step joins
havoc(d ⊓ wc_S, S) over every feasible write set S of at most n variables,
where wc_S is the meet of i[v] over v in S, and folds the feasible
(n+1)-sets into one coarse havoc; n is a precision parameter of the domain.
The enumeration walks up to 2^|V| subsets; a miss runs the domain's
`stabilise(i, d)`, the const closed form or the powerset fused pass over a
write-set plan. `stabilise` and `stabilise_fix`, the same per call, remain
only for the tests and for the perfbench tracer, which patches them by name.

`CondWrites.close(i)` repeats the domain's `close_one(i, v)` for every v
until nothing grows. `close_one` joins into i[v] one term per write set S
of the variables i[v] binds: with wc_S the meet of i[u] over S and
h = havoc(i[v], S), the term is wc_S if wc_S ⊑ h, else h ⊓ wc_S.

`stabilise` is memoised per `CondWrites` instance for every domain, in two
levels: the write-conditions, as the frozenset of i's items, key one memo
per rely, from d to the result, and the domain's `stabilise` runs only on a
miss. `stabiliser` looks up i's memo once, `stabilise` on every call.
`close` is memoised on the same key, and its fixpoint loop over the
domain's `close_one` runs only on a miss. The keys hold values, not
identities: lattice elements are frozensets (or the const bottom sentinel,
equal only to itself), which hash by content and cache their hash, and
equal sparse interferences have equal item sets. Looking up a rely's memo
builds nothing in the domain: the powerset builds its write-set plan, with
counted meets, on the first miss under that rely. Both memos are exact
because the domain's `stabilise` and `close_one`, and so `close`, are pure
functions of their arguments and of the instance's fixed `dom` and `fuel`;
a `close` that runs out of fuel raises and stores nothing. `analyse` builds
one domain and one `CondWrites` per call, so the memos, and the domain's
write-set plans, live for one analysis. A hit performs no lattice operation
and so counts no ops; `memo_hits` counts the hits of both memos.
"""

from __future__ import annotations

from functools import partial

from .lang import Assign
from .domains import GLYPHS, StateDomain

# Interference elements are plain sparse dicts var -> non-bottom domain
# element; a missing variable's write-condition is bottom. Treated as
# immutable. Both domains' elements compare by content and no bottom is
# stored, so `==` on interferences is lattice equality.
Interference = dict


class FuelExhausted(Exception):
    pass


class CondWrites:
    def __init__(self, dom: StateDomain, fuel: int = 1000):
        self.dom = dom
        self.fuel = fuel
        self._stabilise_memo: dict = {}  # write-conditions -> {d -> result}
        self._close_memo: dict = {}  # write-conditions -> closed interference
        self.memo_hits = 0  # stabilise and close calls answered from a memo

    # -- lattice ------------------------------------------------------------

    def bot(self) -> Interference:
        return {}

    def join(self, i1: Interference, i2: Interference) -> Interference:
        out = dict(i1)
        for v, wc in i2.items():
            out[v] = self.dom.join(out[v], wc) if v in out else wc
        return out

    def leq(self, i1: Interference, i2: Interference) -> bool:
        return all(v in i2 and self.dom.leq(wc, i2[v]) for v, wc in i1.items())

    def fmt(self, i: Interference, ascii_only: bool = False) -> str:
        arrow = GLYPHS[ascii_only][2]
        bot = self.dom.bot()
        body = ", ".join(
            f"{v}{arrow}{self.dom.fmt(i.get(v, bot), ascii_only)}"
            for v in self.dom.variables
        )
        return f"[{body}]"

    # -- interference application and derivation ------------------------------

    def _memo(self, i: Interference) -> dict:
        """The stabilise memo of i's write-conditions: d -> result."""
        key = frozenset(i.items())
        memo = self._stabilise_memo.get(key)
        if memo is None:
            memo = self._stabilise_memo[key] = {}
        return memo

    def _stabilise(self, i: Interference, memo: dict, d):
        out = memo.get(d)
        if out is not None:
            self.memo_hits += 1
            return out
        out = memo[d] = self.dom.stabilise(i, d)
        return out

    def _fix(self, step, d):
        cur = d
        for _ in range(self.fuel):
            nxt = step(cur)
            if self.dom.leq(nxt, cur):
                return nxt
            cur = nxt
        raise FuelExhausted(f"stabilise_fix did not converge in {self.fuel} steps")

    def stabilise(self, i: Interference, d):
        """Weaken d to include every state reachable in one step of i, at
        the domain's precision (see the module docstring). Memoised for the
        lifetime of this instance on (i's write-conditions, d); a miss runs
        the domain's `stabilise`, and a repeated input returns the stored
        result without lattice operations.
        """
        return self._stabilise(i, self._memo(i), d)

    def stabilise_fix(self, i: Interference, d):
        """Least fixpoint of stabilise: closes d under any number of i-steps."""
        return self._fix(lambda cur: self.stabilise(i, cur), d)

    def stabiliser(self, i: Interference, transitive: bool):
        """`stabilise(i, ·)` if transitive, else `stabilise_fix(i, ·)`, as a
        function of d that shares the memo of i's write-conditions, looked
        up once here rather than once per call. A collecting pass under one
        rely applies it at every point."""
        step = partial(self._stabilise, i, self._memo(i))
        return step if transitive else partial(self._fix, step)

    def transitions(self, d, a: Assign) -> Interference:
        """Interference induced by one assignment from pre-states in d: d
        for each target, and nothing from ⊥."""
        return {} if self.dom.is_bot(d) else dict.fromkeys(a.targets, d)

    def close(self, i: Interference) -> Interference:
        """Weaken write-conditions until the concretisation is transitive.
        Each step runs the domain's `close_one`. Memoised for the lifetime
        of this instance on i's write-conditions; a repeated input returns
        the stored result without lattice operations. Only the present keys
        are weakened: `close_one` keeps a ⊥ write-condition ⊥."""
        key = frozenset(i.items())
        out = self._close_memo.get(key)
        if out is not None:
            self.memo_hits += 1
            return out
        cur = i
        for _ in range(self.fuel):
            nxt = {v: self.dom.close_one(cur, v) for v in cur}
            if self.leq(nxt, cur):
                self._close_memo[key] = nxt
                return nxt
            cur = nxt
        raise FuelExhausted(f"close did not converge in {self.fuel} steps")
