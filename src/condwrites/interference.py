"""Conditional-writes interference lattice over a pluggable state domain.

An interference element maps variables to the abstract state under which
each may be written (its write-condition). A transition changing v is
admitted only if its pre-state satisfies v's write-condition.

Interferences are sparse: a variable missing from the dict has write-condition
⊥ (nothing writes it), and no ⊥ value is ever stored, so dict `==` is
lattice equality. `bot()` is `{}`, `transitions` holds only the assignment's
targets, and `join`, `leq`, `close` and the domains' write-set walks touch
only the keys present, as a join or meet with ⊥ is neither performed nor
counted (see `domains`).

The contract is `CondWrites.stabiliser(i, transitive)`, which
`engine.collect` applies at each point of a pass under the rely i: one step,
or in non-transitive mode the step's least fixpoint. The step joins
havoc(d ⊓ wc_S, S) over every feasible write set S of at most n variables,
where wc_S is the meet of i[v] over v in S, and folds the feasible
(n+1)-sets into one coarse havoc; n is a precision parameter of the domain.
The enumeration walks up to 2^|V| subsets; the domain's `stabiliser(i)`
computes it as d ↦ stabilise(i, d): the const closed form, which decides
each meet by the count test on d | i[u], or the powerset fused pass over a
write-set plan built when it is called. `stabilise` and
`stabilise_fix` are one-line applications of `stabiliser`, kept only for
the tests and for the perfbench tracer, which patches them by name. As
`engine.collect` applies `stabiliser` and calls neither, the tracer's
`interference.stabilise.*` and `interference.stabilise_fix.*` figures read
0, and their time is billed to `engine.collect`'s self time.

`CondWrites.close(i)` repeats the domain's `close_one(i, v)` for every v
until nothing grows, in the fuelled loop of `stabilise_fix`. `close_one`
joins into i[v] one term per write set S of the variables i[v] binds: with
wc_S the meet of i[u] over S and h = havoc(i[v], S), the term is wc_S if
wc_S ⊑ h, else h ⊓ wc_S.

`CondWrites` owns every memo, and the domain keeps none. The key of a rely
is its write-conditions, the frozenset of i's items. `stabiliser` keeps one
step per key: on a new key it calls the domain's `stabiliser(i)` once, so
the powerset builds its write-set plan once per rely, with counted meets,
and wraps it in a memo from d to the result. `close` is memoised on the
same key, and its fixpoint loop over the domain's `close_one` runs only on
a miss. The keys hold values, not identities: lattice elements are
interned bitsets, frozensets of them, or the const bottom sentinel, equal
only to itself (see `domains`), which hash by content, and equal sparse
interferences have equal item sets. Both memos are exact because the domain's steps, and so
`close`, are pure functions of their arguments and of the instance's fixed
`dom` and `fuel`; a `close` that runs out of fuel raises and stores
nothing. `analyse` builds one domain and one `CondWrites` per call, so the
memos, and the write-set plans, live for one analysis. A hit performs no
lattice operation and so counts no ops; `memo_hits` counts the hits of
both memos, in a one-element list that the memoised steps share instead of
`self`. So no step refers back to its `CondWrites`, an analysis holds no
reference cycle, and its memos and plans are freed by reference counting
when `analyse` returns and its result is dropped. When each step counted
into `self`, every analysis left its whole state behind as cyclic garbage,
and a gen-0 collection ran every two or three analyses, inside whichever
timed call was active.

This module formats nothing: an element prints through its domain's `fmt`,
and `engine.to_machine` prints an interference's write-conditions.
"""

from __future__ import annotations

from functools import partial

from .lang import Assign
from .domains import StateDomain

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
        self._stabilisers: dict = {}  # write-conditions -> memoised step
        self._close_memo: dict = {}  # write-conditions -> closed interference
        # stabilise and close calls answered from a memo; the memoised steps
        # count into this list, not into self, so they hold no cycle
        self._hits = [0]

    @property
    def memo_hits(self) -> int:
        return self._hits[0]

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

    # -- interference application and derivation ------------------------------

    def _fix(self, step, d, leq=None, name="stabilise_fix"):
        # apply step from d until its result is leq (default dom.leq) its input
        cur = d
        for _ in range(self.fuel):
            nxt = step(cur)
            if (leq or self.dom.leq)(nxt, cur):
                return nxt
            cur = nxt
        raise FuelExhausted(f"{name} did not converge in {self.fuel} steps")

    def stabilise(self, i: Interference, d):
        """Weaken d to include every state reachable in one step of i."""
        return self.stabiliser(i, True)(d)

    def stabilise_fix(self, i: Interference, d):
        """Least fixpoint of stabilise: closes d under any number of i-steps."""
        return self.stabiliser(i, False)(d)

    def stabiliser(self, i: Interference, transitive: bool):
        """d ↦ stabilise(i, d) if transitive, else its least fixpoint, at the
        domain's precision (see the module docstring). Memoised for the
        lifetime of this instance on (i's write-conditions, d): a miss runs
        the domain's step, and a repeated input returns the stored result
        without lattice operations. A collecting pass under one rely looks
        it up once and applies it at every point."""
        key = frozenset(i.items())
        step = self._stabilisers.get(key)
        if step is None:
            stab, memo, hits = self.dom.stabiliser(i), {}, self._hits

            def step(d):
                out = memo.get(d)
                if out is None:
                    out = memo[d] = stab(d)
                else:
                    hits[0] += 1
                return out

            self._stabilisers[key] = step
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
            self._hits[0] += 1
            return out
        out = self._close_memo[key] = self._fix(
            lambda cur: {v: self.dom.close_one(cur, v) for v in cur},
            i, self.leq, "close")
        return out
