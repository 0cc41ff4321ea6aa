"""Conditional-writes interference lattice over a pluggable state domain.

An interference element maps every program variable to the abstract state
under which it may be written (its write-condition). A transition changing
v is admitted only if its pre-state satisfies v's write-condition.

`CondWrites.stabilise(i, d, n)` joins havoc(d ⊓ wc_S, S) over every feasible
write set S of at most n variables, where wc_S is the meet of i[v] over v in
S, and folds the feasible (n+1)-sets into one coarse havoc. The enumeration
walks up to 2^|V| subsets. For flat constant maps it has a closed form,
`ConstDomain.stabilise`, equal to it for every n:

    stabilise(i, d, n) = havoc(d, {u | d ⊓ i[u] ≠ ⊥})

Feasibility is downward closed: wc_S only shrinks as S grows, so every
variable u of a write set with d ⊓ wc_S ≠ ⊥ has d ⊓ i[u] ≠ ⊥, and each such
u is itself a feasible singleton (exact when n ≥ 1, in the coarse term when
n = 0). Every term binds what d binds, plus wc_S's bindings, minus S; the
empty write set contributes d itself, and the flat join intersects bindings.
So the join keeps exactly the bindings of d whose variable no write set
feasible with d touches, and ⊥ stays ⊥.

`CondWrites.close(i)` repeats `_close_one(i, v)` for every v until nothing
grows. `_close_one` joins into i[v] one term per write set S of the
variables i[v] binds: with wc_S the meet of i[u] over S and
h = havoc(i[v], S), the term is wc_S if wc_S ⊑ h, else h ⊓ wc_S. For flat
constant maps it too has a closed form, `ConstDomain.close_one`, which
visits one write set per binding of i[v]. Call S closed if y ∈ S whenever
some u ∈ S has i[u] binding a variable y of i[v] to a value other than
i[v]'s. If S is not closed, h keeps i[v]'s binding of such a y, h ⊓ wc_S is
⊥, and the term adds nothing. If S is closed and wc_S ≠ ⊥, the term is the
union of the bindings of h and wc_S. The join intersects bindings, so a
binding (x, c) of i[v] is dropped iff some closed S ∋ x has wc_S ≠ ⊥ and no
u ∈ S binds (x, c) in i[u]. The least closed set S_x ∋ x, a Horn-clause
least model, lies inside every closed S ∋ x, and a larger S only shrinks
wc_S and adds members: once wc_{S_x} is ⊥ or binds (x, c), so does wc_S. So
S_x alone decides (x, c). A term never drops a binding that its own least
set keeps: S_x's term drops (y, c') only for y ∈ S_x, where S_y ⊆ S_x, so
wc_{S_y} binding (y, c') or being ⊥ would carry over to wc_{S_x}. So the
terms of the distinct least sets, joined into i[v], drop exactly what the
walk drops. ⊥ and ⊤ have no bindings to drop and stay as they are.

The closed form's op accounting: each distinct least set costs |S| - 1
counted meets for wc_S, folded from its first member in sorted order. The
fold does not stop at ⊥, so the ops do not depend on the variable names. A
set whose wc_S is ⊥ costs nothing more; otherwise its term costs one join,
plus one meet when wc_S ⋢ h. The closures, havocs and ⊑ tests are
uncounted, like the walk's choice of candidate variables. On random inputs
over up to 5 variables it never counts more ops than the pruned walk, and
the tests check that.
`close` calls a domain's `close_one` when it has one; `_close_one` stays the
powerset path and the const reference in the tests.

The subset walks always prune. `stabilise`'s skips every superset of a
write set whose wc is bottom, as the same downward closure makes the
superset's exact wc bottom too. `_close_one` considers only the variables
a write-condition constrains, and skips the strict supersets of a set whose
meet its havoc already covers. Each skipped term's exact value lies below a
kept term's, so where meets and joins are exact (the flat domain, and the
powerset while no result exceeds its cap) the pruning changes no value.
When the cap collapses disjuncts inside a meet or join, `close`'s pruned
result can differ from the unpruned walk's; on random inputs at caps 2-4
it then lay below it. The unpruned walks are kept as the differential
reference in `tests/reference_interference.py`.

`stabilise` is memoised per `CondWrites` instance for every domain, keyed on
(the write-conditions in variable order, d, n): the closed form or the
enumeration runs only on a miss. `close` is memoised the same way on the
write-conditions in variable order, and its fixpoint loop over the closed
form or `_close_one` runs only on a miss. The keys hold values, not
identities: lattice elements are frozensets (or the const bottom sentinel,
equal only to itself), which hash by content and cache their hash. Both
memos are exact because the closed forms, `_stabilise_enum` and `close` are
pure functions of their arguments and of the instance's fixed `dom` and
`fuel`; a `close` that runs out of fuel raises and stores nothing.
`analyse` builds one `CondWrites` per call, so the memos live for one
analysis. A hit performs no lattice operation and so counts no ops;
`memo_hits` counts the hits of both memos.

The write-conditions do not depend on d, so the walk is split in two.
`_write_sets(i, n)` is the plan: the write sets with a non-bottom wc_S that
the pruning keeps, in walk order, each with its wc_S. It is built once per
instance for each (write-conditions in variable order, n), so every
`stabilise` under one rely shares it, and `_stabilise_enum` only meets d with
each wc_S, havocs and joins. The walk yields each set after its prefix, the
set minus its last variable, so wc_S is one meet of the prefix's wc with
i[last]; a singleton's wc is i[v], and the empty set's term is d itself.
A kept set's prefix is in the plan: had the prefix been skipped or met
bottom, the set would have been skipped as a superset. The coarse term's
join starts from its first operand, as ⊥ ⊔ x = x. `_close_one` shares its
prefix meets the same way within one call.

This is exact also when the powerset cap collapses disjuncts inside a meet,
where meets no longer associate: the plan computes the same left fold,
top ⊓ i[v1] ⊓ … ⊓ i[vk] in variable order, as the walk that re-met each set
from top, because top ⊓ x = x. So every value equals that of the reference
walk with the same pruning, and only the ops of the repeated meets fall.
"""

from __future__ import annotations

import itertools
from typing import Iterator

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
        self._plans: dict = {}  # (write-conditions, n) -> write-set plan

    # -- lattice ------------------------------------------------------------

    def top(self) -> Interference:
        return {v: self.dom.top() for v in self.dom.variables}

    def bot(self) -> Interference:
        return {v: self.dom.bot() for v in self.dom.variables}

    def join(self, i1: Interference, i2: Interference) -> Interference:
        return {v: self.dom.join(i1[v], i2[v]) for v in self.dom.variables}

    def meet(self, i1: Interference, i2: Interference) -> Interference:
        return {v: self.dom.meet(i1[v], i2[v]) for v in self.dom.variables}

    def leq(self, i1: Interference, i2: Interference) -> bool:
        return all(self.dom.leq(i1[v], i2[v]) for v in self.dom.variables)

    def fmt(self, i: Interference, ascii_only: bool = False) -> str:
        arrow = "|->" if ascii_only else "↦"
        body = ", ".join(
            f"{v}{arrow}{self.dom.fmt(i[v], ascii_only)}" for v in self.dom.variables
        )
        return f"[{body}]"

    # -- interference application and derivation ------------------------------

    def _subsets(self, variables, max_card: int) -> Iterator[tuple[str, ...]]:
        # bottom-up, lexicographic within a cardinality: required by the
        # superset skipping and keeps op counts reproducible
        for k in range(0, max_card + 1):
            yield from itertools.combinations(variables, k)

    def stabilise(self, i: Interference, d, n: int):
        """Weaken d to include every state reachable in one step of i.

        Transitions touching at most n variables are handled exactly; larger
        write sets are folded into a single coarse havoc over the variables
        occurring in any feasible (n+1)-set. Memoised for the lifetime of
        this instance on (i's write-conditions in variable order, d, n); a
        miss runs the domain's closed form when it has one, else the subset
        enumeration, and a repeated input returns the stored result without
        lattice operations.
        """
        key = (tuple(i[v] for v in self.dom.variables), d, n)
        out = self._stabilise_memo.get(key)
        if out is not None:
            self.memo_hits += 1
            return out
        if self.dom.stabilise is not None:
            out = self.dom.stabilise(i, d)
        else:
            out = self._stabilise_enum(i, d, n)
        self._stabilise_memo[key] = out
        return out

    def _write_sets(self, i: Interference, n: int) -> dict:
        """The plan of the subset walk under i at precision n: each write set
        S of at most n + 1 variables with a non-bottom wc_S, as
        `combo: (vset, wc_S)` in walk order, starting with the empty set and
        its wc, top. Built once per instance for each (i's write-conditions
        in variable order, n). A singleton's wc is i[v]; a larger set's is
        one meet of its prefix's wc with i[last]. A superset of a set with
        bottom wc is skipped unvisited: its exact wc is bottom too."""
        key = (tuple(i[v] for v in self.dom.variables), n)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        dom = self.dom
        variables = sorted(dom.variables)
        plan = self._plans[key] = {}
        blocked: list[frozenset[str]] = []
        for combo in self._subsets(variables, min(n + 1, len(variables))):
            vset = frozenset(combo)
            if any(b <= vset for b in blocked):
                continue
            if len(combo) <= 1:
                wc = i[combo[0]] if combo else dom.top()
            else:
                wc = dom.meet(plan[combo[:-1]][1], i[combo[-1]])
            if dom.is_bot(wc):
                blocked.append(vset)
                continue
            plan[combo] = (vset, wc)
        return plan

    def _stabilise_enum(self, i: Interference, d, n: int):
        # the generic subset enumeration over the plan, and the reference for
        # closed forms; the empty write set's term is d itself, and the
        # coarse term starts from the first feasible (n+1)-set's meet
        dom = self.dom
        acc = d
        y_acc = None
        y_vars: set[str] = set()
        plan = self._write_sets(i, n).items()
        for combo, (vset, wc) in itertools.islice(plan, 1, None):
            m = dom.meet(d, wc)
            if len(combo) <= n:
                acc = dom.join(acc, dom.havoc(m, vset))
            elif not dom.is_bot(m):
                y_acc = m if y_acc is None else dom.join(y_acc, m)
                y_vars |= vset
        if y_acc is not None:
            acc = dom.join(acc, dom.havoc(y_acc, frozenset(y_vars)))
        return acc

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
        Each step runs the domain's closed form `close_one` when it has one,
        else the subset walk `_close_one`. Memoised for the lifetime of this
        instance on i's write-conditions in variable order; a repeated input
        returns the stored result without lattice operations."""
        key = tuple(i[v] for v in self.dom.variables)
        out = self._close_memo.get(key)
        if out is not None:
            self.memo_hits += 1
            return out
        close_one = self.dom.close_one or self._close_one
        cur = i
        for _ in range(self.fuel):
            nxt = {v: close_one(cur, v) for v in self.dom.variables}
            if self.leq(nxt, cur):
                self._close_memo[key] = nxt
                return nxt
            cur = nxt
        raise FuelExhausted(f"close did not converge in {self.fuel} steps")

    def _close_one(self, i: Interference, v: str):
        dom = self.dom
        iv = i[v]
        # only variables iv constrains: adding another to a write set keeps
        # its havoc and only shrinks its meet, so its term adds nothing
        candidates = sorted(
            u for u in dom.variables if dom.havoc(iv, frozenset((u,))) != iv
        )
        acc = iv  # empty-set term: havoc by nothing meets the empty meet (top)
        dominated: list[frozenset[str]] = []
        meets: dict[tuple[str, ...], object] = {}
        for combo in self._subsets(candidates, len(candidates)):
            if not combo:
                continue
            vset = frozenset(combo)
            # a strict superset of a dominated set meets below that set's
            # meet, which is already joined in whole
            if any(d0 < vset for d0 in dominated):
                continue
            h = dom.havoc(iv, vset)
            # a visited set's prefix was visited: a dominated set below the
            # prefix lies below the set too
            if len(combo) == 1:
                m = i[combo[0]]
            else:
                m = dom.meet(meets[combo[:-1]], i[combo[-1]])
            meets[combo] = m
            if dom.leq(m, h):
                dominated.append(vset)
                acc = dom.join(acc, m)
            else:
                acc = dom.join(acc, dom.meet(h, m))
        return acc
