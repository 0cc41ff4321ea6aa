"""The subset enumerations before the per-rely write-set plan, and the
placements of the powerset disjunct cap, kept as the differential reference
for `CondWrites.stabilise` and the domains' `close_one`.

`stabilise_enum` and `close_one` start each subset's write-condition meet
from `dom.top()`, and every call re-folds every subset's meets. The
prunings are keyword arguments, all off by default: `b1` skips the
supersets of a write set whose wc is bottom in `stabilise_enum`; `b2a`
restricts `close_one` to the variables the write-condition constrains, by
the one-havoc-per-variable test of `havoc_candidates`, and
`b2b` skips the strict supersets of a set whose meet its havoc covers. The
production walks always prune.

`pruned_close_one` is the walk of `ConstPowersetDomain.close_one` written
for any domain, with both prunings and each set's meet one meet of its
prefix's. The const domain's `close_one` is a closed form instead, and the
tests check it against this walk: equal values, never more ops.

`stabilise_enum` takes the precision bound n, as the const domain has none
and its closed form equals the enumeration for every n. A powerset
`stabilise` runs at its domain's n and caps its result once. Its spec is
`stabilise_cap_once`: the enumeration at that n on an uncapped copy of the
domain, capped once, which the production pass equals wherever building the
write-set plan collapsed nothing. `stabilise_over_plan` is the same spec
over a plan whose write-conditions a collapse has already widened, and
`stabilise_walk` on the capped domain is the placement before it, which
capped inside every meet and join: its values are those of `stabilise_enum`
with `b1` on the capped domain, and its ops those of the production pass.

Interferences are sparse, as in `condwrites.interference`: a variable
missing from i reads as bottom. Only the tests use these. Most are written
as functions of a `CondWrites` instance `self`, whose `dom`, `fuel` and
`leq` they read, and walk `subsets`; `pruned_close_one` takes the
domain itself. `stabilise_walk` and `stabilise_over_plan` take a powerset
domain, a state and a plan of its `_write_sets`, the arguments of its
`stabilise_plan`, read the domain's n, and walk every write set of the plan
in walk order (`plan_walk`), where the production pass builds terms only
for its groups' heads.

`const_close_one` is the least-set closed form of `ConstDomain.close_one`
without its clash lists: it grows a least set from every variable i[v]
binds, through members without a write-condition too, and only then drops
the sets that have such a member. The tests require equal values and
equal ops of the production form. `close_rounds` is `CondWrites.close`
without the memo, by rounds of the domain's own `close_one` over every
variable, stopping at the first round that is ⊑ its input; the tests
require equal values, ops and cap collapses of the production loop, which
stops on `==`.

`StepMemo` is `CondWrites` as it stabilised before the fixpoint memo: one
memoised step per rely, shared by both modes, and in non-transitive mode
`fix_loop`, which applies that step from d until its result is ⊑ its
input, each step a look-up that counts a memo hit when it answers. The
tests require equal values, ops, cap collapses, `memo_hits` and
`FuelExhausted` messages of the production fixpoint memo. `fix_loop` is
also the memo-free fixpoint of the tests' reference steps.

`reference_walk` is `ConstPowersetDomain._walk` as it was before the walk
went level by level: it enumerates every combination in `subsets` order
and skips the strict supersets of each set in its skip list, where it puts
the sets whose wc is ⊥ and its caller the sets it drops.
"""

from __future__ import annotations

import itertools
import sys
from functools import partial, reduce
from typing import Iterator

from condwrites.domains import (
    CM_BOT, CM_TOP, ConstDomain, ConstPowersetDomain, _BINDING_SETS, cm_havoc,
    cm_leq,
)
from condwrites.interference import CondWrites, FuelExhausted, Interference


def subsets(variables, max_card: int) -> Iterator[tuple[str, ...]]:
    # bottom-up, lexicographic within a cardinality: required by the
    # superset skipping and keeps op counts reproducible
    for k in range(0, max_card + 1):
        yield from itertools.combinations(variables, k)


def reference_walk(dom: ConstPowersetDomain, i: Interference, names,
                   max_card: int, skip: list):
    """The subset walk of `ConstPowersetDomain._walk` by enumeration: each
    non-empty write set S of at most max_card of `names`, all keys of i,
    whose wc_S is not ⊥, as `(S, wc_S)`, in `subsets` order over the sorted
    names, skipping every strict superset of a set in `skip`. It appends
    each set whose wc is ⊥ to `skip`; its caller appends any set whose
    supersets it does not want. A set's wc is one meet of its prefix's
    with i[last]."""
    wcs = {}  # each yielded set's wc, by its names in order
    for combo in subsets(sorted(names), max_card):
        if not combo:
            continue
        vset = frozenset(combo)
        if any(b < vset for b in skip):
            continue
        wc = (dom.meet(wcs[combo[:-1]], i[combo[-1]])
              if len(combo) > 1 else i[combo[0]])
        if not wc:
            skip.append(vset)
            continue
        wcs[combo] = wc
        yield vset, wc


def uncapped(dom: ConstPowersetDomain) -> ConstPowersetDomain:
    """A copy of the powerset domain, n included, whose disjunct cap never
    fires."""
    return ConstPowersetDomain(dom.variables, sys.maxsize, dom.n)


def stabilise_enum(self: CondWrites, i: Interference, d, n: int, *,
                   b1: bool = False):
    # the generic subset enumeration, and the reference for closed forms
    dom = self.dom
    variables = sorted(dom.variables)
    acc = d
    y_acc = dom.bot()
    y_vars: set[str] = set()
    blocked: list[frozenset[str]] = []
    for combo in subsets(variables, min(n + 1, len(variables))):
        vset = frozenset(combo)
        if b1 and any(b <= vset for b in blocked):
            continue
        wc = dom.top()
        for v in combo:
            wc = dom.meet(wc, i.get(v, dom.bot()))
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


def stabilise_cap_once(self: CondWrites, i: Interference, d, *,
                       b1: bool = False):
    """`stabilise_enum` at the domain's n on an uncapped copy of self's
    powerset domain, then one cap of self's domain. Its ops are added to
    self's domain."""
    wide = CondWrites(uncapped(self.dom))
    out = self.dom._cap(stabilise_enum(wide, i, d, self.dom.n, b1=b1))
    self.dom.ops += wide.dom.ops
    return out


def plan_walk(plan) -> list:
    """Every write set of a plan of `_write_sets`, as `(vset, wc_S)`, in the
    walk's order: by size, then by sorted names. Its groups list each exact
    set once, and the coarse (n+1)-sets, the largest, are in walk order."""
    groups, coarse = plan
    exact = [(vset, wc) for wc, sets, _ in groups for vset in sets]
    return sorted(exact, key=lambda e: (len(e[0]), sorted(e[0]))) + coarse


def stabilise_walk(dom: ConstPowersetDomain, d, plan):
    """The subset walk at dom's n over a write-set plan of dom's
    `_write_sets`, every write set in walk order, its groups' heads or not,
    through dom's meets, havocs and joins: it meets d with each wc_S, and
    the coarse join starts from its first operand."""
    acc = d
    y_acc = None
    y_vars: set[str] = set()
    for vset, wc in plan_walk(plan):
        m = dom.meet(d, wc)
        if len(vset) <= dom.n:
            acc = dom.join(acc, dom.havoc(m, vset))
        elif not dom.is_bot(m):
            y_acc = m if y_acc is None else dom.join(y_acc, m)
            y_vars |= vset
    if y_acc is not None:
        acc = dom.join(acc, dom.havoc(y_acc, frozenset(y_vars)))
    return acc


def stabilise_over_plan(dom: ConstPowersetDomain, d, plan: dict):
    """`stabilise_walk` on an uncapped copy of the powerset domain, then one
    cap of dom. Its ops are added to dom."""
    wide = uncapped(dom)
    out = dom._cap(stabilise_walk(wide, d, plan))
    dom.ops += wide.ops
    return out


def havoc_candidates(dom, d, variables) -> list[str]:
    """The variables among `variables` whose one-variable havoc changes d:
    the candidates of the pruned close walk for d = i[v]. `pruned_close_one`
    takes them so; `ConstPowersetDomain.close_one` reads them off the
    variables d binds (`bound_vars`)."""
    return sorted(u for u in variables if dom.havoc(d, frozenset((u,))) != d)


def pruned_close_one(dom, i: Interference, v: str):
    """One step of `CondWrites.close` for v by the pruned subset walk over
    dom: the candidates are the variables of i whose havoc changes i[v],
    and the walk skips the strict supersets of a set whose meet its havoc
    already covers (a set whose meet is ⊥ among them). A set's meet is one
    meet of its prefix's with i[last]."""
    iv = i.get(v, dom.bot())
    # adding another variable to a write set keeps its havoc and only
    # shrinks its meet (to ⊥ if i lacks it), so its term adds nothing
    candidates = havoc_candidates(dom, iv, i.keys())
    acc = iv  # empty-set term: havoc by nothing meets the empty meet (top)
    dominated: list[frozenset[str]] = []
    meets: dict[tuple[str, ...], object] = {}
    for combo in subsets(candidates, len(candidates)):
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
        m = meets[combo] = (dom.meet(meets[combo[:-1]], i[combo[-1]])
                            if len(combo) > 1 else i[combo[0]])
        if dom.leq(m, h):
            dominated.append(vset)
            acc = dom.join(acc, m)
        else:
            acc = dom.join(acc, dom.meet(h, m))
    return acc


def const_close_one(dom: ConstDomain, i: Interference, v: str):
    """The least-set closed form of `ConstDomain.close_one`, through dom's
    counted meets and joins: the least set S_x of every binding x of i[v],
    grown along i[u] for each member u (⊤ for a member missing from i),
    then the sets with a member missing from i dropped, and the rest
    visited by size, then names, skipping the strict supersets of a
    dominated set."""
    iv = i.get(v, CM_BOT)
    if iv is CM_BOT:
        return iv
    bound = dict(_BINDING_SETS[iv])
    least_sets: set[tuple[int, tuple[str, ...]]] = set()
    for x in bound:
        least = {x}
        todo = [x]
        while todo:
            for y, c in _BINDING_SETS[i.get(todo.pop(), CM_TOP)]:
                if y not in least and bound.get(y, c) != c:
                    least.add(y)
                    todo.append(y)
        least_sets.add((len(least), tuple(sorted(least))))
    acc = iv
    dominated: list[frozenset[str]] = []
    for _, names in sorted(least_sets):
        vset = frozenset(names)
        if not vset <= i.keys() or any(d0 < vset for d0 in dominated):
            continue
        wc = reduce(dom.meet, [i[u] for u in names])
        h = cm_havoc(iv, vset)
        if cm_leq(wc, h):
            dominated.append(vset)
            acc = dom.join(acc, wc)
        else:
            acc = dom.join(acc, dom.meet(h, wc))
    return acc


def close_one(self: CondWrites, i: Interference, v: str, *,
              b2a: bool = False, b2b: bool = False):
    dom = self.dom
    iv = i.get(v, dom.bot())
    if b2a:
        candidates = havoc_candidates(dom, iv, dom.variables)
    else:
        candidates = sorted(dom.variables)
    acc = iv  # empty-set term: havoc by nothing meets the empty meet (top)
    dominated: list[frozenset[str]] = []
    for combo in subsets(candidates, len(candidates)):
        if not combo:
            continue
        vset = frozenset(combo)
        if b2b and any(d0 < vset for d0 in dominated):
            continue
        h = dom.havoc(iv, vset)
        m = dom.top()
        for u in combo:
            m = dom.meet(m, i.get(u, dom.bot()))
        if b2b and dom.leq(m, h):
            dominated.append(vset)
            acc = dom.join(acc, m)
        else:
            acc = dom.join(acc, dom.meet(h, m))
    return acc


def close(self: CondWrites, i: Interference, *, b2a: bool = False,
          b2b: bool = False) -> Interference:
    """`CondWrites.close`'s fixpoint over `close_one` for every variable,
    without the memo, leaving out the write-conditions that stay bottom."""
    cur = i
    for _ in range(self.fuel):
        nxt = {v: wc for v in self.dom.variables if not self.dom.is_bot(
            wc := close_one(self, cur, v, b2a=b2a, b2b=b2b))}
        if self.leq(nxt, cur):
            return nxt
        cur = nxt
    raise FuelExhausted(f"close did not converge in {self.fuel} steps")


def close_rounds(self: CondWrites, i: Interference) -> Interference:
    """`CondWrites.close` without the memo: rounds of self's domain's
    `close_one` over every variable of the round's input, until a round is
    ⊑ its input."""
    cur = i
    for _ in range(self.fuel):
        nxt = {v: self.dom.close_one(cur, v) for v in cur}
        if self.leq(nxt, cur):
            return nxt
        cur = nxt
    raise FuelExhausted(f"close did not converge in {self.fuel} steps")


def fix_loop(self: CondWrites, step, d):
    # apply step from d until its result is ⊑ its input
    cur = d
    for _ in range(self.fuel):
        nxt = step(cur)
        if self.dom.leq(nxt, cur):
            return nxt
        cur = nxt
    raise FuelExhausted(f"stabilise_fix did not converge in {self.fuel} steps")


class StepMemo(CondWrites):
    """`CondWrites` with the step memo and step loop that the fixpoint memo
    replaced."""

    _fix = fix_loop

    def stabiliser(self, i: Interference, transitive: bool):
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
