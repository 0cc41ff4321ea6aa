"""Abstract state domains: the shared contract, the constant-map domain,
and its disjunctive (powerset) completion.

Elements are bare immutable sets, so every lattice operation is a set
operation and hashing an element (as the `interference` memo keys do) reads
a cached hash. A constant map is a frozenset of `(var, value)` bindings:
`CM_TOP` is the empty frozenset and bottom is the sentinel `CM_BOT`, checked
by identity. A powerset element is a frozenset of non-bottom constant maps:
bottom is the empty frozenset and top is `frozenset({CM_TOP})`. Domain
objects carry the variable set and two plain int counters: `ops`, the
join/meet count (the Ops metric), and `cap_collapses`, the powerset cap
collapses. The powerset domain also holds its disjunct cap `max_disjuncts`
and its `stabilise` precision `n`. A domain is a plain lattice plus its
algorithms and keeps no memo: `CondWrites` keeps every one. A join with a
bottom operand returns the other operand and is not performed, so it
counts no op; every meet is counted. Expressions are evaluated by the
concrete semantics of `lang`.

The interference steps take a sparse interference i (see `interference`):
a variable missing from i has write-condition bottom, read as
`i.get(v, bottom)`.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator

from .lang import (
    And, Assign, BoolLit, Cmp, Cond, Expr, Lit, Or, VarRef,
    CMP_OPS, EvalOverflow, eval_expr,
)


class UniverseTooLarge(Exception):
    pass


UNIVERSE_CAP = 1_000_000  # the most states a universe may enumerate


@dataclass(frozen=True)
class Universe:
    """Finite per-variable value sets; makes concretisation enumerable."""

    values: tuple[tuple[str, tuple[int, ...]], ...]

    @staticmethod
    def of(values: dict[str, Iterable[int]]) -> "Universe":
        items = tuple((v, tuple(sorted(set(vals)))) for v, vals in values.items())
        for v, vals in items:
            if not vals:
                raise ValueError(f"empty value set for {v!r}")
        return Universe(items)

    @property
    def var_order(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.values)

    def domain_of(self, var: str) -> tuple[int, ...]:
        for v, vals in self.values:
            if v == var:
                return vals
        raise KeyError(var)

    def size(self) -> int:
        n = 1
        for _, vals in self.values:
            n *= len(vals)
        return n

    def check_size(self) -> None:
        if self.size() > UNIVERSE_CAP:
            raise UniverseTooLarge(f"{self.size()} states exceeds cap {UNIVERSE_CAP}")


# ---------------------------------------------------------------------------
# Constant maps (pure value-level operations, uncounted). An unbound variable
# is unconstrained. More bindings means fewer states, so the order is reversed
# set inclusion: leq is superset, join is intersection, meet is union.


class _Bottom:
    """Type of CM_BOT, the constant map of no states. It equals only itself,
    and copies and pickles resolve to the module's one instance."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "CM_BOT"

    def __reduce__(self) -> str:
        return "CM_BOT"


CM_TOP = frozenset()
CM_BOT = _Bottom()


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
    values = [cm_eval(e, s) for e in a.exprs]
    known = {(v, n) for v, n in zip(a.targets, values) if n is not None}
    return cm_havoc(d, frozenset(a.targets)) | known


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


# ---------------------------------------------------------------------------
# Domain contract


def subsets(variables, max_card: int) -> Iterator[tuple[str, ...]]:
    # bottom-up, lexicographic within a cardinality: required by the
    # superset skipping and keeps op counts reproducible
    for k in range(0, max_card + 1):
        yield from itertools.combinations(variables, k)


class StateDomain(ABC):
    """Lattice over sets of states plus abstract assignment post,
    condition filter, and havoc, and the two steps of the interference
    layer (see `interference`): `stabiliser(i)` returns the function
    d ↦ stabilise(i, d), which `CondWrites` builds once per rely and whose
    results it memoises, and `close_one(i, v)` is one step of
    `CondWrites.close`. Precision parameters are fixed on the domain object.

    Elements are hashable and compare by content, not identity: an element
    rebuilt from new objects equals the original and hashes alike. The
    `CondWrites` memo keys and the grouping of `oracle.check_soundness`
    rely on this."""

    name: str

    def __init__(self, variables: tuple[str, ...]):
        self.variables = tuple(variables)
        self.ops = 0  # counted joins and meets (the Ops metric)
        self.cap_collapses = 0  # elements a disjunct cap collapsed

    @abstractmethod
    def top(self): ...

    @abstractmethod
    def bot(self): ...

    @abstractmethod
    def is_bot(self, d) -> bool: ...

    @abstractmethod
    def leq(self, d1, d2) -> bool: ...

    @abstractmethod
    def join(self, d1, d2): ...

    @abstractmethod
    def meet(self, d1, d2): ...

    @abstractmethod
    def havoc(self, d, drop: frozenset[str]): ...

    @abstractmethod
    def post(self, a: Assign, d): ...

    @abstractmethod
    def contains(self, d, state: dict) -> bool: ...

    @abstractmethod
    def _filter_cmp(self, c: Cmp, d): ...

    @abstractmethod
    def fmt(self, d, ascii_only: bool = False) -> str: ...

    def filter(self, c: Cond, d):
        """Keep (an over-approximation of) the states in d satisfying c."""
        if self.is_bot(d):
            return self.bot()
        if isinstance(c, BoolLit):
            return d if c.value else self.bot()
        if isinstance(c, And):
            for part in c.parts:
                d = self.filter(part, d)
            return d
        if isinstance(c, Or):
            out = self.filter(c.parts[0], d)
            for part in c.parts[1:]:
                out = self.join(out, self.filter(part, d))
            return out
        if isinstance(c, Cmp):
            return self._filter_cmp(c, d)
        raise TypeError(c)

    @abstractmethod
    def stabiliser(self, i: dict): ...

    def close_one(self, i: dict, v: str):
        """One step of `CondWrites.close` for v by the pruned subset walk: it
        considers only the variables i[v] constrains, and skips the strict
        supersets of a set whose meet its havoc already covers (a set whose
        meet is ⊥ among them; its own term joins nothing and counts no
        join). Each skipped term's exact value lies below a kept term's, so
        where meets and joins are exact (the flat domain, and the powerset
        while no result exceeds its cap) the pruning changes no value. When the cap collapses disjuncts inside a meet or
        join, `close`'s pruned result can differ from the unpruned walk's;
        on random inputs at caps 2-4 it then lay below it. The unpruned walk
        is kept as the differential reference in
        `tests/reference_interference.py`. A set's meet is one meet of its
        prefix's with i[last], as in `ConstPowersetDomain._write_sets`."""
        bot = self.bot()
        iv = i.get(v, bot)
        # only variables iv constrains: adding another to a write set keeps
        # its havoc and only shrinks its meet, so its term adds nothing
        candidates = sorted(
            u for u in self.variables if self.havoc(iv, frozenset((u,))) != iv
        )
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
            h = self.havoc(iv, vset)
            # a visited set's prefix was visited: a dominated set below the
            # prefix lies below the set too
            if len(combo) == 1:
                m = i.get(combo[0], bot)
            else:
                m = self.meet(meets[combo[:-1]], i.get(combo[-1], bot))
            meets[combo] = m
            if self.leq(m, h):
                dominated.append(vset)
                acc = self.join(acc, m)
            else:
                acc = self.join(acc, self.meet(h, m))
        return acc


# (bottom, top, maps-to) as printed, indexed by `ascii_only`
GLYPHS = (("⊥", "⊤", "↦"), ("bot", "top", "|->"))


def _fmt_cm(d, ascii_only: bool) -> str:
    bot, top, arrow = GLYPHS[ascii_only]
    if d is CM_BOT:
        return bot
    if not d:
        return top
    return "[" + ", ".join(f"{v}{arrow}{n}" for v, n in sorted(d)) + "]"


class ConstDomain(StateDomain):
    """Flat constant-propagation maps."""

    name = "const"

    def top(self):
        return CM_TOP

    def bot(self):
        return CM_BOT

    def is_bot(self, d) -> bool:
        return d is CM_BOT

    def leq(self, d1, d2) -> bool:
        return cm_leq(d1, d2)

    def join(self, d1, d2):
        if d1 is not CM_BOT and d2 is not CM_BOT:
            self.ops += 1  # a join with ⊥ is not performed
        return cm_join(d1, d2)

    def meet(self, d1, d2):
        self.ops += 1
        return cm_meet(d1, d2)

    def havoc(self, d, drop: frozenset[str]):
        return cm_havoc(d, drop)

    def post(self, a: Assign, d):
        return cm_post(a, d)

    def contains(self, d, state: dict) -> bool:
        return cm_contains(d, state)

    def _filter_cmp(self, c: Cmp, d):
        return cm_filter_cmp(c, d)

    def fmt(self, d, ascii_only: bool = False) -> str:
        return _fmt_cm(d, ascii_only)

    def stabiliser(self, i: dict):
        """Drop from d every variable whose write-condition d meets: ⊥ stays
        ⊥, otherwise one counted meet per variable and one havoc. Equals the
        subset enumeration of `CondWrites.stabilise` for every bound n, so
        the domain takes none:

            stabilise(i, d) = havoc(d, {u | d ⊓ i[u] ≠ ⊥})

        Feasibility is downward closed: wc_S only shrinks as S grows, so
        every variable u of a write set with d ⊓ wc_S ≠ ⊥ has d ⊓ i[u] ≠ ⊥,
        and each such u is itself a feasible singleton (exact when n ≥ 1, in
        the coarse term when n = 0). Every term binds what d binds, plus
        wc_S's bindings, minus S; the empty write set contributes d itself,
        and the flat join intersects bindings. So the join keeps exactly the
        bindings of d whose variable no write set feasible with d touches,
        and ⊥ stays ⊥."""
        def step(d):
            if d is CM_BOT:
                return d
            touched = frozenset(u for u in self.variables
                                if self.meet(d, i.get(u, CM_BOT)) is not CM_BOT)
            return self.havoc(d, touched)
        return step

    def close_one(self, i: dict, v: str):
        """Weaken i[v] by the one write set that decides each of its
        bindings, the least set S ∋ x closed under "u ∈ S and i[u] binds a
        variable y of i[v] to another value ⇒ y ∈ S". ⊥ and ⊤ stay as they
        are. Equals the walk `StateDomain.close_one`.

        Call S closed if y ∈ S whenever some u ∈ S has i[u] binding a
        variable y of i[v] to a value other than i[v]'s. If S is not closed,
        h = havoc(i[v], S) keeps i[v]'s binding of such a y, h ⊓ wc_S is ⊥,
        and the term adds nothing. If S is closed and wc_S ≠ ⊥, the term is
        the union of the bindings of h and wc_S. The join intersects
        bindings, so a binding (x, c) of i[v] is dropped iff some closed
        S ∋ x has wc_S ≠ ⊥ and no u ∈ S binds (x, c) in i[u]. The least
        closed set S_x ∋ x, a Horn-clause least model, lies inside every
        closed S ∋ x, and a larger S only shrinks wc_S and adds members:
        once wc_{S_x} is ⊥ or binds (x, c), so does wc_S. So S_x alone
        decides (x, c). A term never drops a binding that its own least set
        keeps: S_x's term drops (y, c') only for y ∈ S_x, where S_y ⊆ S_x,
        so wc_{S_y} binding (y, c') or being ⊥ would carry over to
        wc_{S_x}. So the terms of the distinct least sets, joined into
        i[v], drop exactly what the walk drops.

        The distinct least sets are visited by ascending size, then name,
        and two kinds are skipped with no op, as the walk skips them. A set
        with a member whose write-condition is ⊥ has wc_S = ⊥, so its term
        joins nothing; this depends on membership alone. A strict superset
        of a set already found dominated (wc ⊑ h, ⊥ included) meets below
        that set's wc, which is joined in whole. A subset is smaller, so it
        is visited first, and what is skipped does not depend on the names.
        Any other set costs |S| - 1 counted meets for wc_S, folded over all
        its members in sorted order, then its term's join, plus one meet
        when wc_S ⋢ h; the join is not performed when the term is ⊥. The
        closures, havocs and ⊑ tests are uncounted, like the walk's choice
        of candidate variables. On random inputs over up to 5 variables it
        never counts more ops than the pruned walk, and the tests check
        that."""
        iv = i.get(v, CM_BOT)
        if iv is CM_BOT or not iv:
            return iv
        bound = dict(iv)
        # the closure rule's edges, uncounted like the walk's candidates
        clashes = {u: [y for y, c in i.get(u, ()) if bound.get(y, c) != c]
                   for u in bound}
        least_sets: set[frozenset[str]] = set()
        for x in bound:
            least = {x}
            todo = [x]
            while todo:
                for y in clashes[todo.pop()]:
                    if y not in least:
                        least.add(y)
                        todo.append(y)
            least_sets.add(frozenset(least))
        acc = iv
        dominated: list[frozenset[str]] = []
        for names in sorted((sorted(s) for s in least_sets),
                            key=lambda names: (len(names), names)):
            vset = frozenset(names)
            if not vset <= i.keys() or any(d0 < vset for d0 in dominated):
                continue
            first, *rest = names
            wc = i[first]
            for u in rest:
                wc = self.meet(wc, i[u])
            h = cm_havoc(iv, vset)
            if cm_leq(wc, h):
                dominated.append(vset)
                acc = self.join(acc, wc)
            else:
                acc = self.join(acc, self.meet(h, wc))
        return acc


# A powerset element is a frozenset of pairwise-incomparable constant maps,
# none of them CM_BOT; the empty set is bottom.
PW_BOT = frozenset()
PW_TOP = frozenset({CM_TOP})


def _pw_normalize(maps: Iterable) -> frozenset:
    # keep the maximal maps: those whose bindings strictly contain no other's.
    # Only a map with fewer bindings can be strictly contained, so a scan by
    # ascending binding count need only test the maps already kept: a dropped
    # map's bindings contain a kept map's, and containment is transitive.
    uniq = {m for m in maps if m is not CM_BOT}
    if len(uniq) < 2:
        return frozenset(uniq)
    kept: list[frozenset] = []
    for m in sorted(uniq, key=len):
        if not any(k < m for k in kept):
            kept.append(m)
    return frozenset(kept)


class ConstPowersetDomain(StateDomain):
    """Disjunctive completion of the constant domain, with a disjunct cap:
    on overflow all disjuncts collapse to their flat join, and
    `cap_collapses` counts one. `stabiliser(i)` is `stabilise_plan` over
    i's write-set plan, exact for write sets of ≤ n."""

    name = "const-powerset"

    def __init__(self, variables, max_disjuncts: int = 64,
                 n: int | None = None):
        super().__init__(variables)
        if max_disjuncts < 1:
            raise ValueError(f"max_disjuncts must be >= 1, got {max_disjuncts}")
        self.max_disjuncts = max_disjuncts
        self.n = len(self.variables) if n is None else n
        if not 0 <= self.n <= len(self.variables):
            raise ValueError(f"n must be within 0..{len(self.variables)}, got {self.n}")

    def make(self, maps: Iterable):
        return self._cap(_pw_normalize(maps))

    def _cap(self, d):
        if len(d) <= self.max_disjuncts:
            return d
        self.cap_collapses += 1
        return frozenset({frozenset.intersection(*d)})

    def stabiliser(self, i: dict):
        return partial(self.stabilise_plan, plan=self._write_sets(i))

    def _write_sets(self, i: dict) -> dict:
        """The plan of the subset walk under i at precision n: each write set
        S of at most n + 1 variables with a non-bottom wc_S, as
        `combo: (vset, wc_S, bound)` in walk order, starting with the empty
        set and its wc, top; `bound` pairs each disjunct of wc_S with the
        variables it binds, for `stabilise_plan`. Not memoised: `CondWrites`
        calls `stabiliser(i)`, and so this, once per rely, so every
        `stabilise` under one rely shares the plan, and a miss only meets d
        with each wc_S, havocs and joins. A singleton's wc is i[v]; a larger
        set's is one meet of its prefix's wc with i[last]. A superset of a
        set with bottom wc is skipped unvisited: feasibility is downward
        closed, as wc_S only shrinks as S grows, so its exact wc is bottom
        too.

        The walk yields each set after its prefix, the set minus its last
        variable. A kept set's prefix is in the plan: had the prefix been
        skipped or met bottom, the set would have been skipped as a
        superset. The plan computes the same left fold,
        top ⊓ i[v1] ⊓ … ⊓ i[vk] in variable order, as the walk that re-meets
        each set from top, because top ⊓ x = x. So each wc_S equals that
        walk's also where the powerset cap collapses disjuncts inside a
        meet, and meets no longer associate; only the ops of the repeated
        meets fall."""
        variables = sorted(self.variables)
        plan: dict = {}
        blocked: list[frozenset[str]] = []
        for combo in subsets(variables, min(self.n + 1, len(variables))):
            vset = frozenset(combo)
            if any(b <= vset for b in blocked):
                continue
            if len(combo) <= 1:
                wc = i.get(combo[0], PW_BOT) if combo else self.top()
            else:
                wc = self.meet(plan[combo[:-1]][1], i.get(combo[-1], PW_BOT))
            if self.is_bot(wc):
                blocked.append(vset)
                continue
            plan[combo] = (vset, wc, [(w, {v for v, _ in w}) for w in wc])
        return plan

    def stabilise_plan(self, d, plan):
        """The subset enumeration's result, normalised once and capped once:
        the non-bottom meets of d's maps with each write set's disjuncts,
        havocked by the set (the coarse (n+1)-sets' by the union of the
        feasible ones), pooled with d. The result is `make` of the pool:
        `_pw_normalize` once, then the disjunct cap once.

        Its spec is the subset enumeration over the plan's write-conditions
        in the uncapped disjunctive completion, capped once at the end. The
        pool normalised equals that enumeration for two reasons.
        `_pw_normalize` keeps the ⊆-minimal binding sets, a unique normal
        form, so normalising a part of the pool first changes nothing:
        norm(norm(A) ∪ B) = norm(A ∪ B). And `cm_havoc` is monotone on
        binding sets, so a map the normalisation drops has a havoc
        containing that of a map it keeps: normalising before or after
        havocking agrees. The uncapped meet, havoc and join of the
        enumeration are each the normalisation of such a pool (the join of
        two antichains is that of their union), and so is their
        composition. The cap is a widening-like loss of precision, so it
        applies to whole powerset results (Bagnara, Hill & Zaffanella, STTT
        2006), not inside each meet and join of the enumeration: once it
        fires there, meets and joins no longer associate, and the answer
        would depend on the order of the walk. The plan's write-conditions
        stay capped as built, by the counted meets that fold them, so where
        building the plan collapses nothing, a miss equals the unpruned
        enumeration of i on an uncapped copy of the domain, capped once;
        that is the differential reference in
        `tests/reference_interference.py`. Where no cap fires at all, it
        also equals the enumeration that caps inside every meet and join.

        An exact write set S (|S| ≤ n) skips every map m of d that binds no
        variable of S. Such a term havoc(m ⊓ w, S) keeps all of m's
        bindings, so it is m or lies below it, and m is in the pool: the
        normalisation would drop the term. The normal form, the antichain of
        the disjunctive completion (Cousot & Cousot, POPL 1979), is unique,
        so the result, and whether the cap fires, do not change; ops count
        per write set, not per term, so they do not either. The coarse
        (n+1)-sets skip nothing: their terms are havocked by the union of
        every feasible coarse set, which can take bindings of m that S does
        not, so a term of m need not lie below m.

        Whether S's join is counted can still depend on a skipped map m: it
        is, unless m ⊓ w is ⊥ for every disjunct w of wc_S too. A map and a
        disjunct that bind disjoint variables cannot disagree on one, so
        their meet is not ⊥ and is not formed; the plan holds each
        disjunct's variables for that test.

        The pass performs no counted operation but counts those of the
        enumeration: one meet per non-empty write set, one join per exact
        set whose meet with d is not ⊥, and one join per feasible (n+1)-set
        (the coarse fold's joins plus its join into the result). A join with
        ⊥ is not performed, so an exact set whose term is ⊥ for every map of
        d, the skipped maps included, counts its meet alone. So ops do not
        depend on the skipping or on whether a collapse fires. For d = ⊤ the
        pass is not run: ⊤ meets every write-condition of the plan, which
        are all non-⊥, so each write set counts a meet and a join, and every
        term lies below ⊤, so the result is ⊤."""
        if d == PW_TOP:
            self.ops += 2 * (len(plan) - 1)
            return d
        maps = list(d)
        bound = [(m, {v for v, _ in m}) for m in d]  # each map and its variables
        coarse = []
        y_vars: set[str] = set()
        ops = 0
        for vset, wc, wbound in itertools.islice(plan.values(), 1, None):
            if len(vset) <= self.n:
                terms = [cm_havoc(x, vset) for m, mv in bound
                         if not vset.isdisjoint(mv) for w in wc
                         if (x := cm_meet(m, w)) is not CM_BOT]
                maps += terms
                # the meet, and the join unless every map's term is ⊥
                feasible = terms or any(
                    mv.isdisjoint(wv) or cm_meet(m, w) is not CM_BOT
                    for m, mv in bound if vset.isdisjoint(mv)
                    for w, wv in wbound)
                ops += 2 if feasible else 1
                continue
            met = [x for m in d for w in wc
                   if (x := cm_meet(m, w)) is not CM_BOT]
            if met:
                coarse += met
                y_vars |= vset
                ops += 2  # the meet and the coarse join of a feasible set
            else:
                ops += 1
        if coarse:
            drop = frozenset(y_vars)
            maps += [cm_havoc(x, drop) for x in coarse]
        self.ops += ops
        return self.make(maps)

    def top(self):
        return PW_TOP

    def bot(self):
        return PW_BOT

    def is_bot(self, d) -> bool:
        return not d

    def leq(self, d1, d2) -> bool:
        # Hoare order: sound, possibly incomplete
        return all(any(m2 <= m1 for m2 in d2) for m1 in d1)

    def join(self, d1, d2):
        """`make(d1 ∪ d2)`, returned as is where one antichain holds the
        other; a join with ⊥ is not performed and counts no op."""
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
        self.ops += 1
        return self.make(cm_meet(m1, m2) for m1 in d1 for m2 in d2)

    def havoc(self, d, drop: frozenset[str]):
        return self.make(cm_havoc(m, drop) for m in d)

    def post(self, a: Assign, d):
        return self.make(cm_post(a, m) for m in d)

    def contains(self, d, state: dict) -> bool:
        return any(cm_contains(m, state) for m in d)

    def _filter_cmp(self, c: Cmp, d):
        return self.make(cm_filter_cmp(c, m) for m in d)

    def fmt(self, d, ascii_only: bool = False) -> str:
        bot, top, _ = GLYPHS[ascii_only]
        if not d:
            return bot
        if d == PW_TOP:
            return top
        maps = sorted(d, key=sorted)
        return "{" + "; ".join(_fmt_cm(m, ascii_only) for m in maps) + "}"


def make_domain(kind: str, variables: tuple[str, ...],
                max_disjuncts: int = 64, n: int | None = None) -> StateDomain:
    if kind == "const":
        return ConstDomain(variables)
    if kind == "const-powerset":
        return ConstPowersetDomain(variables, max_disjuncts, n)
    raise ValueError(f"unknown domain {kind!r}")
