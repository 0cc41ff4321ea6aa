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
collapses. Expressions are evaluated by the concrete semantics of `lang`.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator

from .lang import (
    And, Assign, BoolLit, Cmp, Cond, Expr, Lit, Not, Or, VarRef,
    CMP_OPS, EvalOverflow, eval_expr, negate,
)


class UniverseTooLarge(Exception):
    pass


@dataclass(frozen=True)
class Universe:
    """Finite per-variable value sets; makes concretisation enumerable."""

    values: tuple[tuple[str, tuple[int, ...]], ...]
    cap: int = 1_000_000

    @staticmethod
    def of(values: dict[str, Iterable[int]], cap: int = 1_000_000) -> "Universe":
        items = tuple((v, tuple(sorted(set(vals)))) for v, vals in values.items())
        for v, vals in items:
            if not vals:
                raise ValueError(f"empty value set for {v!r}")
        return Universe(items, cap)

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
        if self.size() > self.cap:
            raise UniverseTooLarge(f"{self.size()} states exceeds cap {self.cap}")

    def states(self) -> Iterator[dict]:
        self.check_size()
        names = self.var_order
        for combo in itertools.product(*(vals for _, vals in self.values)):
            yield dict(zip(names, combo))


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


class StateDomain(ABC):
    """Lattice over sets of states plus abstract assignment post,
    condition filter, and havoc."""

    name: str

    # Optional closed forms of the interference layer's subset walks; None
    # keeps the walk. `stabilise(i, d)` equals `CondWrites.stabilise`'s
    # enumeration for every n, and `close_one(i, v)` equals one step of
    # `CondWrites.close`, `CondWrites._close_one(i, v)`.
    stabilise = None
    close_one = None

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
        if isinstance(c, Not):
            return self.filter(negate(c.inner), d)
        if isinstance(c, And):
            return self.filter(c.right, self.filter(c.left, d))
        if isinstance(c, Or):
            return self.join(self.filter(c.left, d), self.filter(c.right, d))
        if isinstance(c, Cmp):
            return self._filter_cmp(c, d)
        raise TypeError(c)


def _fmt_cm(d, ascii_only: bool) -> str:
    if d is CM_BOT:
        return "bot" if ascii_only else "⊥"
    if not d:
        return "top" if ascii_only else "⊤"
    arrow = "|->" if ascii_only else "↦"
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
        self.ops += 1
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

    def stabilise(self, i: dict, d):
        """Drop from d every variable whose write-condition d meets: ⊥ stays
        ⊥, otherwise one counted meet per variable and one havoc. Equals the
        subset enumeration of `CondWrites.stabilise` for every n (see
        `interference`)."""
        if d is CM_BOT:
            return d
        touched = frozenset(u for u in self.variables
                            if self.meet(d, i[u]) is not CM_BOT)
        return self.havoc(d, touched)

    def close_one(self, i: dict, v: str):
        """Weaken i[v] by the one write set that decides each of its
        bindings, the least set S ∋ x closed under "u ∈ S and i[u] binds a
        variable y of i[v] to another value ⇒ y ∈ S". ⊥ and ⊤ stay as they
        are. Each distinct set costs its wc fold (|S| - 1 counted meets),
        and, when wc is not ⊥, at most one meet and one join. Equals
        `CondWrites._close_one` (see `interference`)."""
        iv = i[v]
        if iv is CM_BOT or not iv:
            return iv
        bound = dict(iv)
        # the closure rule's edges, uncounted like the walk's candidates
        clashes = {u: () if i[u] is CM_BOT else
                   [y for y, c in i[u] if bound.get(y, c) != c]
                   for u in bound}
        acc = iv
        seen: set[frozenset[str]] = set()
        for x in sorted(bound):
            least = {x}
            todo = [x]
            while todo:
                for y in clashes[todo.pop()]:
                    if y not in least:
                        least.add(y)
                        todo.append(y)
            vset = frozenset(least)
            if vset in seen:
                continue
            seen.add(vset)
            # no short cut at ⊥: the fold's ops must not depend on the names
            first, *rest = sorted(vset)
            wc = i[first]
            for u in rest:
                wc = self.meet(wc, i[u])
            if wc is CM_BOT:
                continue
            h = cm_havoc(iv, vset)
            acc = self.join(acc, wc if cm_leq(wc, h) else self.meet(h, wc))
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
    `cap_collapses` counts one."""

    name = "const-powerset"

    def __init__(self, variables, max_disjuncts: int = 64):
        super().__init__(variables)
        if max_disjuncts < 1:
            raise ValueError(f"max_disjuncts must be >= 1, got {max_disjuncts}")
        self.max_disjuncts = max_disjuncts

    def make(self, maps: Iterable):
        return self._cap(_pw_normalize(maps))

    def _cap(self, d):
        if len(d) <= self.max_disjuncts:
            return d
        self.cap_collapses += 1
        return frozenset({frozenset.intersection(*d)})

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
        """`make(d1 ∪ d2)` for antichains d1 and d2, by cross comparisons
        only: no map of an antichain lies strictly below another of it, and
        a map in both survives."""
        self.ops += 1
        if d1 <= d2:
            return d2
        if d2 <= d1:
            return d1
        keep_a = [m for m in d1 - d2 if not any(k < m for k in d2)]
        keep_b = [m for m in d2 if not any(k < m for k in d1)]
        return self._cap(frozenset(keep_a).union(keep_b))

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
        if not d:
            return "bot" if ascii_only else "⊥"
        if d == PW_TOP:
            return "top" if ascii_only else "⊤"
        maps = sorted(d, key=sorted)
        return "{" + "; ".join(_fmt_cm(m, ascii_only) for m in maps) + "}"


def make_domain(kind: str, variables: tuple[str, ...],
                max_disjuncts: int = 64) -> StateDomain:
    if kind == "const":
        return ConstDomain(variables)
    if kind == "const-powerset":
        return ConstPowersetDomain(variables, max_disjuncts)
    raise ValueError(f"unknown domain {kind!r}")
