"""Abstract state domains: the shared contract, the constant-map domain,
and its disjunctive (powerset) completion.

Elements are immutable values; domain objects carry the variable set and a
lattice-operation counter shared with the interference layer.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator

from .lang import (
    And, Assign, BinOp, BoolLit, Cmp, Cond, Expr, Lit, Not, Or, VarRef,
    ARITH_OPS, CMP_OPS, INT_MAX, INT_MIN, negate,
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


class OpsCounter:
    """Counts state-lattice join/meet invocations (the Ops metric)."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def bump(self) -> None:
        self.count += 1


# ---------------------------------------------------------------------------
# Constant maps (pure value-level operations, uncounted)


@dataclass(frozen=True)
class ConstMap:
    """Partial map from variables to constants, as a set of bindings;
    unbound means unconstrained. The bottom element represents the empty set
    of states. More bindings means fewer states, so the order is reversed
    set inclusion: leq is superset, join is intersection, meet is union."""

    items: frozenset[tuple[str, int]] = frozenset()
    bottom: bool = False

    def get(self, var: str) -> int | None:
        for v, n in self.items:
            if v == var:
                return n
        return None

    def as_dict(self) -> dict[str, int]:
        return dict(self.items)


CM_TOP = ConstMap()
CM_BOT = ConstMap(bottom=True)


def cm_make(bindings: dict[str, int]) -> ConstMap:
    return ConstMap(frozenset(bindings.items()))


def cm_leq(d1: ConstMap, d2: ConstMap) -> bool:
    if d1.bottom:
        return True
    if d2.bottom:
        return False
    return d2.items <= d1.items


def cm_join(d1: ConstMap, d2: ConstMap) -> ConstMap:
    if d1.bottom:
        return d2
    if d2.bottom:
        return d1
    return ConstMap(d1.items & d2.items)


def cm_meet(d1: ConstMap, d2: ConstMap) -> ConstMap:
    if d1.bottom or d2.bottom:
        return CM_BOT
    merged = d1.items | d2.items
    if len(dict(merged)) != len(merged):  # some variable bound to two values
        return CM_BOT
    return ConstMap(merged)


def cm_havoc(d: ConstMap, drop: frozenset[str]) -> ConstMap:
    if d.bottom:
        return CM_BOT
    return ConstMap(frozenset(b for b in d.items if b[0] not in drop))


def cm_contains(d: ConstMap, state: dict) -> bool:
    return not d.bottom and d.items <= state.items()


def cm_eval(e: Expr, d: ConstMap) -> int | None:
    """Abstract expression evaluation: a constant or None (unknown)."""
    if isinstance(e, Lit):
        return e.n
    if isinstance(e, VarRef):
        return d.get(e.name)
    if isinstance(e, BinOp):
        a = cm_eval(e.left, d)
        b = cm_eval(e.right, d)
        if a is None or b is None:
            return None
        r = ARITH_OPS[e.op](a, b)
        if r < INT_MIN or r > INT_MAX:
            return None  # fold overflow into "unknown" rather than evaluating it
        return r
    raise TypeError(e)


def cm_post(a: Assign, d: ConstMap) -> ConstMap:
    if d.bottom:
        return CM_BOT
    values = [cm_eval(e, d) for e in a.exprs]
    known = {(v, n) for v, n in zip(a.targets, values) if n is not None}
    return ConstMap(cm_havoc(d, frozenset(a.targets)).items | known)


def cm_filter_cmp(c: Cmp, d: ConstMap) -> ConstMap:
    if d.bottom:
        return CM_BOT
    lv = cm_eval(c.left, d)
    rv = cm_eval(c.right, d)
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

    # Optional closed form `stabilise(i, d)` of `CondWrites.stabilise`, equal
    # to its subset enumeration for every n; None keeps the enumeration.
    stabilise = None

    def __init__(self, variables: tuple[str, ...], ops: OpsCounter | None = None):
        self.variables = tuple(variables)
        self.ops = ops if ops is not None else OpsCounter()

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


def _fmt_cm(d: ConstMap, ascii_only: bool) -> str:
    if d.bottom:
        return "bot" if ascii_only else "⊥"
    if not d.items:
        return "top" if ascii_only else "⊤"
    arrow = "|->" if ascii_only else "↦"
    return "[" + ", ".join(f"{v}{arrow}{n}" for v, n in sorted(d.items)) + "]"


class ConstDomain(StateDomain):
    """Flat constant-propagation maps."""

    name = "const"

    def top(self) -> ConstMap:
        return CM_TOP

    def bot(self) -> ConstMap:
        return CM_BOT

    def is_bot(self, d: ConstMap) -> bool:
        return d.bottom

    def leq(self, d1: ConstMap, d2: ConstMap) -> bool:
        return cm_leq(d1, d2)

    def join(self, d1: ConstMap, d2: ConstMap) -> ConstMap:
        self.ops.bump()
        return cm_join(d1, d2)

    def meet(self, d1: ConstMap, d2: ConstMap) -> ConstMap:
        self.ops.bump()
        return cm_meet(d1, d2)

    def havoc(self, d: ConstMap, drop: frozenset[str]) -> ConstMap:
        return cm_havoc(d, drop)

    def post(self, a: Assign, d: ConstMap) -> ConstMap:
        return cm_post(a, d)

    def contains(self, d: ConstMap, state: dict) -> bool:
        return cm_contains(d, state)

    def _filter_cmp(self, c: Cmp, d: ConstMap) -> ConstMap:
        return cm_filter_cmp(c, d)

    def fmt(self, d: ConstMap, ascii_only: bool = False) -> str:
        return _fmt_cm(d, ascii_only)

    def stabilise(self, i: dict, d: ConstMap) -> ConstMap:
        """Drop from d every variable whose write-condition d meets: ⊥ stays
        ⊥, otherwise one counted meet per variable and one havoc. Equals the
        subset enumeration of `CondWrites.stabilise` for every n (see
        `interference`)."""
        if d.bottom:
            return d
        touched = frozenset(u for u in self.variables
                            if not self.meet(d, i[u]).bottom)
        return self.havoc(d, touched)


@dataclass(frozen=True)
class PowElem:
    """Finite set of pairwise-incomparable non-bottom constant maps;
    the empty set is bottom."""

    disjuncts: frozenset[ConstMap]


def _pw_normalize(maps: Iterable[ConstMap]) -> frozenset[ConstMap]:
    # keep the maximal maps: those whose bindings strictly contain no other's.
    # Only a map with fewer bindings can be strictly contained, so a scan by
    # ascending binding count need only test the maps already kept: a dropped
    # map's bindings contain a kept map's, and containment is transitive.
    uniq = {m for m in maps if not m.bottom}
    if len(uniq) < 2:
        return frozenset(uniq)
    kept: list[ConstMap] = []
    for m in sorted(uniq, key=lambda m: len(m.items)):
        items = m.items
        if not any(k.items < items for k in kept):
            kept.append(m)
    return frozenset(kept)


class ConstPowersetDomain(StateDomain):
    """Disjunctive completion of the constant domain, with a disjunct cap:
    on overflow all disjuncts collapse to their flat join."""

    name = "const-powerset"

    def __init__(self, variables, ops: OpsCounter | None = None,
                 max_disjuncts: int = 64):
        super().__init__(variables, ops)
        if max_disjuncts < 1:
            raise ValueError(f"max_disjuncts must be >= 1, got {max_disjuncts}")
        self.max_disjuncts = max_disjuncts

    def make(self, maps: Iterable[ConstMap]) -> PowElem:
        return self._cap(PowElem(_pw_normalize(maps)))

    def _cap(self, d: PowElem) -> PowElem:
        if len(d.disjuncts) <= self.max_disjuncts:
            return d
        flat = frozenset.intersection(*(m.items for m in d.disjuncts))
        return PowElem(frozenset({ConstMap(flat)}))

    def top(self) -> PowElem:
        return PowElem(frozenset({CM_TOP}))

    def bot(self) -> PowElem:
        return PowElem(frozenset())

    def is_bot(self, d: PowElem) -> bool:
        return not d.disjuncts

    def leq(self, d1: PowElem, d2: PowElem) -> bool:
        # Hoare order: sound, possibly incomplete
        return all(
            any(cm_leq(m1, m2) for m2 in d2.disjuncts) for m1 in d1.disjuncts
        )

    def join(self, d1: PowElem, d2: PowElem) -> PowElem:
        """`make(d1 ∪ d2)` for antichains d1 and d2, by cross comparisons
        only: no map of an antichain lies strictly below another of it, and
        a map in both survives."""
        self.ops.bump()
        a, b = d1.disjuncts, d2.disjuncts
        if a <= b:
            return d2
        if b <= a:
            return d1
        keep_a = [m for m in a - b if not any(k.items < m.items for k in b)]
        keep_b = [m for m in b if not any(k.items < m.items for k in a)]
        return self._cap(PowElem(frozenset(keep_a).union(keep_b)))

    def meet(self, d1: PowElem, d2: PowElem) -> PowElem:
        self.ops.bump()
        return self.make(
            cm_meet(m1, m2) for m1 in d1.disjuncts for m2 in d2.disjuncts
        )

    def havoc(self, d: PowElem, drop: frozenset[str]) -> PowElem:
        return self.make(cm_havoc(m, drop) for m in d.disjuncts)

    def post(self, a: Assign, d: PowElem) -> PowElem:
        return self.make(cm_post(a, m) for m in d.disjuncts)

    def contains(self, d: PowElem, state: dict) -> bool:
        return any(cm_contains(m, state) for m in d.disjuncts)

    def _filter_cmp(self, c: Cmp, d: PowElem) -> PowElem:
        return self.make(cm_filter_cmp(c, m) for m in d.disjuncts)

    def fmt(self, d: PowElem, ascii_only: bool = False) -> str:
        if not d.disjuncts:
            return "bot" if ascii_only else "⊥"
        if d.disjuncts == {CM_TOP}:
            return "top" if ascii_only else "⊤"
        maps = sorted(d.disjuncts, key=lambda m: sorted(m.items))
        return "{" + "; ".join(_fmt_cm(m, ascii_only) for m in maps) + "}"


def make_domain(kind: str, variables: tuple[str, ...],
                ops: OpsCounter | None = None,
                max_disjuncts: int = 64) -> StateDomain:
    if kind == "const":
        return ConstDomain(variables, ops)
    if kind == "const-powerset":
        return ConstPowersetDomain(variables, ops, max_disjuncts)
    raise ValueError(f"unknown domain {kind!r}")
