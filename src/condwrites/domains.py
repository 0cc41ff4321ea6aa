"""Abstract state domains: the shared contract, the constant-map domain,
and its disjunctive (powerset) completion.

A constant map is an int bitset over a process-wide intern table (hash
consing, after Filliâtre & Conchon, "Type-safe modular hash-consing", ML
Workshop 2006): on first use each variable gets the next even bit and each
binding `(var, value)` the next odd bit, and a map is the OR of its
bindings' bits and their variables' bits. `CM_TOP` is 0 and bottom is the
sentinel `CM_BOT`, checked by identity. The invariant, which every
primitive keeps: a variable's bit is set iff exactly one of its binding
bits is. So a map binds a variable of a set S iff it shares a bit with S's
variables' masks, and the lattice operations are a few int operations:
meet is `a | b`, which is ⊥ iff some variable ends with two binding bits,
that is iff its bit count is not twice its count of variable bits; join is
`a & b`, whose variable bits are repaired, by that same count test, only
when the operands bind a variable to different values; leq is
`a & b == b`; havoc clears the dropped variables' masks, cached per drop
set until the next binding is interned. The table is never cleared, so
equal maps are equal ints, and hash alike, across analyses in one process:
the `CondWrites` memos, the tests and the grouping of
`oracle.check_soundness` rely on it. An int means nothing to another
process. A map is decoded once, into the frozenset of its bindings
(`_BINDING_SETS`), its one decoded form: `contains`, `bound_vars`,
`close_one` and `_eval`'s arithmetic fallback read it, and `cm_items(d)`
sorts it by variable on demand, for `fmt` and the tests. A powerset element
is a frozenset of non-bottom constant maps: bottom is the empty frozenset
and top is `frozenset({CM_TOP})`. Domain objects carry the variable set and
two plain int counters: `ops`, the join/meet count (the Ops metric), and
`cap_collapses`, the powerset cap collapses. The powerset domain also holds
its disjunct cap `max_disjuncts` and its `stabilise` precision `n`. A
domain is a plain lattice plus its algorithms and keeps no memo:
`CondWrites` keeps every one. A join or meet with a bottom operand is
neither performed nor counted: the join returns the other operand and the
meet bottom. Expressions are evaluated by the concrete semantics of `lang`.
Every powerset element the domain hands out is normalised and within its
cap, so an operation on operands of one map each computes the one result
map directly, and only operands of several maps are renormalised through
`make`.

The domain contract, `StateDomain`, is the lattice and its primitives plus
the two abstract steps of the interference layer, `stabiliser(i)` and
`close_one(i, v)`. The const domain supplies both as closed forms. The
powerset domain builds both on one subset walk, `_walk`: its write-set plan
for `stabilise` and its pruned `close_one`. The walk is level-wise, as
Apriori's candidate generation: it builds a write set, and meets its
write-condition, only when every subset one member smaller is live, that
is yielded with a non-⊥ write-condition and not dropped by the caller.

The interference steps take a sparse interference i (see `interference`):
a variable missing from i has write-condition bottom, so a write set with
such a member meets to bottom, and the walk ranges over i's keys alone.

A domain's `fmt(d)` prints an element in the one form every report uses,
with the glyphs ⊥ ⊤ ↦. This module is the only code that prints them,
and `fmt_map` the only code that prints the map syntax `[k↦x, …]`, which
the text report's rely and guarantee lines share. `ASCII` is the
`str.translate` table that respells the glyphs as `bot`, `top`, `|->`.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial, reduce
from operator import or_
from typing import Iterable

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
        return math.prod(len(vals) for _, vals in self.values)

    def check_size(self) -> None:
        size = self.size()
        if size > UNIVERSE_CAP:
            raise UniverseTooLarge(f"{size} states exceeds cap {UNIVERSE_CAP}")


# ---------------------------------------------------------------------------
# Constant maps (pure value-level operations, uncounted). An unbound variable
# is unconstrained. More bindings means fewer states, so the order is reversed
# inclusion of binding sets: leq is superset, join is intersection, meet is
# union. A map is an int bitset over the intern table below (see the module
# docstring).


class _Bottom:
    """Type of CM_BOT, the constant map of no states. It equals only itself,
    and copies and pickles resolve to the module's one instance."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "CM_BOT"

    def __reduce__(self) -> str:
        return "CM_BOT"


CM_TOP = 0
CM_BOT = _Bottom()

# The intern table, shared by every analysis in the process and never
# cleared. On first use a variable gets the next even bit and a binding
# (var, value) the next odd bit.
_VARS = 0  # the bits of every interned variable
_VAR_MASK: dict[str, int] = {}  # var -> its bit and its bindings' bits
_PAIR: dict[tuple[str, int], int] = {}  # (var, value) -> var's bit | its bit
_BINDING: dict[int, tuple[str, int]] = {}  # binding's bit -> (var, value)
# drop set -> its variables' masks, cleared whenever a binding is interned,
# as the new binding's bit widens its variable's mask
_DROP_MASK: dict = {}


def _intern(var: str, value: int) -> int:
    global _VARS
    if var not in _VAR_MASK:
        _VAR_MASK[var] = 1 << 2 * len(_VAR_MASK)
        _VARS |= _VAR_MASK[var]
    bit = 1 << 2 * len(_BINDING) + 1
    pair = _PAIR[var, value] = _VAR_MASK[var] & _VARS | bit
    _VAR_MASK[var] |= bit
    _BINDING[bit] = var, value
    _DROP_MASK.clear()
    return pair


def _pair(var: str, value: int) -> int:
    """The bits of the one-binding map {var ↦ value}."""
    pair = _PAIR.get((var, value))
    return _intern(var, value) if pair is None else pair


def _drop_mask(drop) -> int:
    """The bits of the variables in `drop` and of all their bindings."""
    mask = _DROP_MASK.get(drop)
    if mask is None:
        mask = _DROP_MASK[drop] = reduce(
            or_, [_VAR_MASK.get(v, 0) for v in drop], 0)
    return mask


class _BindingSets(dict):
    """map -> the frozenset of its bindings, decoded once: the one decoded
    form, which `contains` tests against a store's items at C level."""

    def __missing__(self, d: int) -> frozenset:
        bindings = []
        bits = d & ~_VARS
        while bits:
            low = bits & -bits
            bindings.append(_BINDING[low])
            bits ^= low
        out = self[d] = frozenset(bindings)
        return out


_BINDING_SETS = _BindingSets()


def cm_items(d) -> tuple[tuple[str, int], ...]:
    """The bindings of a non-bottom map, sorted by variable, for `fmt` and
    the tests."""
    return tuple(sorted(_BINDING_SETS[d]))


def cm_make(bindings: dict[str, int]) -> int:
    d = CM_TOP
    for var, value in bindings.items():
        d |= _pair(var, value)
    return d


def cm_leq(d1, d2) -> bool:
    if d1 is CM_BOT:
        return True
    if d2 is CM_BOT:
        return False
    return d1 & d2 == d2


def cm_join(d1, d2):
    if d1 is CM_BOT:
        return d2
    if d2 is CM_BOT:
        return d1
    j = d1 & d2
    if j.bit_count() != 2 * (j & _VARS).bit_count():
        # some variable is bound in both to different values: clear its bit
        only = d1 & ~d2 & ~_VARS
        while only:
            low = only & -only
            j &= ~_VAR_MASK[_BINDING[low][0]]
            only ^= low
    return j


def cm_meet(d1, d2):
    if d1 is CM_BOT or d2 is CM_BOT:
        return CM_BOT
    m = d1 | d2
    if m.bit_count() != 2 * (m & _VARS).bit_count():
        return CM_BOT  # some variable bound to two values
    return m


def cm_havoc(d, drop: frozenset[str]):
    if d is CM_BOT:
        return CM_BOT
    return d & ~_drop_mask(drop)


def _eval(e: Expr, d: int) -> int | None:
    """Abstract expression evaluation over the map d: the concrete value,
    or None (unknown) when e reads an unbound variable or overflows 64 bits.
    A variable's value is read by masking, and anything larger is evaluated
    by `lang.eval_expr` on d's decoded bindings."""
    if type(e) is Lit:
        return e.n
    if type(e) is VarRef:
        # d's bits of the variable: its bit and its binding's bit, or none
        bits = d & _VAR_MASK.get(e.name, 0)
        binding = _BINDING.get(bits ^ (bits & _VARS))
        return None if binding is None else binding[1]
    try:
        return eval_expr(e, dict(_BINDING_SETS[d]))
    except (KeyError, EvalOverflow):
        return None


def cm_post(a: Assign, d):
    if d is CM_BOT:
        return CM_BOT
    # every right-hand side reads the old bindings; the targets are distinct
    values = [_eval(e, d) for e in a.exprs]
    d &= ~_drop_mask(a.targets)
    for v, n in zip(a.targets, values):
        if n is not None:
            d |= _pair(v, n)
    return d


def cm_filter_cmp(c: Cmp, d):
    if d is CM_BOT:
        return CM_BOT
    lv = _eval(c.left, d)
    rv = _eval(c.right, d)
    if lv is not None and rv is not None:
        return d if CMP_OPS[c.op](lv, rv) else CM_BOT
    if c.op == "==":
        # refine an unbound variable compared against a known constant: the
        # meet with {var ↦ value}, which cannot be ⊥, adds the binding
        if isinstance(c.left, VarRef) and lv is None and rv is not None:
            return d | cm_make({c.left.name: rv})
        if isinstance(c.right, VarRef) and rv is None and lv is not None:
            return d | cm_make({c.right.name: lv})
    return d


# ---------------------------------------------------------------------------
# Domain contract


class StateDomain(ABC):
    """Lattice over sets of states plus abstract assignment post,
    condition filter, and havoc, and the two abstract steps of the
    interference layer (see `interference`), which every domain supplies:
    `stabiliser(i)` returns the function d ↦ stabilise(i, d), which
    `CondWrites` builds once per rely and whose results it memoises, and
    `close_one(i, v)` is one step of `CondWrites.close`, i[v] weakened by
    every write set. Precision parameters are fixed on the domain object.

    Elements are hashable and compare by content, not identity: an element
    rebuilt from new objects equals the original and hashes alike. The
    `CondWrites` memo keys and the grouping of `oracle.check_soundness`
    rely on this."""

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
    def fmt(self, d) -> str: ...

    def filter(self, c: Cond, d):
        """Keep (an over-approximation of) the states in d satisfying c.
        A comparison is tested first: most guards are one."""
        if isinstance(c, Cmp):
            return self._filter_cmp(c, d)
        if isinstance(c, BoolLit):
            return d if c.value else self.bot()
        if isinstance(c, And):
            for part in c.parts:
                d = self.filter(part, d)
            return d
        if isinstance(c, Or):
            out = self.bot()
            for part in c.parts:
                out = self.join(out, self.filter(part, d))
            return out
        raise TypeError(c)

    @abstractmethod
    def stabiliser(self, i: dict): ...

    @abstractmethod
    def close_one(self, i: dict, v: str): ...


# ---------------------------------------------------------------------------
# Printing: the only code that prints the glyphs ⊥ ⊤ ↦. `ASCII` respells
# them in a finished report (`--ascii`).

ASCII = str.maketrans({"⊥": "bot", "⊤": "top", "↦": "|->"})


def fmt_map(pairs) -> str:
    """`[k↦x, …]`, the syntax of a constant map and of an interference."""
    return "[" + ", ".join(f"{k}↦{x}" for k, x in pairs) + "]"


def _fmt_cm(d) -> str:
    if d is CM_BOT:
        return "⊥"
    return fmt_map(cm_items(d)) if d else "⊤"


def _fmt_pw(d) -> str:
    if not d:
        return "⊥"
    if d == PW_TOP:
        return "⊤"
    return "{" + "; ".join(map(_fmt_cm, sorted(d, key=cm_items))) + "}"


class ConstDomain(StateDomain):
    """Flat constant-propagation maps."""

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
            self.ops += 1
        return cm_join(d1, d2)

    def meet(self, d1, d2):
        if d1 is not CM_BOT and d2 is not CM_BOT:
            self.ops += 1
        return cm_meet(d1, d2)

    def havoc(self, d, drop: frozenset[str]):
        return cm_havoc(d, drop)

    def post(self, a: Assign, d):
        return cm_post(a, d)

    def contains(self, d, state: dict) -> bool:
        return d is not CM_BOT and _BINDING_SETS[d] <= state.items()

    def _filter_cmp(self, c: Cmp, d):
        return cm_filter_cmp(c, d)

    def fmt(self, d) -> str:
        return _fmt_cm(d)

    def stabiliser(self, i: dict):
        """Drop from d every variable whose write-condition d meets, by one
        havoc; ⊥ stays ⊥ at no cost. Equals the subset enumeration of
        `CondWrites.stabilise` for every bound n, so the domain takes none:

            stabilise(i, d) = havoc(d, {u | d ⊓ i[u] ≠ ⊥})

        Feasibility is downward closed: wc_S only shrinks as S grows, so
        every variable u of a write set with d ⊓ wc_S ≠ ⊥ has d ⊓ i[u] ≠ ⊥,
        and each such u is itself a feasible singleton (exact when n ≥ 1, in
        the coarse term when n = 0). Every term binds what d binds, plus
        wc_S's bindings, minus S; the empty write set contributes d itself,
        and the flat join intersects bindings. So the join keeps exactly the
        bindings of d whose variable no write set feasible with d touches,
        and ⊥ stays ⊥.

        Each meet d ⊓ i[u] is decided by the count test of `cm_meet` on
        d | i[u], without building the map, and each touched variable's bits
        are cleared from d by its current mask. A write-condition of ⊤ binds
        nothing, so its variable is always touched. The ops are the closed
        form's meets, one per variable of i whose write-condition is not ⊥,
        all counted, as every such meet has two operands other than ⊥; a ⊥
        entry, which a sparse interference never stores, is never touched
        and counts nothing."""
        live = [(u, wc) for u, wc in i.items() if wc is not CM_BOT]
        meets = len(live)

        def step(d):
            if d is CM_BOT:
                return CM_BOT
            self.ops += meets
            drop, var_bits = 0, _VARS
            for u, wc in live:
                m = d | wc
                if m.bit_count() == 2 * (m & var_bits).bit_count():
                    drop |= _VAR_MASK.get(u, 0)
            return d & ~drop
        return step

    def close_one(self, i: dict, v: str):
        """Weaken i[v] by the one write set that decides each of its
        bindings, the least set S ∋ x closed under "u ∈ S and i[u] binds a
        variable y of i[v] to another value ⇒ y ∈ S". ⊥ and ⊤ stay as they
        are. Equals the pruned subset walk of `ConstPowersetDomain.close_one`
        on the flat domain, whose const copy `tests/reference_interference.py`
        keeps.

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

        A least set with a member whose write-condition is ⊥ (missing from
        i) has wc_S = ⊥, so its term joins nothing, and it depends on
        membership alone. So the closure rule's edges are listed once per
        call, as each written variable's clash list: the variables of i[v]
        that its write-condition binds to another value. Least sets grow
        only from written variables, along these lists, and a set is
        dropped as soon as it reaches a variable without a write-condition.
        When no set survives, i[v] is returned as it is.

        The surviving least sets are visited by ascending size, then name,
        and a strict superset of a set already found dominated (wc ⊑ h, ⊥
        included) is skipped with no op, as the walk skips it: it meets
        below that set's wc, which is joined in whole. A subset is smaller,
        so it is visited first, and what is skipped does not depend on the
        names. Any other set folds wc_S over its members in sorted order,
        |S| - 1 meets, then joins its term, plus one meet when wc_S ⋢ h.
        The clash lists, closures, havocs and ⊑ tests are uncounted, like
        the walk's choice of candidate variables. On random inputs over up
        to 5 variables it never counts more ops than the pruned walk, and
        the tests check that."""
        iv = i.get(v, CM_BOT)
        if iv is CM_BOT or iv == CM_TOP:
            return iv
        bound = dict(_BINDING_SETS[iv])
        # each written variable of i[v] -> the variables of i[v] that its
        # write-condition binds to another value
        clash = {u: [y for y, c in _BINDING_SETS[i[u]] if bound.get(y, c) != c]
                 for u in bound if u in i}
        # each surviving least set as (size, sorted names)
        least_sets: set[tuple[int, tuple[str, ...]]] = set()
        for x in clash:
            least, todo = {x}, [x]
            while todo:
                ys = clash.get(todo.pop())
                if ys is None:
                    break  # a member without a write-condition: wc_S = ⊥
                for y in ys:
                    if y not in least:
                        least.add(y)
                        todo.append(y)
            else:
                least_sets.add((len(least), tuple(sorted(least))))
        if not least_sets:
            return iv
        acc = iv
        dominated: list[frozenset[str]] = []
        for _, names in sorted(least_sets):
            vset = frozenset(names)
            if any(d0 < vset for d0 in dominated):
                continue
            wc = reduce(self.meet, [i[u] for u in names])
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
    # ascending binding count (half the bit count) need only test the maps
    # already kept: a dropped map's bindings contain a kept map's, and
    # containment is transitive. The maps are distinct, so k's bits within
    # m's is strict containment.
    uniq = set(maps)
    uniq.discard(CM_BOT)
    if len(uniq) < 2:
        return frozenset(uniq)
    kept: list[int] = []
    for m in sorted(uniq, key=int.bit_count):
        for k in kept:
            if k & m == k:
                break
        else:
            kept.append(m)
    return frozenset(kept)


class ConstPowersetDomain(StateDomain):
    """Disjunctive completion of the constant domain, with a disjunct cap:
    on overflow all disjuncts collapse to their flat join, and
    `cap_collapses` counts one. `stabiliser(i)` is `stabilise_plan` over
    i's write-set plan, grouped by write-condition and exact for write sets
    of ≤ n, and `close_one` is the pruned walk; both run on `_walk`.

    Every element the domain hands out is normalised (no map's bindings
    strictly contain another's) and within the cap, and the primitives rely
    on it. A single non-bottom map is such an element at every cap, since
    the cap is at least 1. So when every operand of `leq`, `join`, `meet`,
    `havoc`, `post` or `_filter_cmp` holds one map, the method computes the
    one result map with its `cm_*` primitive and wraps it, with no `make`:
    a filter returns its operand where `cm_filter_cmp` leaves the map as it
    is, a join returns the operand whose map has strictly fewer bindings,
    and a join of two incomparable maps goes through `_cap`, which at cap 1
    collapses it and counts the collapse as `make` would. Operands of
    several maps take `make`, so values, ops and collapses are those of
    renormalising every result; `tests/reference_domains.py` keeps those
    bodies, over frozenset maps, as the differential reference."""

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
        return frozenset({reduce(cm_join, d)})

    def stabiliser(self, i: dict):
        return partial(self.stabilise_plan, plan=self._write_sets(i))

    def _walk(self, i: dict, names, max_card: int, skip: list):
        """The subset walk: each non-empty write set S of at most max_card
        of `names`, all keys of i, whose wc_S is not ⊥ and whose subsets one
        member smaller are all live, as `(S, wc_S)`: by size, then in
        lexicographic order of the sorted names. A set is live when it was
        yielded and the caller did not append to `skip` before taking the
        next set; appending is how a caller says it wants none of the set's
        supersets. A singleton's wc is i[v]; a larger set's is one meet of
        its prefix's wc, S minus its last name, with i[last]. Feasibility is
        downward closed, as wc_S only shrinks as S grows, so a superset of a
        ⊥ set has ⊥ wc too. A variable missing from i has wc ⊥, so a walk
        over i's keys misses no set with a non-⊥ wc.

        The walk is level-wise, as Apriori generates its candidates
        (Agrawal & Srikant, "Fast algorithms for mining association rules",
        VLDB 1994): a level maps each live set of one size, as its sorted
        names, to its wc and the position after its last name. A set is
        built only by extending a live prefix with a later name, and only
        if its other one-smaller subsets are live too; that test is left
        out while every set walked so far has been live, since then each
        level holds every set of its size. So a set is built, and its meet
        counted, iff no strict subset of it is ⊥ or dropped by the caller:
        had one been, some one-smaller subset would not be live. Neither a
        ⊥ set nor a rejected candidate is made into a frozenset, and no
        skip list is scanned.

        A yielded set's prefix was yielded, so its wc is at hand, and the
        walk computes the same left fold, top ⊓ i[v1] ⊓ … ⊓ i[vk] in name
        order, as a walk that re-meets each set from top, because
        top ⊓ x = x. So each wc_S equals that walk's also where the powerset
        cap collapses disjuncts inside a meet, and meets no longer
        associate; only the ops of the repeated meets fall.
        `tests/reference_interference.py` keeps the walk that enumerates
        every combination and skips the strict supersets of a listed set,
        as the differential reference."""
        names = sorted(names)
        count = len(names)
        meet = self.meet
        level = {(): (None, 0)}  # the live sets of the last size walked
        all_live = True  # every set walked so far is live
        for k in range(1, max_card + 1):
            check = not all_live
            nxt = {}
            for prefix, (prefix_wc, start) in level.items():
                for j in range(start, count):
                    last = names[j]
                    combo = prefix + (last,)
                    if check and any(combo[:p] + combo[p + 1:] not in level
                                     for p in range(k - 1)):
                        continue
                    wc = meet(prefix_wc, i[last]) if prefix else i[last]
                    if not wc:
                        all_live = False
                        continue
                    dropped = len(skip)
                    yield frozenset(combo), wc
                    if len(skip) == dropped:
                        nxt[combo] = wc, j + 1
                    else:
                        all_live = False
            if not nxt:
                return
            level = nxt

    def _write_sets(self, i: dict) -> tuple[list, list]:
        """The plan of `_walk` over i's variables at precision n, as
        `(groups, coarse)`: every write set S of at most n + 1 variables
        whose wc_S is not ⊥, in walk order, without the empty set, whose wc
        is top and whose term is d itself. `coarse` lists the (n+1)-sets as
        `(vset, wc_S)`. `groups` holds the exact sets (|S| ≤ n) by stored
        wc_S, one `(wc, sets, heads)` per distinct wc in the order the walk
        first meets it: `sets` are the group's write sets in walk order and
        `heads` those with no one-larger exact superset S ∪ {u} in the plan
        whose wc equals theirs, for `stabilise_plan`. Not memoised:
        `CondWrites` calls `stabiliser(i)`, and so this, once per rely, so
        every `stabilise` under one rely shares the plan, and a miss only
        meets d with each group's wc, havocs and joins.

        This walk drops no set, so `_walk` yields a set only after all its
        subsets one member smaller, and only when each of them was yielded.
        So as each set arrives it compares its wc with theirs and marks
        those of equal wc as no head. The heads cost no lattice operation;
        the comparison is of stored values, capped as built."""
        wcs = {frozenset(): self.top()}  # each exact set's wc
        dominated = set()  # exact sets below a one-larger set of equal wc
        groups: dict = {}  # wc -> its exact sets, in walk order
        coarse = []
        for vset, wc in self._walk(i, i.keys(), self.n + 1, []):
            if len(vset) > self.n:
                coarse.append((vset, wc))
                continue
            wcs[vset] = wc
            groups.setdefault(wc, []).append(vset)
            for u in vset:
                if wcs[sub := vset - {u}] == wc:
                    dominated.add(sub)
        return [(wc, sets, [s for s in sets if s not in dominated])
                for wc, sets in groups.items()], coarse

    def close_one(self, i: dict, v: str):
        """One step of `CondWrites.close` for v by the pruned subset walk: it
        considers only the variables of i that some disjunct of i[v] binds
        (`bound_vars`), and skips the strict supersets of a set whose meet
        its havoc already covers (a set whose meet is ⊥ among them). Each
        skipped term's exact value lies below a kept term's, so where meets
        and joins are exact (the flat domain, and the powerset while no
        result exceeds its cap) the pruning changes no value. When the cap
        collapses disjuncts inside a meet or join, `close`'s pruned result
        can differ from the unpruned walk's; on random inputs at caps 2-4 it
        then lay below it. The unpruned walk is kept as the differential
        reference in `tests/reference_interference.py`. A set's meet is one
        meet of its prefix's with i[last], by `_walk`, as in `_write_sets`.

        On a normalised i[v] the candidates are the variables u of i with
        havoc(i[v], {u}) ≠ i[v], the rule the reference keeps: each disjunct
        binding u loses that binding, no disjunct of the havoc binds u, and
        a havoc by a variable no disjunct binds changes nothing."""
        iv = i.get(v, PW_BOT)
        # adding another variable to a write set keeps its havoc and only
        # shrinks its meet (to ⊥ if i lacks it), so its term adds nothing
        candidates = i.keys() & self.bound_vars(iv)
        acc = iv  # empty-set term: havoc by nothing meets the empty meet (top)
        dominated: list[frozenset[str]] = []
        for vset, m in self._walk(i, candidates, len(candidates), dominated):
            h = self.havoc(iv, vset)
            if self.leq(m, h):
                # a strict superset meets below m, which is joined in whole
                dominated.append(vset)
                acc = self.join(acc, m)
            else:
                acc = self.join(acc, self.meet(h, m))
        return acc

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

        The pass builds no term that the normalisation would drop, and skips
        two kinds. First, every exact set that is not its group's head:
        such an S has a one-larger exact superset S ∪ {u} of equal wc, and
        following such supersets ends at a head H ⊇ S of the same wc. For
        each map m of d and disjunct w of that wc, havoc(m ⊓ w, H) binds a
        subset of what havoc(m ⊓ w, S) binds, so S's term is H's or lies
        below it. Second, for a head S, every map m of d that binds no
        variable of S: the term havoc(m ⊓ w, S) keeps all of m's bindings,
        so it is m or lies below it, and m is in the pool. The normal form,
        the antichain of the disjunctive completion (Cousot & Cousot, POPL
        1979), is unique, so the result, and whether the cap fires, do not
        change. The coarse (n+1)-sets skip nothing: their terms are
        havocked by the union of every feasible coarse set, which can take
        bindings of m that S does not, so a term of m need not lie below m.

        The pass performs no counted operation but counts those of the
        enumeration, per write set, not per term, so the skipping changes
        none: one meet per non-empty write set, one join per exact set that
        is feasible with d, and one join per feasible (n+1)-set (the coarse
        fold's joins plus its join into the result). An exact set is
        feasible when some map of d meets some disjunct of wc_S to a non-⊥
        map, which depends on (d, wc_S) alone: so each group meets every map
        of d with every disjunct of its wc once, decides feasibility from
        those meets, havocs them by each head, and counts its sets × 2 ops
        if feasible, else × 1. So ops do not depend on the skipping or on
        whether a collapse fires. ⊥ stays ⊥ at no cost. Where the pass pools
        no term, the pool is d's own maps, already normalised and within the
        cap, so `make` would return d: the pass returns d itself. Coarse
        terms alone can change d, so they count as pooled."""
        if not d:
            return d
        groups, coarse = plan
        maps = list(d)
        ops = 0
        for wc, sets, heads in groups:
            met = [(x, m) for m in d for w in wc
                   if (x := cm_meet(m, w)) is not CM_BOT]
            if met:
                for vset in heads:
                    # m binds a variable of S iff it shares a bit with S's mask
                    mask = _drop_mask(vset)
                    maps += [cm_havoc(x, vset) for x, m in met if m & mask]
                ops += 2 * len(sets)
            else:
                ops += len(sets)
        merged = []
        y_vars: set[str] = set()
        for vset, wc in coarse:
            met = [x for m in d for w in wc
                   if (x := cm_meet(m, w)) is not CM_BOT]
            if met:
                merged += met
                y_vars |= vset
                ops += 2  # the meet and the coarse join of a feasible set
            else:
                ops += 1
        if merged:
            drop = frozenset(y_vars)
            maps += [cm_havoc(x, drop) for x in merged]
        self.ops += ops
        if len(maps) == len(d):  # no term pooled
            return d
        return self.make(maps)

    def top(self):
        return PW_TOP

    def bot(self):
        return PW_BOT

    def is_bot(self, d) -> bool:
        return not d

    def leq(self, d1, d2) -> bool:
        # Hoare order: sound, possibly incomplete
        if len(d1) == 1 == len(d2):
            (m1,), (m2,) = d1, d2
            return m1 & m2 == m2
        return all(any(m1 & m2 == m2 for m2 in d2) for m1 in d1)

    def join(self, d1, d2):
        """`make(d1 ∪ d2)`, returned as is where one antichain holds the
        other, or one map has strictly fewer bindings than the other."""
        if not d1:
            return d2
        if not d2:
            return d1
        self.ops += 1
        if d1 <= d2:
            return d2
        if d2 <= d1:
            return d1
        if len(d1) == 1 == len(d2):
            (m1,), (m2,) = d1, d2  # distinct, as d1 ⊄ d2
            if m1 & m2 == m1:
                return d1
            if m1 & m2 == m2:
                return d2
            return self._cap(d1 | d2)  # two incomparable maps
        return self.make(d1 | d2)

    def meet(self, d1, d2):
        if not d1 or not d2:
            return PW_BOT
        self.ops += 1
        if len(d1) == 1 == len(d2):
            (m1,), (m2,) = d1, d2
            m = cm_meet(m1, m2)
            return PW_BOT if m is CM_BOT else frozenset((m,))
        return self.make(cm_meet(m1, m2) for m1 in d1 for m2 in d2)

    def havoc(self, d, drop: frozenset[str]):
        if len(d) == 1:
            (m,) = d
            return frozenset((cm_havoc(m, drop),))
        return self.make(map(cm_havoc, d, itertools.repeat(drop)))

    def post(self, a: Assign, d):
        if len(d) == 1:
            (m,) = d
            return frozenset((cm_post(a, m),))
        return self.make(map(partial(cm_post, a), d))

    def contains(self, d, state: dict) -> bool:
        items = state.items()
        for m in d:
            if _BINDING_SETS[m] <= items:
                return True
        return False

    def _filter_cmp(self, c: Cmp, d):
        if len(d) == 1:
            (m,) = d
            m1 = cm_filter_cmp(c, m)
            if m1 is m:
                return d
            return PW_BOT if m1 is CM_BOT else frozenset((m1,))
        return self.make(map(partial(cm_filter_cmp, c), d))

    def bound_vars(self, d) -> set[str]:
        return {v for m in d for v, _ in _BINDING_SETS[m]}

    def fmt(self, d) -> str:
        return _fmt_pw(d)


DOMAINS = ("const", "const-powerset")  # the kinds make_domain builds


def make_domain(kind: str, variables: tuple[str, ...],
                max_disjuncts: int = 64, n: int | None = None) -> StateDomain:
    if kind == "const":
        return ConstDomain(variables)
    if kind == "const-powerset":
        return ConstPowersetDomain(variables, max_disjuncts, n)
    raise ValueError(f"unknown domain {kind!r}")
