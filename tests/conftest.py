"""Shared test helpers: independent brute-force semantics used as ground
truth. Nothing here goes through the analyzer's lattice code paths beyond
constructing elements."""

from __future__ import annotations

import itertools
import random

from condwrites.domains import (
    CM_BOT, ConstPowersetDomain, StateDomain, Universe, _pw_normalize,
    cm_items, cm_make,
)
from condwrites.lang import Assign, Lit, VarRef, eval_expr


# -- independent concretisation ------------------------------------------------


def bf_states(universe: Universe) -> list[tuple]:
    """All stores of the universe as value tuples in var order."""
    return [combo for combo in itertools.product(
        *(vals for _, vals in universe.values))]


def bf_gamma_cm(d, universe: Universe) -> set[tuple]:
    """Concretisation of a constant map: a bitset read through `cm_items`,
    or CM_BOT."""
    if d is CM_BOT:
        return set()
    order = universe.var_order
    bind = dict(cm_items(d))
    return {
        s for s in bf_states(universe)
        if all(bind.get(v) is None or s[i] == bind[v] for i, v in enumerate(order))
    }


def bf_gamma(dom: StateDomain, d, universe: Universe) -> set[tuple]:
    """Concretisation of an element of `dom`. A const element is a bitset
    and a powerset element a frozenset of them, so the domain says how to
    read d."""
    if isinstance(dom, ConstPowersetDomain):
        out: set[tuple] = set()
        for m in d:
            out |= bf_gamma_cm(m, universe)
        return out
    return bf_gamma_cm(d, universe)


def bf_gamma_x(dom: StateDomain, i: dict, universe: Universe) -> set[tuple]:
    """Transition concretisation: (s1, s2) is admitted iff every variable
    that changes has s1 inside its write-condition. i is sparse: a missing
    variable's write-condition is bottom."""
    order = universe.var_order
    gammas = {v: bf_gamma(dom, i.get(v, dom.bot()), universe) for v in order}
    states = bf_states(universe)
    pairs = set()
    for s1 in states:
        ok = {v for v in order if s1 in gammas[v]}
        for s2 in states:
            if all(s2[k] == s1[k] or order[k] in ok for k in range(len(order))):
                pairs.add((s1, s2))
    return pairs


def bf_step_image(pairs: set[tuple], states: set[tuple]) -> set[tuple]:
    return {s2 for (s1, s2) in pairs if s1 in states}


def bf_is_transitive(pairs: set[tuple]) -> bool:
    by_src: dict = {}
    for s1, s2 in pairs:
        by_src.setdefault(s1, set()).add(s2)
    for s1, s2 in pairs:
        for s3 in by_src.get(s2, ()):
            if (s1, s3) not in pairs:
                return False
    return True


# -- randomized element generators ----------------------------------------------


def random_cm(rng: random.Random, variables, values=(0, 1),
              p_bot: float = 0.05):
    if rng.random() < p_bot:
        return CM_BOT
    bind = {}
    for v in variables:
        r = rng.random()
        if r < 0.4:
            continue  # leave unconstrained
        bind[v] = rng.choice(values)
    return cm_make(bind)


def random_pw(rng: random.Random, dom: ConstPowersetDomain, values=(0, 1),
              max_disjuncts: int = 3):
    # at most dom's cap of maps, normalised but not capped, so that a low
    # cap does not collapse the element before the code under test sees it
    k = rng.randint(0, min(max_disjuncts, dom.max_disjuncts))
    return _pw_normalize(random_cm(rng, dom.variables, values)
                         for _ in range(k))


def random_elem(rng: random.Random, dom, values=(0, 1)):
    if isinstance(dom, ConstPowersetDomain):
        return random_pw(rng, dom, values)
    return random_cm(rng, dom.variables, values)


def random_interference(rng: random.Random, dom, values=(0, 1)) -> dict:
    """A sparse interference: one random element drawn per variable, and
    the bottom ones left out."""
    return {v: wc for v in dom.variables
            if not dom.is_bot(wc := random_elem(rng, dom, values))}


def sparse(i: dict) -> dict:
    """A total const interference without its CM_BOT write-conditions: the
    sparse form the analyzer stores."""
    return {v: wc for v, wc in i.items() if wc is not CM_BOT}


def random_assign(rng: random.Random, variables, values=(0, 1)) -> Assign:
    k = rng.randint(1, min(2, len(variables)))
    targets = tuple(rng.sample(list(variables), k))
    exprs = tuple(
        Lit(rng.choice(values)) if rng.random() < 0.6
        else VarRef(rng.choice(list(variables)))
        for _ in range(k)
    )
    return Assign(1, targets, exprs)


def bf_exec_assign(a: Assign, store: tuple, order) -> tuple:
    s = dict(zip(order, store))
    values = [eval_expr(e, s) for e in a.exprs]
    for v, n in zip(a.targets, values):
        s[v] = n
    return tuple(s[v] for v in order)
