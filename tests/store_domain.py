"""An exact store-set domain: a third implementation of the `StateDomain`
contract, for the tests.

An element is the frozenset of the stores it holds, each a value tuple in
the universe's variable order, the order the oracle reports stores in. Top
is every store of the universe and bottom the empty set, so the lattice is
the powerset of the universe and every operation is exact. The two
interference steps are the references of `tests/reference_interference.py`:
`stabiliser(i)` is the unpruned subset enumeration at n = |V|, and
`close_one` the pruned walk. The domain keeps no memo and counts its joins
and meets with a non-bottom operand in `ops`, as the contract asks; it
never caps, so `cap_collapses` stays 0.

The analyses in `test_store_domain.py` run it by patching
`engine.make_domain`, so `src/` has no knowledge of it. Its universe should
hold every value the program writes (`oracle.default_universe` does for a
program that writes literals and copies); a write outside it raises
`ValueError`.
"""

from __future__ import annotations

import itertools

from condwrites.domains import StateDomain, Universe, fmt_map
from condwrites.interference import CondWrites
from condwrites.lang import Assign, Cmp, eval_cond, eval_expr

from reference_interference import pruned_close_one, stabilise_enum


class StoreSetDomain(StateDomain):
    def __init__(self, variables, universe: Universe):
        super().__init__(variables)
        if universe.var_order != self.variables:
            raise ValueError("the universe must range over the domain's variables")
        self.stores = frozenset(itertools.product(*(vals for _, vals in universe.values)))

    def env(self, store: tuple) -> dict:
        return dict(zip(self.variables, store))

    def top(self):
        return self.stores

    def bot(self):
        return frozenset()

    def is_bot(self, d) -> bool:
        return not d

    def leq(self, d1, d2) -> bool:
        return d1 <= d2

    def join(self, d1, d2):
        if d1 and d2:
            self.ops += 1
        return d1 | d2

    def meet(self, d1, d2):
        if d1 and d2:
            self.ops += 1
        return d1 & d2

    def havoc(self, d, drop: frozenset[str]):
        keep = [k for k, v in enumerate(self.variables) if v not in drop]
        kept = {tuple(s[k] for k in keep) for s in d}
        return frozenset(s for s in self.stores if tuple(s[k] for k in keep) in kept)

    def post(self, a: Assign, d):
        out = set()
        for s in d:
            env = self.env(s)
            new = dict(env, **dict(zip(a.targets, [eval_expr(e, env) for e in a.exprs])))
            store = tuple(new[v] for v in self.variables)
            if store not in self.stores:
                raise ValueError(f"assignment at {a.label} writes outside the universe")
            out.add(store)
        return frozenset(out)

    def contains(self, d, state: dict) -> bool:
        return tuple(state[v] for v in self.variables) in d

    def _filter_cmp(self, c: Cmp, d):
        return frozenset(s for s in d if eval_cond(c, self.env(s)))

    def fmt(self, d) -> str:
        if not d:
            return "⊥"
        if d == self.stores:
            return "⊤"
        return "{" + "; ".join(fmt_map(zip(self.variables, s)) for s in sorted(d)) + "}"

    def stabiliser(self, i: dict):
        cw = CondWrites(self)
        return lambda d: stabilise_enum(cw, i, d, len(self.variables))

    def close_one(self, i: dict, v: str):
        return pruned_close_one(self, i, v)
