"""Exhaustive concrete interleaving exploration.

Ground truth for soundness checks: enumerates every reachable
(program counters, store) configuration over a finite value universe,
interleaving atomic steps (one per assignment, skip, or guard evaluation).

Encoding. A store is numbered in mixed radix by the positions of its values
in the universe, last variable fastest, so store i is the i-th of
`Universe.states()`; S is the universe size. Each thread's points are the
labels of its statements (`lang.control_flow`), with EXIT = 0, and a
configuration is the one int `store + S * (pc_0 + P_0 * (pc_1 + P_1 * ...))`,
where P_k is thread k's point count. Exit configurations are exactly those
below S.

Successor tables. A thread's step depends only on its own point and the
store, so each thread keeps a dict from `pc * S + store` to the change its
step makes to the configuration number (None at EXIT, where it takes no
step). An entry is filled the first time a configuration with that
(point, store) pair is visited, by the concrete semantics (`exec_assign`,
`eval_cond`); every later step from the pair is one lookup and one
addition. Only reached pairs are ever filled, so no table spans the
universe, and `UniverseEscape` is raised exactly when a reachable
assignment writes outside it, at the first step that does.

Reachable sets. Breadth-first order, the thread order within a step and the
`seen`/`steps` budget checks are those of a search over explicit
(program counters, store tuple) configurations, so the same configurations
are discovered, in the same order, and the same exploration is cut by a
`Budget`. Every discovered configuration is visited, also when the search
is cut, so a thread's table keys are exactly its (point, store) projection
of them, in discovery order: `reachable` is read off the keys after the
search and `exit_states` off the configurations below S. Both equal a
record made per configuration field for field, `bounded` runs included.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .lang import (
    EXIT, And, Assign, Cmp, Cond, Lit, Program, Skip, VarRef, control_flow,
    eval_cond, exec_assign, program_literals,
)
from .domains import Universe
from .engine import AnalysisResult


class UniverseEscape(Exception):
    """An assignment produced a value outside the exploration universe."""


@dataclass
class Budget:
    max_states: int = 200_000
    max_steps: int = 2_000_000


@dataclass
class OracleReport:
    universe: Universe
    reachable: dict  # (tid, point) -> set of store tuples
    exit_states: set  # store tuples with every thread at exit
    bounded: bool = False  # whether a Budget cut the exploration

    def to_machine(self) -> dict:
        order = self.universe.var_order
        return {
            "oracle": {
                "bounded": self.bounded,
                "vars": list(order),
                "reachable_counts": {
                    f"{tid}@{pt}": len(states)
                    for (tid, pt), states in sorted(
                        self.reachable.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
                    )
                },
                "exit_states": sorted(self.exit_states),
            }
        }


def default_universe(p: Program, extra: tuple[int, ...] = (0, 1)) -> Universe:
    values = sorted(program_literals(p) | set(extra))
    return Universe.of({v: values for v in p.variables})


def _pinned_values(c: Cond) -> dict[str, set[int]]:
    """For each variable that a top-level `v == c` conjunct of c compares with
    a constant, the values those conjuncts allow: one, or none when two of
    them disagree."""
    pins: dict[str, set[int]] = {}
    stack = [c]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack += (node.left, node.right)
        elif isinstance(node, Cmp) and node.op == "==":
            for a, b in ((node.left, node.right), (node.right, node.left)):
                if isinstance(a, VarRef) and isinstance(b, Lit):
                    pins[a.name] = pins.get(a.name, {b.n}) & {b.n}
    return pins


def explore(p: Program, universe: Universe | None = None,
            budget: Budget | None = None) -> OracleReport:
    budget = budget or Budget()
    if budget.max_states <= 0 or budget.max_steps <= 0:
        raise ValueError("budgets must be positive")
    u = universe or default_universe(p)
    order = u.var_order
    domains = [u.domain_of(v) for v in order]
    position = {v: {n: i for i, n in enumerate(vals)} for v, vals in zip(order, domains)}
    strides = []
    size = 1
    for vals in reversed(domains):
        strides.append(size)
        size *= len(vals)
    strides.reverse()
    # The initial stores are those satisfying pre, in ascending store index.
    # Only stores agreeing with pre's top-level `v == c` conjuncts can, so
    # only they are enumerated, and pre is still evaluated on each.
    u.check_size()
    pins = _pinned_values(p.pre)
    positions = [[k for k, n in enumerate(vals) if v not in pins or n in pins[v]]
                 for v, vals in zip(order, domains)]
    initial = []
    for combo in itertools.product(*positions):
        if eval_cond(p.pre, {v: vals[k] for v, vals, k in zip(order, domains, combo)}):
            initial.append(sum(k * stride for k, stride in zip(combo, strides)))

    store_tuples: dict = {}

    def store_of(i: int) -> tuple:
        s = store_tuples.get(i)
        if s is None:
            s = store_tuples[i] = tuple(
                vals[i // stride % len(vals)] for vals, stride in zip(domains, strides))
        return s

    flows = [control_flow(t.body) for t in p.threads]
    scales = []  # the weight of each thread's point index in a configuration
    weight = size
    for f in flows:
        scales.append(weight)
        weight *= len(f.stmts)

    def step(k: int, key: int) -> int | None:
        """The change thread k's step from `key` = (pc, store) makes to a
        configuration; None when the thread is at EXIT and takes no step."""
        pc, store = divmod(key, size)
        if pc == 0:
            return None
        tid, flow = p.threads[k].tid, flows[k]
        st = flow.stmts[pc]
        new, nxt = store, flow.succ[pc]
        if isinstance(st, Assign):
            out = exec_assign(st, dict(zip(order, store_of(store))))
            for v in st.targets:
                if out[v] not in position[v]:
                    raise UniverseEscape(
                        f"{tid}:{pc} wrote {v}={out[v]}, outside the universe")
            new = sum(position[v][out[v]] * stride for v, stride in zip(order, strides))
        elif not isinstance(st, Skip):  # a guard evaluation is one visible step
            if not eval_cond(st.cond, dict(zip(order, store_of(store)))):
                nxt = flow.succ_false[pc]
        return new - store + (nxt - pc) * scales[k]

    threads = [(k, m, len(f.stmts), {}) for k, (m, f) in enumerate(zip(scales, flows))]
    start = sum(f.entry * m for f, m in zip(flows, scales))
    queue = [start + store for store in initial]  # discovery order
    seen = set(queue)
    steps = 0
    bounded = False
    for cfg in queue:  # breadth first: the loop also visits what it appends
        store = cfg % size
        for k, m, points, table in threads:
            key = cfg // m % points * size + store
            if key in table:
                delta = table[key]
            else:
                delta = table[key] = step(k, key)
            if delta is None:
                continue
            steps += 1
            nxt = cfg + delta
            if nxt not in seen:
                if len(seen) >= budget.max_states or steps >= budget.max_steps:
                    bounded = True
                    continue
                seen.add(nxt)
                queue.append(nxt)

    # Every discovered configuration was visited, in discovery order, so each
    # table's keys are its thread's (point, store) projection of them.
    reachable: dict = {}
    for t, (_, _, _, table) in zip(p.threads, threads):
        for key in table:
            pc, store = divmod(key, size)
            reachable.setdefault((t.tid, pc or EXIT), set()).add(store_of(store))
    exit_states = {store_of(cfg) for cfg in filter(size.__gt__, queue)}
    return OracleReport(universe=u, reachable=reachable, exit_states=exit_states,
                        bounded=bounded)


# -- soundness checking --------------------------------------------------------


@dataclass
class Violation:
    tid: str
    point: object
    state: tuple

    def __str__(self) -> str:
        return f"{self.tid}@{self.point}: reachable state {self.state} outside outline assertion"


def check_soundness(result: AnalysisResult, report: OracleReport) -> list[Violation]:
    """Every concretely reachable store at a program point must be captured
    by the converged proof outline's assertion there."""
    dom = result.domain
    order = report.universe.var_order
    violations: list[Violation] = []
    for t in result.program.threads:
        outline = result.outlines[t.tid]
        points = outline.points()
        for (tid, pt), states in report.reachable.items():
            if tid != t.tid:
                continue
            if pt not in points:
                # left-over CFG points (none expected): treat as a config bug
                raise KeyError(f"oracle point {tid}@{pt} missing from outline")
            d = points[pt]
            for store in states:
                if not dom.contains(d, dict(zip(order, store))):
                    violations.append(Violation(tid, pt, store))
    return violations
