"""Exhaustive concrete interleaving exploration.

Ground truth for soundness checks: enumerates every reachable
(program counters, store) configuration over a finite value universe,
interleaving atomic steps (one per assignment, skip, or guard evaluation).

Encoding. A store is numbered in mixed radix by the positions of its values
in the universe, last variable fastest, so store i is the i-th tuple of
`itertools.product` over the universe's value sets in variable order; S is
the universe size. Each thread's points are the
labels of its statements (`Thread.flow`), with EXIT = 0. A vector of
program counters is numbered in mixed radix too, thread 0 fastest: vector
`v = pc_0 + P_0 * (pc_1 + P_1 * ...)`, where P_k is thread k's point count,
so W_k = P_0 * ... * P_(k-1) is the weight of thread k's point and vector 0
has every thread at EXIT. A configuration is the one int `store + S * v`,
and there are `configs = S * P_0 * P_1 * ...` of them.

Successor tables. A thread's step depends only on its own point and the
store, so each thread keeps a dict from `pc * S + store` to the change its
step makes to the configuration number (None at EXIT, where it takes no
step). An entry is filled the first time the search reaches a configuration
with that (point, store) pair, by the concrete semantics (`exec_assign`,
`eval_cond`) on the store's dict, which is built once per store and only
read; every later step from the pair is one lookup. Both searches
below fill the tables this way, so only reached pairs are evaluated, no
table spans the universe, and `UniverseEscape` is raised exactly when a
reachable assignment writes outside the universe. Each table's keys end up
as its thread's (point, store) projection of the reached configurations.

The guard. A search reaches each configuration at most once and takes at
most one step per thread from it, so with `configs < Budget.max_states` and
`configs * threads < Budget.max_steps` no budget check can ever fire: the
configurations seen never reach `max_states` and the steps taken never
reach `max_steps`. Only then can `explore` run `_saturate`, and it does when
`_bitsets_pay` also holds: the program has at least three threads, and its
masks (below) take at most 4 bits per configuration, `sum(P_k) <= 4 * S`.
Bitset rounds gain by moving, in one operation, every vector that shares a
thread's point, and with two threads few vectors do. Measured one program
at a time with each search forced, breadth first was 1.1 to 1.4 times
faster on the corpus, the two-thread `chain` programs and 100 random
two-thread programs. On 100 random three-thread programs the two were at
parity in all (from 1.25 times slower to 2 times faster with the bitsets);
the bitsets were 1.5 to 8 times faster on the three- and four-thread
programs of the `chain` and `oracle` perfbench workloads, and 2.2 times
faster in all on 100 random four-thread programs. The mask bound keeps a
long thread, whose masks grow with the square of its length, on breadth
first, and caps the masks at 4 * `max_states` bits.
Every other program runs `_breadth_first`. The choice depends on the budget
and the program alone.

Saturation (`_saturate`) handles many configurations per operation. It keeps
one int per reached store, whose bit v is set iff vector v is reached with
that store, and a worklist of stores with new bits, first in first out.
For each thread k and point pc, a mask holds the vectors with thread k at
pc: a run of W_k ones repeated every W_k * P_k bits, built by multiplying
the run by a repunit. A round over a store's new bits X takes `X & mask`
for each (k, pc) pair, threads in order and points ascending, looks the
pair's step up once and shifts those bits by the point change times W_k.
What the round moves into each other store is ORed together, merged into
that store's int once, and queues that store. Steps that keep the store are
chained (Roig, Cortadella & Pastor, ICATPN 1995): their unreached bits join
the store's int and X at once, so the pairs later in the sweep step them in
the same round, and they are the next round's input, where the earlier pairs
step them. Preorder labels make most edges forward, so a thread's run of
store-keeping steps takes one sweep and a loop's back edge the next round.
A store is dropped once a round adds nothing to it, the local-moves-first
order of saturation (Ciardo, Luettgen & Siminiceanu, TACAS 2001). Bits are
cleared with `x ^= x & bits`, not `x &= ~bits`: the complement of a positive
int is a negative one, and ANDing it costs about 4 times a plain AND at the
6,561 bits of the `oracle` perfbench workload's largest bitsets.

Breadth first (`_breadth_first`) visits one configuration at a time, in
discovery order and thread order, with the budget checks of a search over
explicit (program counters, store tuple) configurations. It is the only
search that can honour a cut, and it sets `bounded` when it does.

Escapes. A step's new store index moves only by its written targets,
`(position of the new value - position of the old) * stride` each, and the
targets are checked for escape in their written order. A step raises when
it writes outside the universe (`UniverseEscape`) or when its arithmetic
overflows 64 bits (`lang.EvalOverflow`). The saturation sweep evaluates
(point, store) pairs in another order than breadth first, so on a program
with several reachable raising steps it may meet another one first. On
either exception from `_saturate`, `explore` therefore replays
`_breadth_first` over the same tables. No filled entry raises (a raising
step raises before its entry is stored), and under the guard nothing can
cut the replay, so it raises the exception a fresh breadth-first search
meets first, as the reference explorer does; the original is re-raised
only if the replay returns.

Canonical order. Both searches return the same report for the same
reachable configurations. `reachable` lists the threads in program order,
each thread's points ascending (EXIT first), and each point's set is
filled with its stores by index: it is read off the sorted table keys.
`exit_states` is the stores reached with every thread at EXIT (vector 0),
added by index.

Soundness check. `check_soundness` reads the assertion at each reached
point as `result.outlines[tid][point]`: an outline has the same keys as the
report (statement labels and EXIT), so a thread or point with no assertion
raises `KeyError`. It groups the report's store sets by that assertion, so
each distinct (assertion, store) pair runs `dom.contains` once, on a store
dict built at most once per call. Many points share an assertion: on the
`oracle` perfbench workload (seed 1), a pass's 160 checks cover 82,396
(point, store) pairs but only 2,688 distinct (assertion, store) pairs. This
needs lattice elements to be hashable and to compare by content (the
`StateDomain` contract). If no pair fails, the result is `[]`; otherwise a
second walk over `reachable` lists every (point, store) whose pair failed,
in the report's order.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

from .lang import (
    EXIT, And, Assign, Cmp, Cond, EvalOverflow, Lit, Program, Skip, VarRef,
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
                    f"{tid}@{pt}": len(states) for (tid, pt), states in self.reachable.items()
                },
                "exit_states": sorted(self.exit_states),
            }
        }


def default_universe(p: Program) -> Universe:
    """Every variable ranges over the program's literals, 0 and 1."""
    values = sorted(program_literals(p) | {0, 1})
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
            stack += node.parts
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
    flows = [t.flow for t in p.threads]
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
    stride_of = dict(zip(order, strides))
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
    envs: dict = {}  # store index -> its store dict, read by the semantics

    def store_of(i: int) -> tuple:
        s = store_tuples.get(i)
        if s is None:
            s = store_tuples[i] = tuple(
                vals[i // stride % len(vals)] for vals, stride in zip(domains, strides))
        return s

    def env_of(i: int) -> dict:
        env = envs.get(i)
        if env is None:
            env = envs[i] = dict(zip(order, store_of(i)))
        return env

    points = [len(f.stmts) for f in flows]
    weights = []  # W_k, the weight of thread k's point in a vector
    vectors = 1
    for n in points:
        weights.append(vectors)
        vectors *= n

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
            env = env_of(store)
            out = exec_assign(st, env)  # returns a copy
            for v in st.targets:  # only the targets move the store index
                at = position[v]
                if out[v] not in at:
                    raise UniverseEscape(
                        f"{tid}:{pc} wrote {v}={out[v]}, outside the universe")
                new += (at[out[v]] - at[env[v]]) * stride_of[v]
        elif not isinstance(st, Skip):  # a guard evaluation is one visible step
            if not eval_cond(st.cond, env_of(store)):
                nxt = flow.succ_false[pc]
        return new - store + (nxt - pc) * weights[k] * size

    tables = [{} for _ in flows]
    start = sum(f.entry * w for f, w in zip(flows, weights))
    configs = size * vectors
    exits = escape = None
    if (configs < budget.max_states and configs * len(flows) < budget.max_steps
            and _bitsets_pay(size, points)):
        try:
            exits, bounded = _saturate(initial, start, size, weights, points,
                                       tables, step), False
        except (UniverseEscape, EvalOverflow) as e:
            escape = e
    if exits is None:
        # After an escape or overflow, the replay over the same tables meets
        # the one that breadth first meets first (see "Escapes" above).
        exits, bounded = _breadth_first(initial, start, size, weights, points,
                                        tables, step, budget)
        if escape is not None:
            raise escape

    reachable: dict = {}
    for t, table in zip(p.threads, tables):
        for key in sorted(table):
            pc, store = divmod(key, size)
            reachable.setdefault((t.tid, pc or EXIT), set()).add(store_of(store))
    exit_states = {store_of(store) for store in exits}
    return OracleReport(universe=u, reachable=reachable, exit_states=exit_states,
                        bounded=bounded)


def _bitsets_pay(size: int, points: list[int]) -> bool:
    """Whether `_saturate` is expected to beat `_breadth_first` on `size`
    stores and threads of `points` points: at least three threads, and
    masks of at most 4 bits per configuration."""
    return len(points) >= 3 and sum(points) <= 4 * size


def _saturate(initial, start, size, weights, points, tables, step) -> list[int]:
    """Fill `tables` by chained saturation over per-store bitsets of
    vectors; return the exit stores in ascending index."""
    vectors = math.prod(points)
    full = (1 << vectors) - 1
    threads = []
    for table, w, n in zip(tables, weights, points):
        # a run of W_k ones per point, repeated every W_k * P_k vectors
        run = ((1 << w) - 1) * (full // ((1 << w * n) - 1))
        threads.append((table, n, [run << w * pc for pc in range(n)]))
    reached = dict.fromkeys(initial, 1 << start)  # store -> bitset of vectors
    pending = dict(reached)  # the bits a queued store has not yet stepped
    work = deque(initial)
    while work:
        s = work.popleft()
        new = pending.pop(s)
        bits = reached[s]  # held here while s is swept
        while new:
            moved = {}  # other target store -> the vectors `new` steps into it
            fresh = 0  # the vectors this round adds to s: the next round's input
            for k, (table, n, masks) in enumerate(threads):
                for key, mask in zip(range(s, s + size * n, size), masks):
                    x = new & mask
                    if not x:
                        continue
                    if key in table:
                        delta = table[key]
                    else:
                        delta = table[key] = step(k, key)
                    if delta is not None:
                        shift, target = divmod(s + delta, size)
                        x = x << shift if shift >= 0 else x >> -shift
                        if target == s:  # chained: the rest of the sweep reads it
                            x ^= x & bits  # x & ~bits, without a negative int
                            bits |= x
                            new |= x
                            fresh |= x
                        else:
                            moved[target] = moved.get(target, 0) | x
            for target, x in moved.items():
                old = reached.get(target, 0)
                x ^= x & old
                if x:
                    reached[target] = old | x
                    if target in pending:
                        pending[target] |= x
                    else:
                        pending[target] = x
                        work.append(target)
            new = fresh
        reached[s] = bits
    return sorted(s for s, bits in reached.items() if bits & 1)


def _breadth_first(initial, start, size, weights, points, tables, step,
                   budget: Budget) -> tuple[list[int], bool]:
    """Fill `tables` by a breadth-first search over single configurations,
    cut by `budget`; return the exit stores in ascending index and whether
    the budget cut the search."""
    threads = [(k, w * size, n, table)
               for k, (w, n, table) in enumerate(zip(weights, points, tables))]
    queue = [start * size + store for store in initial]  # discovery order
    seen = set(queue)
    steps = 0
    bounded = False
    for cfg in queue:  # breadth first: the loop also visits what it appends
        store = cfg % size
        for k, m, n, table in threads:
            key = cfg // m % n * size + store
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
    return sorted(filter(size.__gt__, queue)), bounded


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
    by the converged proof outline's assertion there. Violations are listed
    in the report's order: threads, then points, then stores. A reached
    point with no outline assertion raises `KeyError`.

    Each distinct (assertion, store) pair is checked once (see "Soundness
    check" above)."""
    dom = result.domain
    order = report.universe.var_order
    outlines = result.outlines
    groups: dict = {}  # assertion -> the store sets of the points asserting it
    for (tid, pt), states in report.reachable.items():
        groups.setdefault(outlines[tid][pt], []).append(states)
    envs: dict = {}  # store tuple -> its store dict, built once per call
    failed = set()  # the (assertion, store) pairs that dom.contains rejects
    for d, sets in groups.items():
        for store in set().union(*sets):
            env = envs.get(store)
            if env is None:
                env = envs[store] = dict(zip(order, store))
            if not dom.contains(d, env):
                failed.add((d, store))
    if not failed:
        return []
    return [Violation(tid, pt, store)
            for (tid, pt), states in report.reachable.items()
            for store in states if (outlines[tid][pt], store) in failed]
