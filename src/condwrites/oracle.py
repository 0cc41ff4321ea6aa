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
step). Before either search, `explore` compiles each point's step once into
a function of the store index (closure compilation: Feeley & Lapalme, "Using
closures for code generation", Computer Languages 1987). Variable v's value
in store i is `values[i // stride % count]`, read off v's slot, and a
literal n reads alike from the slot ((n,), 1, 1). A skip returns its
constant change. A write of a literal or of one variable to one target
reads the value and moves the store by the target's position change times
its stride. A guard that compares two literals or variables reads both and
applies `lang.CMP_OPS`. Every other statement (arithmetic, `&&`/`||`, a
multi-target write) falls back to `eval_expr`/`eval_cond` on the store's
dict, built at most once per store and only read, so arithmetic and its
64-bit overflow rule keep one copy, in `lang`. A table entry is filled the
first time the search reaches a configuration with that (point, store)
pair, by calling the compiled step; every later step from the pair is one
lookup. Both searches below fill the tables this way, so only reached pairs
are evaluated and no table spans the universe. A compiled write checks for
escape when it is called, not when it is built, so `UniverseEscape` is
raised exactly when a reachable assignment writes outside the universe.
Every variable of the program must range over the universe: `explore`
checks that up front and raises `ValueError` naming the
first one missing, in declaration order. Breadth first steps EXIT to None
like any other point; saturation writes the EXIT entries once its search
ends, from the final bitsets. Either way each table's keys end up as its
thread's (point, store) projection of the reached configurations.

The guard. A search reaches each configuration at most once and takes at
most one step per thread from it, so with `configs < Budget.max_states` and
`configs * threads < Budget.max_steps` no budget check can ever fire: the
configurations seen never reach `max_states` and the steps taken never
reach `max_steps`. Only then can `explore` run `_saturate`, and it does when
`_bitsets_pay` also holds: the program has at least three threads, and its
masks (below) take at most 4 bits per configuration, `sum(P_k) <= 4 * S`.
Bitset sweeps gain by moving, in one operation, every vector that shares a
thread's point, and with two threads few vectors do. Measured one program
at a time with each search forced on a shared 2-vCPU VM (best of 5 runs
per program, summed per family; medians of six runs, three for the
three-thread random programs), breadth first was faster on the corpus (1.01
against 1.32 ms) and on 40 random two-thread programs (13.9 against 14.6
ms, faster in four runs of six), and the two-thread `chain` programs for
K = 3 to 7 were a tie (1.48 against 1.47 ms). The bitsets were 3.2 times faster on 40 random three-thread
programs (97 against 30 ms), 1.7 times on the three-thread `chain` programs
(16.5 against 9.9 ms) and 13 times on the 40 four-thread programs of the
`oracle` perfbench workload (873 against 66 ms, seed 1).
The mask bound keeps a long thread, whose masks grow with the square of its
length, on breadth first, and caps the masks at 4 * `max_states` bits.
Every other program runs `_breadth_first`. The choice depends on the budget
and the program alone.

Saturation (`_saturate`) handles many configurations per operation. It keeps
one int per reached store, whose bit v is set iff vector v is reached with
that store, and a worklist of stores with bits not yet stepped, first in
first out. For each thread k and point pc, a mask holds the vectors with
thread k at pc: a run of W_k ones repeated every W_k * P_k bits, built by
multiplying the run by a repunit. Each reached store has a plan, filled
lazily: each thread's pairs, points 1 to P_k - 1 ascending (a thread at
EXIT takes no step, so EXIT is not swept), and the store's change masks. A
pair is stepped, and its table entry written, the first time its mask
meets the bits being swept, so only reached pairs are evaluated, each once.
A pair whose step keeps the store stays in its thread's list with its
shift, the point change times W_k; a pair whose step changes the store
leaves the list, and its mask is ORed into `changes[shift, target]`.

A pop of store s is one pass of three steps. First it closes the pop's
bits X under the store-keeping pairs, one thread at a time in thread order.
Thread k sweeps all of X, the bits earlier threads added included, and ORs
each step's shifted bits back into it, so one ascending sweep chains the
forward steps (preorder labels make most edges forward); a step to EXIT
adds bits that no mask of the thread meets. The bits of a back edge to a
swept point are swept again once the sweep ends, and only those neither in
X nor stepped by an earlier pop of s. This is exact: under one store a
thread's step depends only on its own point and the store, so the
store-keeping steps of different threads commute and never disable one
another (Godefroid, Partial-Order Methods for the Verification of
Concurrent Systems, LNCS 1032, 1996), and closing X under all of them is
composing the per-thread closures in any order. Firing these local steps to
a fixpoint before any other is the order of saturation (Ciardo, Luettgen &
Siminiceanu, TACAS 2001). Second it drops from X the bits that earlier pops
of s stepped: they are closed already, and their store-changing steps were
taken. Third it steps the rest once per (shift, target store): one AND with
the merged mask, one shift, and a merge into the target's int, which queues
the target if it gained bits. Those merges clear the bits already there
with `x ^= x & old`, not `x &= ~old`: the complement of a positive int is a
negative one, and ANDing it costs about 4 times a plain AND at the 6,561
bits of the `oracle` perfbench workload's largest bitsets. Once the search
ends, each reached store's int is ANDed once with each thread's EXIT mask
to write the EXIT entries. On that workload's 120 programs of seeds 1 to
3, all of which it saturates, a program averages 63.3 pops and 461 step
evaluations; its sweeps take 1,730 mask ANDs, and its store-changing steps
404 more, 308 of them non-empty.

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
either exception from `_saturate`, `explore` therefore drops it and replays
`_breadth_first` over the same tables, which raises by construction: under
the guard nothing can cut the replay, the pair that saturation failed on is
reachable, and no table stores a raising step (it raises before its entry
is written). So breadth first evaluates that pair, or raises on an earlier
one: the exception a fresh breadth-first search meets first, as the
reference explorer does. Nothing is saved or re-raised.

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
    CMP_OPS, EXIT, And, Assign, Cmp, Cond, EvalOverflow, Lit, Program, Skip,
    VarRef, eval_cond, eval_expr, program_literals,
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
    missing = next((v for v in p.variables if v not in order), None)
    if missing is not None:
        raise ValueError(f"universe lacks program variable {missing!r}")
    u.check_size()
    domains = [u.domain_of(v) for v in order]
    position = {v: {n: i for i, n in enumerate(vals)} for v, vals in zip(order, domains)}
    sizes = [len(vals) for vals in domains]
    size = math.prod(sizes)
    strides = [math.prod(sizes[k + 1:]) for k in range(len(sizes))]
    # each variable's (values, stride, value count): its value in store i is
    # values[i // stride % count]
    slot = {v: (vals, stride, len(vals))
            for v, vals, stride in zip(order, domains, strides)}
    # The initial stores are those satisfying pre, in ascending store index.
    # Only stores agreeing with pre's top-level `v == c` conjuncts can, so
    # only they are enumerated, and pre is still evaluated on each.
    pins = _pinned_values(p.pre)
    positions = [[k for k, n in enumerate(vals) if v not in pins or n in pins[v]]
                 for v, vals in zip(order, domains)]
    initial = []
    for combo in itertools.product(*positions):
        if eval_cond(p.pre, {v: vals[k] for v, vals, k in zip(order, domains, combo)}):
            initial.append(sum(k * stride for k, stride in zip(combo, strides)))

    store_tuples: dict = {}
    envs: dict = {}  # store index -> its store dict, read by the fallback steps

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

    def read(e: Lit | VarRef) -> tuple:
        """The slot a leaf reads; a literal n is the one-value slot ((n,), 1, 1)."""
        return slot[e.name] if isinstance(e, VarRef) else ((e.n,), 1, 1)

    def compile_step(st, delta: int, delta_false: int, label: str):
        """The change a step of st makes to a configuration, as a function
        of the store index (see "Successor tables" above)."""
        if isinstance(st, Skip):
            return lambda store: delta
        if isinstance(st, Assign):
            if len(st.targets) == 1 and isinstance(st.exprs[0], (Lit, VarRef)):
                v = st.targets[0]
                at = position[v]
                _, stride, count = slot[v]
                vals, from_stride, from_count = read(st.exprs[0])

                def write(store: int) -> int:
                    n = vals[store // from_stride % from_count]
                    if n not in at:
                        raise UniverseEscape(
                            f"{label} wrote {v}={n}, outside the universe")
                    return delta + (at[n] - store // stride % count) * stride
                return write

            def assign(store: int) -> int:
                env = env_of(store)
                values = [eval_expr(e, env) for e in st.exprs]
                change = delta
                for v, n in zip(st.targets, values):  # only targets move the store
                    at = position[v]
                    if n not in at:
                        raise UniverseEscape(
                            f"{label} wrote {v}={n}, outside the universe")
                    change += (at[n] - at[env[v]]) * slot[v][1]
                return change
            return assign
        c = st.cond  # a guard evaluation is one visible step
        if (isinstance(c, Cmp) and isinstance(c.left, (Lit, VarRef))
                and isinstance(c.right, (Lit, VarRef))):
            holds = CMP_OPS[c.op]
            lvals, lstride, lcount = read(c.left)
            rvals, rstride, rcount = read(c.right)
            return lambda store: (
                delta if holds(lvals[store // lstride % lcount],
                               rvals[store // rstride % rcount])
                else delta_false)
        return lambda store: delta if eval_cond(c, env_of(store)) else delta_false

    points = [len(f.stmts) for f in flows]
    # W_k, the weight of thread k's point in a vector
    weights = [math.prod(points[:k]) for k in range(len(points))]
    # each thread's compiled steps at points 1..P_k-1; EXIT takes no step
    steps = [[None] + [compile_step(f.stmts[pc], (f.succ[pc] - pc) * w * size,
                                    (f.succ_false[pc] - pc) * w * size, f"{t.tid}:{pc}")
                       for pc in range(1, n)]
             for t, f, w, n in zip(p.threads, flows, weights, points)]

    tables = [{} for _ in flows]
    start = sum(f.entry * w for f, w in zip(flows, weights))
    configs = size * math.prod(points)
    exits = None
    if (configs < budget.max_states and configs * len(flows) < budget.max_steps
            and _bitsets_pay(size, points)):
        try:
            exits, bounded = _saturate(initial, start, size, weights, points,
                                       tables, steps), False
        except (UniverseEscape, EvalOverflow):
            pass  # breadth first raises the one it meets first (see "Escapes")
    if exits is None:
        exits, bounded = _breadth_first(initial, start, size, weights, points,
                                        tables, steps, budget)

    reachable: dict = {}
    for t, table in zip(p.threads, tables):
        end = 0  # the first key past the current point's
        for key in sorted(table):
            if key >= end:  # the first key of the next reached point
                pc = key // size
                base = pc * size
                end = base + size
                states = reachable[t.tid, pc or EXIT] = set()
            states.add(store_of(key - base))
    exit_states = {store_of(store) for store in exits}
    return OracleReport(universe=u, reachable=reachable, exit_states=exit_states,
                        bounded=bounded)


def _bitsets_pay(size: int, points: list[int]) -> bool:
    """Whether `_saturate` is expected to beat `_breadth_first` on `size`
    stores and threads of `points` points: at least three threads, and
    masks of at most 4 bits per configuration."""
    return len(points) >= 3 and sum(points) <= 4 * size


def _saturate(initial, start, size, weights, points, tables, steps) -> list[int]:
    """Fill `tables` by saturation over per-store bitsets of vectors, closing
    each pop under one thread's store-keeping steps at a time; return the
    exit stores in ascending index."""
    vectors = math.prod(points)
    full = (1 << vectors) - 1
    sweeps = []  # each thread's pairs as (mask, pc, shift, back edge?)
    exit_masks = []
    for w, n in zip(weights, points):
        # a run of W_k ones per point, repeated every W_k * P_k vectors
        run = ((1 << w) - 1) * (full // ((1 << w * n) - 1))
        # EXIT (pc 0) takes no step and is not swept; a shift of None marks a
        # pair not yet stepped
        sweeps.append([(run << w * pc, pc, None, False) for pc in range(1, n)])
        exit_masks.append(run)
    reached = dict.fromkeys(initial, 1 << start)  # store -> bitset of vectors
    pending = dict(reached)  # the bits a queued store has not yet stepped
    plans = {}  # store -> (each thread's store-keeping pairs, change masks)
    work = deque(initial)
    while work:
        s = work.popleft()
        bits = pending.pop(s)  # X, closed below
        old = reached[s] ^ bits  # closed and stepped by earlier pops of s
        plan = plans.get(s)
        if plan is None:
            plan = plans[s] = [sweep[:] for sweep in sweeps], {}
        keeps, changes = plan
        for table, w, pairs, thread_steps in zip(tables, weights, keeps, steps):
            swept = bits  # what the pop and the earlier threads hold
            while swept:
                back = 0  # what this sweep's back edges reach
                dropped = False
                for i, (mask, pc, shift, back_edge) in enumerate(pairs):
                    x = swept & mask
                    if not x:
                        continue
                    if shift is None:
                        key = s + pc * size
                        delta = table[key] = thread_steps[pc](s)
                        shift, target = divmod(s + delta, size)
                        if target != s:  # a store-changing pair leaves the list
                            move = shift, target
                            changes[move] = changes.get(move, 0) | mask
                            pairs[i] = None
                            dropped = True
                            continue
                        # a step back to a swept point; EXIT is not swept
                        back_edge = -pc * w < shift < 0
                        pairs[i] = mask, pc, shift, back_edge
                    if back_edge:
                        back |= x >> -shift
                    elif shift >= 0:  # the rest of the sweep reads it
                        swept |= x << shift
                    else:
                        swept |= x >> -shift
                if dropped:
                    pairs[:] = filter(None, pairs)
                bits |= swept
                swept = back ^ (back & (bits | old)) if back else 0
        reached[s] = old | bits
        if old:
            bits ^= bits & old  # X & ~old, without a negative int
        for (shift, target), mask in changes.items():
            x = bits & mask
            if not x:
                continue
            x = x << shift if shift >= 0 else x >> -shift
            have = reached.get(target, 0)
            x ^= x & have
            if x:
                reached[target] = have | x
                if target in pending:
                    pending[target] |= x
                else:
                    pending[target] = x
                    work.append(target)
    for table, exit_mask in zip(tables, exit_masks):
        for s, bits in reached.items():
            if bits & exit_mask:
                table[s] = None  # EXIT's key is the store itself
    return sorted(s for s, bits in reached.items() if bits & 1)


def _breadth_first(initial, start, size, weights, points, tables, steps,
                   budget: Budget) -> tuple[list[int], bool]:
    """Fill `tables` by a breadth-first search over single configurations,
    cut by `budget`; return the exit stores in ascending index and whether
    the budget cut the search."""
    threads = list(zip([w * size for w in weights], points, tables, steps))
    queue = [start * size + store for store in initial]  # discovery order
    seen = set(queue)
    taken = 0  # steps taken, against budget.max_steps
    bounded = False
    for cfg in queue:  # breadth first: the loop also visits what it appends
        store = cfg % size
        for m, n, table, thread_steps in threads:
            pc = cfg // m % n
            key = pc * size + store
            if key in table:
                delta = table[key]
            else:
                delta = table[key] = thread_steps[pc](store) if pc else None
            if delta is None:
                continue
            taken += 1
            nxt = cfg + delta
            if nxt not in seen:
                if len(seen) >= budget.max_states or taken >= budget.max_steps:
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
