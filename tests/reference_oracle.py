"""The interleaving explorer before the table-driven rewrite, kept verbatim as
the differential reference for `condwrites.oracle.explore`, and the
per-point soundness check before the grouped one, the reference for
`condwrites.oracle.check_soundness`.

The explorer walks (program counters, store tuple) configurations, rebuilds
a store dict and evaluates the AST at every step, and records the reachable
sets per configuration as it discovers them. The check runs `dom.contains`
on every (point, store) pair of the report. Only `tests/test_oracle.py` uses
them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from condwrites.lang import (
    Assign, Cond, Ite, Program, Seq, Skip, While,
    eval_cond, exec_assign,
)
from condwrites.domains import Universe
from condwrites.engine import EXIT, AnalysisResult
from condwrites.oracle import (
    Budget, OracleReport, UniverseEscape, Violation, default_universe,
)


# -- control-flow graphs -----------------------------------------------------


@dataclass
class _Node:
    kind: str  # 'assign' | 'skip' | 'branch' | 'loop'
    stmt: object = None
    cond: Cond | None = None
    succ: object = None        # next point (assign/skip)
    succ_true: object = None   # branch/loop
    succ_false: object = None


def _compile(inst, succ, nodes: dict) -> object:
    """Link a body into nodes keyed by program point; returns the entry point."""
    if isinstance(inst, Seq):
        entry = succ
        for item in reversed(inst.items):
            entry = _compile(item, entry, nodes)
        return entry
    if isinstance(inst, Skip):
        if inst.label is None:
            return succ  # synthetic skip: no step, no point
        nodes[inst.label] = _Node("skip", stmt=inst, succ=succ)
        return inst.label
    if isinstance(inst, Assign):
        nodes[inst.label] = _Node("assign", stmt=inst, succ=succ)
        return inst.label
    if isinstance(inst, Ite):
        t_entry = _compile(inst.then, succ, nodes)
        f_entry = _compile(inst.els, succ, nodes)
        nodes[inst.label] = _Node("branch", cond=inst.cond,
                                  succ_true=t_entry, succ_false=f_entry)
        return inst.label
    if isinstance(inst, While):
        body_entry = _compile(inst.body, inst.label, nodes)
        nodes[inst.label] = _Node("loop", cond=inst.cond,
                                  succ_true=body_entry, succ_false=succ)
        return inst.label
    raise TypeError(inst)


def explore(p: Program, universe: Universe | None = None,
            budget: Budget | None = None) -> OracleReport:
    budget = budget or Budget()
    if budget.max_states <= 0 or budget.max_steps <= 0:
        raise ValueError("budgets must be positive")
    u = universe or default_universe(p)
    order = u.var_order
    allowed = {v: set(u.domain_of(v)) for v in order}

    cfgs = {}
    entries = {}
    for t in p.threads:
        nodes: dict = {}
        entries[t.tid] = _compile(t.body, EXIT, nodes)
        cfgs[t.tid] = nodes
    tids = [t.tid for t in p.threads]

    initial = []
    for s in u.states():
        if eval_cond(p.pre, s):
            initial.append(tuple(s[v] for v in order))

    reachable: dict = {}
    exit_states: set = set()
    bounded = False

    def record(pcs, store):
        for tid, pt in zip(tids, pcs):
            reachable.setdefault((tid, pt), set()).add(store)
        if all(pt == EXIT for pt in pcs):
            exit_states.add(store)

    start_pcs = tuple(entries[tid] for tid in tids)
    seen = set()
    frontier = deque()
    for store in initial:
        cfg = (start_pcs, store)
        if cfg not in seen:
            seen.add(cfg)
            record(start_pcs, store)
            frontier.append(cfg)

    steps = 0
    while frontier:
        pcs, store = frontier.popleft()
        sdict = dict(zip(order, store))
        for idx, tid in enumerate(tids):
            pt = pcs[idx]
            if pt == EXIT:
                continue
            node = cfgs[tid][pt]
            if node.kind == "assign":
                out = exec_assign(node.stmt, sdict)
                for v in node.stmt.targets:
                    if out[v] not in allowed[v]:
                        raise UniverseEscape(
                            f"{tid}:{pt} wrote {v}={out[v]}, outside the universe")
                new_store = tuple(out[v] for v in order)
                new_pcs = pcs[:idx] + (node.succ,) + pcs[idx + 1:]
            elif node.kind == "skip":
                new_store = store
                new_pcs = pcs[:idx] + (node.succ,) + pcs[idx + 1:]
            else:  # branch / loop: guard evaluation is one visible step
                taken = node.succ_true if eval_cond(node.cond, sdict) else node.succ_false
                new_store = store
                new_pcs = pcs[:idx] + (taken,) + pcs[idx + 1:]
            steps += 1
            cfg = (new_pcs, new_store)
            if cfg not in seen:
                if len(seen) >= budget.max_states or steps >= budget.max_steps:
                    bounded = True
                    continue
                seen.add(cfg)
                record(new_pcs, new_store)
                frontier.append(cfg)

    return OracleReport(universe=u, reachable=reachable, exit_states=exit_states,
                        bounded=bounded)


# -- soundness checking --------------------------------------------------------


def check_soundness(result: AnalysisResult, report: OracleReport) -> list[Violation]:
    """Every concretely reachable store at a program point must be captured
    by the converged proof outline's assertion there. Violations are listed
    in the report's order: threads, then points, then stores."""
    dom = result.domain
    order = report.universe.var_order
    envs: dict = {}  # store tuple -> its store dict, built once per call
    violations: list[Violation] = []
    for (tid, pt), states in report.reachable.items():
        d = result.outlines[tid][pt]
        for store in states:
            env = envs.get(store)
            if env is None:
                env = envs[store] = dict(zip(order, store))
            if not dom.contains(d, env):
                violations.append(Violation(tid, pt, store))
    return violations
