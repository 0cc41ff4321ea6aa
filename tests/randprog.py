"""Seeded random program generator producing finite-state concurrent
programs: every assignment writes a literal in {0,1} or copies another
variable, so exploration over the {0,1} universe never escapes.

By default a program has 2 threads over 1-3 variables and nests `if`s and
`while`s 2 deep; `threads`, `nvars` and `depth` widen it without changing
what any seed yields at the defaults.
`bang_text` writes a program as text whose conditions use `!`, and
`format_program` prints a program as text that parses back to it."""

from __future__ import annotations

import random
import re

from condwrites.lang import (
    CMP_OPS, Assign, BoolLit, Cmp, Ite, Lit, Program, Skip, Thread, VarRef, While,
    format_cond, format_inst,
)

VALUES = (0, 1)
VARIABLES = ("x", "y", "z", "w", "v", "u")


def format_program(p: Program) -> str:
    lines = []
    globals_ = [v for v in p.variables
                if not any(v in vs for vs in p.locals.values())]
    if globals_:
        lines.append(f"vars {', '.join(globals_)};")
    for tid, vs in p.locals.items():
        lines.append(f"local {tid}: {', '.join(vs)};")
    lines.append(f"pre {format_cond(p.pre)};")
    lines.append(f"post {format_cond(p.post)};")
    for t in p.threads:
        lines.append(f"relyvars {t.tid}: {', '.join(sorted(t.rely_vars))};")
    for t in p.threads:
        lines.append(f"thread {t.tid} {{\n{format_inst(t.body, 1)}\n}}")
    return "\n".join(lines) + "\n"


class _Gen:
    def __init__(self, rng: random.Random, variables):
        self.rng = rng
        self.variables = list(variables)
        self.label = 0

    def fresh(self) -> int:
        self.label += 1
        return self.label

    def operand(self):
        if self.rng.random() < 0.5:
            return Lit(self.rng.choice(VALUES))
        return VarRef(self.rng.choice(self.variables))

    def guard(self) -> Cmp:
        op = self.rng.choice(("==", "!=", "<=", ">"))
        return Cmp(op, VarRef(self.rng.choice(self.variables)), self.operand())

    def assign(self) -> Assign:
        return Assign(self.fresh(), (self.rng.choice(self.variables),),
                      (self.operand(),))

    def stmt(self, budget: int, depth: int):
        r = self.rng.random()
        if depth > 0 and budget >= 2 and r < 0.25:
            label = self.fresh()
            body, used = self.body(budget - 1, depth - 1)
            return Ite(label, self.guard(), body, ()), used + 1
        if depth > 0 and budget >= 2 and r < 0.33:
            # loop whose guard a flag assignment can break: the body always
            # ends by writing a literal, so the state space stays finite
            label = self.fresh()
            body, used = self.body(budget - 1, depth - 1)
            return While(label, self.guard(), body), used + 1
        if r < 0.4:
            return Skip(self.fresh()), 1
        return self.assign(), 1

    def body(self, budget: int, depth: int):
        items = []
        used = 0
        n = self.rng.randint(1, max(1, budget))
        while used < n:
            st, k = self.stmt(n - used, depth)
            items.append(st)
            used += k
        return tuple(items), used


def random_program(seed: int, threads: int = 2,
                   nvars: tuple[int, int] = (1, 3), depth: int = 2) -> Program:
    """`nvars` is the inclusive range the variable count is drawn from, and
    `depth` bounds the nesting of `if`s and `while`s."""
    rng = random.Random(seed)
    variables = VARIABLES[:rng.randint(*nvars)]
    built = []
    for tid in (f"T{i}" for i in range(threads)):
        g = _Gen(rng, variables)
        body, _ = g.body(budget=6, depth=depth)
        built.append(Thread(tid, body, frozenset(variables)))
    pre = BoolLit(True)
    if rng.random() < 0.5:
        pre = Cmp("==", VarRef(rng.choice(variables)), Lit(0))
    return Program(variables=variables, threads=tuple(built),
                   pre=pre, post=BoolLit(True))


def bang_text(seed: int, threads: int = 2) -> str:
    """`random_program(seed, threads)` over 2-3 variables, as program text
    in which every guard, `pre` and `post` is a random negated condition
    over `!`, `&&`, `||`, `true`, `false` and comparisons of a variable with
    0, 1 or a variable, drawn from a second stream seeded by `seed`."""
    p = random_program(seed, threads, (2, 3))
    rng = random.Random(f"bang-{seed}")

    def cond(depth: int) -> str:
        r = rng.random()
        if depth == 0 or r < 0.35:
            rhs = rng.choice((*map(str, VALUES), *p.variables))
            cmp = f"{rng.choice(p.variables)} {rng.choice(tuple(CMP_OPS))} {rhs}"
            return f"!{cmp}" if r < 0.1 else cmp
        if r < 0.45:
            return rng.choice(("true", "false", "!true", "!false"))
        if r < 0.7:
            return f"!({cond(depth - 1)})"
        op = rng.choice(("&&", "||"))
        return f"({cond(depth - 1)}) {op} ({cond(depth - 1)})"

    text = re.sub(r"(if|while) \([^()]*\)", lambda m: f"{m[1]} (!({cond(3)}))",
                  format_program(p))
    return re.sub(r"^(pre|post) .*;$", lambda m: f"{m[1]} !({cond(3)});", text,
                  flags=re.M)
