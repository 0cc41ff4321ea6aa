"""Differential reference for the operand parser and the negation rule of
`condwrites.lang`.

`ReferenceParser` keeps the statement layer of `lang._Parser` and replaces
its operand parser by the one it had before the single precedence climb, as
written: one method per precedence level, where `cond_atom` parses a
parenthesised operand as a condition first and, on a `ParseError` or a
following comparison operator, rewinds and parses the same tokens again as
an expression.

It parses `!` into its own `Not` node, which `condwrites.lang` no longer
has, and keeps the rules that handled that node before the parser pushed
every `!` with `lang.negate`, as written: `negate`, which pushes a negation
one level and leaves `Not` nodes below it, `eval_cond`, and `filter`, the
`StateDomain.filter` that re-entered `negate` at each `Not`. `push` turns a
reference condition into the one `lang` parses. Only
`tests/test_lang_reference.py` uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace

from condwrites import lang
from condwrites.lang import (
    CMP_OPS, INT_MAX, INT_MIN, And, BinOp, BoolLit, Cmp, Cond, Expr, Lit,
    Or, ParseError, Program, VarRef, _Parser, eval_expr,
)


@dataclass(frozen=True)
class Not:
    inner: Cond


def negate(c):
    """One-level negation push (used by condition filtering and verdicts)."""
    if isinstance(c, BoolLit):
        return BoolLit(not c.value)
    if isinstance(c, Not):
        return c.inner
    if isinstance(c, And):
        return Or(Not(c.left), Not(c.right))
    if isinstance(c, Or):
        return And(Not(c.left), Not(c.right))
    if isinstance(c, Cmp):
        flipped = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
        return Cmp(flipped[c.op], c.left, c.right)
    raise TypeError(c)


def eval_cond(c, s) -> bool:
    if isinstance(c, BoolLit):
        return c.value
    if isinstance(c, Cmp):
        return CMP_OPS[c.op](eval_expr(c.left, s), eval_expr(c.right, s))
    if isinstance(c, Not):
        return not eval_cond(c.inner, s)
    if isinstance(c, And):
        return eval_cond(c.left, s) and eval_cond(c.right, s)
    if isinstance(c, Or):
        return eval_cond(c.left, s) or eval_cond(c.right, s)
    raise TypeError(c)


def filter(self, c, d):
    """`StateDomain.filter` of the domain `self`, with its `Not` case."""
    if self.is_bot(d):
        return self.bot()
    if isinstance(c, BoolLit):
        return d if c.value else self.bot()
    if isinstance(c, Not):
        return filter(self, negate(c.inner), d)
    if isinstance(c, And):
        return filter(self, c.right, filter(self, c.left, d))
    if isinstance(c, Or):
        return self.join(filter(self, c.left, d), filter(self, c.right, d))
    if isinstance(c, Cmp):
        return self._filter_cmp(c, d)
    raise TypeError(c)


def push(node):
    """`node`, a program or any part of one, with every `Not` pushed in by
    `lang.negate`."""
    if isinstance(node, Not):
        return lang.negate(push(node.inner))
    if isinstance(node, tuple):
        return tuple(push(item) for item in node)
    if not is_dataclass(node) or isinstance(node, (BoolLit, Cmp, *Expr.__args__)):
        return node
    return replace(node, **{f.name: push(getattr(node, f.name)) for f in fields(node)})


class ReferenceParser(_Parser):
    def cond(self) -> Cond:
        c = self.conj()
        while self.accept("op", "||"):
            c = Or(c, self.conj())
        return c

    def conj(self) -> Cond:
        c = self.cond_atom()
        while self.accept("op", "&&"):
            c = And(c, self.cond_atom())
        return c

    def cond_atom(self) -> Cond:
        t = self.peek()
        if t.kind == "kw" and t.text == "true":
            self.next()
            return BoolLit(True)
        if t.kind == "kw" and t.text == "false":
            self.next()
            return BoolLit(False)
        if t.kind == "op" and t.text == "!":
            self.next()
            return Not(self.cond_atom())
        if t.kind == "op" and t.text == "(":
            # '(' may open a nested condition or a parenthesised expression.
            save = self.pos
            self.next()
            try:
                inner = self.cond()
                self.expect("op", ")")
            except ParseError:
                self.pos = save
                return self.comparison()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text in CMP_OPS:
                self.pos = save
                return self.comparison()
            return inner
        return self.comparison()

    def comparison(self) -> Cond:
        left = self.expr()
        t = self.peek()
        if t.kind != "op" or t.text not in CMP_OPS:
            raise self.error("expected a comparison operator")
        op = self.next().text
        right = self.expr()
        return Cmp(op, left, right)

    def expr(self) -> Expr:
        e = self.term()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in ("+", "-"):
                self.next()
                e = BinOp(t.text, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.in_range(self.factor())
        while self.accept("op", "*"):
            e = BinOp("*", e, self.in_range(self.factor()))
        return e

    def in_range(self, e: Expr) -> Expr:
        # a literal is range-checked once every directly applied unary minus
        # is folded in, so INT_MIN can be written as -9223372036854775808;
        # its int token is the last one the factor consumed
        if isinstance(e, Lit) and not INT_MIN <= e.n <= INT_MAX:
            t = next(t for t in reversed(self.toks[:self.pos]) if t.kind == "int")
            raise ParseError(
                f"integer literal {e.n} is outside the 64-bit range", t.line, t.col)
        return e

    def factor(self) -> Expr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return Lit(int(t.text))
        if t.kind == "id":
            self.next()
            return VarRef(self.use(t))
        if t.kind == "op" and t.text == "-":
            self.next()
            inner = self.factor()
            if isinstance(inner, Lit):
                return Lit(-inner.n)
            return BinOp("-", Lit(0), inner)
        if t.kind == "op" and t.text == "(":
            self.next()
            e = self.expr()
            self.expect("op", ")")
            return e
        raise self.error(f"expected an expression, found {t.text!r}")


def parse_program(text: str) -> Program:
    return ReferenceParser(text).program()
