"""Differential reference for the operand parser of `condwrites.lang`.

`ReferenceParser` keeps the statement layer of `lang._Parser` and replaces
its operand parser by the one it had before the single precedence climb, as
written: one method per precedence level, where `cond_atom` parses a
parenthesised operand as a condition first and, on a `ParseError` or a
following comparison operator, rewinds and parses the same tokens again as
an expression. Only `tests/test_lang_reference.py` uses it.
"""

from __future__ import annotations

from condwrites.lang import (
    CMP_OPS, INT_MAX, INT_MIN, And, BinOp, BoolLit, Cmp, Cond, Expr, Lit, Not,
    Or, ParseError, Program, VarRef, _Parser,
)


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
