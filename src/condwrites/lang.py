"""Mini concurrent imperative language: AST, parser, and concrete semantics.

Shared by the analyzer and the brute-force interleaving oracle. Programs are
immutable after parsing. Every statement node carries a program-point label,
numbered densely in preorder per thread from 1, so a label is also the
statement's point in `control_flow`; desugared else-branches get an
unlabeled synthetic skip that never appears in proof outlines.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Union

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1


class LangError(Exception):
    pass


class ParseError(LangError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


class EvalOverflow(LangError):
    pass


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Lit:
    n: int


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - *
    left: "Expr"
    right: "Expr"


Expr = Union[Lit, VarRef, BinOp]


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Cmp:
    op: str  # == != < <= > >=
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Not:
    inner: "Cond"


@dataclass(frozen=True)
class And:
    left: "Cond"
    right: "Cond"


@dataclass(frozen=True)
class Or:
    left: "Cond"
    right: "Cond"


Cond = Union[BoolLit, Cmp, Not, And, Or]


@dataclass(frozen=True)
class Skip:
    label: int | None  # None marks a synthetic (desugared) skip


@dataclass(frozen=True)
class Assign:
    label: int
    targets: tuple[str, ...]
    exprs: tuple[Expr, ...]


@dataclass(frozen=True)
class Ite:
    label: int
    cond: Cond
    then: "Inst"
    els: "Inst"


@dataclass(frozen=True)
class While:
    label: int
    cond: Cond
    body: "Inst"


@dataclass(frozen=True)
class Seq:
    items: tuple["Inst", ...]


Inst = Union[Skip, Assign, Ite, While, Seq]


@dataclass(frozen=True)
class Thread:
    tid: str
    body: Inst
    rely_vars: frozenset[str]


@dataclass(frozen=True)
class Program:
    variables: tuple[str, ...]  # declaration order
    threads: tuple[Thread, ...]
    pre: Cond
    post: Cond
    locals: dict[str, tuple[str, ...]] = field(default_factory=dict, hash=False)


# ---------------------------------------------------------------------------
# Control-flow graph

EXIT = "exit"  # the thread exit point, index 0 of every control-flow graph


@dataclass(frozen=True)
class ControlFlow:
    """A thread body as a graph whose points are its labels.

    The parser numbers a thread's statements densely in preorder from 1, so
    label i is point i and point 0 is EXIT. Every other point takes one
    atomic step. An assignment or skip moves to `succ[i]`. A guard
    (`Ite`/`While`) moves to `succ[i]` when its condition holds and to
    `succ_false[i]` otherwise. Synthetic skips take no step and get no
    point."""

    stmts: tuple   # point -> the statement labelled with it; None at EXIT
    succ: tuple[int, ...]
    succ_false: tuple[int, ...]
    entry: int


def control_flow(body: Inst) -> ControlFlow:
    nodes = {0: (None, 0, 0)}  # point -> (statement, succ, succ_false)

    def link(inst: Inst, nxt: int) -> int:
        """File `inst` under its label, linked to continue at `nxt`; returns
        its entry point."""
        if isinstance(inst, Seq):
            for item in reversed(inst.items):
                nxt = link(item, nxt)
            return nxt
        if isinstance(inst, Skip) and inst.label is None:
            return nxt
        if isinstance(inst, Ite):
            edges = link(inst.then, nxt), link(inst.els, nxt)
        elif isinstance(inst, While):
            edges = link(inst.body, inst.label), nxt
        else:
            edges = nxt, 0
        nodes[inst.label] = (inst, *edges)
        return inst.label

    entry = link(body, 0)
    stmts, succ, succ_false = zip(*(nodes[i] for i in range(len(nodes))))
    return ControlFlow(stmts, succ, succ_false, entry)


def statements(inst: Inst) -> tuple[Inst, ...]:
    """Every labelled statement of a thread body, in preorder."""
    return control_flow(inst).stmts[1:]


def negate(c: Cond) -> Cond:
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


def leaves(node: Expr | Cond) -> Iterator[Lit | VarRef]:
    """Yield the `Lit` and `VarRef` leaves of an expression or condition,
    left to right."""
    if isinstance(node, (Lit, VarRef)):
        yield node
    elif isinstance(node, (BinOp, Cmp, And, Or)):
        yield from leaves(node.left)
        yield from leaves(node.right)
    elif isinstance(node, Not):
        yield from leaves(node.inner)
    elif not isinstance(node, BoolLit):
        raise TypeError(node)


def operands(p: Program, flows: Iterable[ControlFlow] | None = None
             ) -> Iterator[Expr | Cond]:
    """`pre`, `post`, every assignment's expressions and every guard.
    `flows` are the threads' control-flow graphs, when the caller has them."""
    yield p.pre
    yield p.post
    for f in flows or (control_flow(t.body) for t in p.threads):
        for st in f.stmts[1:]:
            if isinstance(st, Assign):
                yield from st.exprs
            elif isinstance(st, (Ite, While)):
                yield st.cond


def program_literals(p: Program, flows: Iterable[ControlFlow] | None = None
                     ) -> set[int]:
    """All integer literals appearing anywhere in the program."""
    return {leaf.n for node in operands(p, flows) for leaf in leaves(node)
            if isinstance(leaf, Lit)}


# ---------------------------------------------------------------------------
# Concrete semantics

State = dict  # Var -> int, total over the program's variable set


def _check(n: int) -> int:
    if n < INT_MIN or n > INT_MAX:
        raise EvalOverflow(f"integer overflow: {n}")
    return n


# Operator tables shared by the concrete and the abstract semantics.
ARITH_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}
CMP_OPS = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def eval_expr(e: Expr, s: State) -> int:
    if isinstance(e, Lit):
        return e.n
    if isinstance(e, VarRef):
        return s[e.name]
    if isinstance(e, BinOp):
        return _check(ARITH_OPS[e.op](eval_expr(e.left, s), eval_expr(e.right, s)))
    raise TypeError(e)


def eval_cond(c: Cond, s: State) -> bool:
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


def exec_assign(a: Assign, s: State) -> State:
    """Simultaneous multi-assignment: all RHSs evaluated in the pre-state."""
    values = [eval_expr(e, s) for e in a.exprs]
    out = dict(s)
    for v, n in zip(a.targets, values):
        out[v] = n
    return out


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<int>\d+)
  | (?P<id>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>:=|==|!=|<=|>=|&&|\|\||[{}();:,<>!+\-*=])
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "vars", "local", "pre", "post", "relyvars", "thread",
    "skip", "if", "else", "while", "true", "false",
}


@dataclass
class _Tok:
    kind: str  # 'int' | 'id' | 'op' | 'kw' | 'eof'
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(lexeme)
        else:
            k = kind
            if kind == "id" and lexeme in _KEYWORDS:
                k = "kw"
            toks.append(_Tok(k, lexeme, line, col))
            col += len(lexeme)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.label = 0  # reset at each thread
        self.uses: dict[str, _Tok] = {}  # variable -> its first read or write

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def error(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(msg, t.line, t.col)

    def expect(self, kind: str, text: str | None = None) -> _Tok:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise self.error(f"expected {want!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def accept(self, kind: str, text: str | None = None) -> _Tok | None:
        t = self.peek()
        if t.kind == kind and (text is None or t.text == text):
            return self.next()
        return None

    # -- top level ----------------------------------------------------------

    def program(self) -> Program:
        variables: list[str] = []
        locals_: dict[str, list[str]] = {}
        conds: dict[str, Cond] = {}  # "pre" and "post"
        # declarations checked against the threads, with the keyword token
        # each is reported at
        relyvars: dict[str, tuple[list[str], _Tok]] = {}
        local_decls: dict[str, _Tok] = {}
        threads: list[tuple[str, Inst, _Tok]] = []

        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind != "kw":
                raise self.error("expected a declaration or thread")
            if t.text == "vars":
                self.next()
                for name in self.idlist():
                    if name in variables:
                        raise self.error(f"variable {name!r} declared twice")
                    variables.append(name)
                self.expect("op", ";")
            elif t.text == "local":
                self.next()
                tid = self.expect("id").text
                local_decls.setdefault(tid, t)
                self.expect("op", ":")
                names = self.idlist()
                for name in names:
                    if name in variables:
                        raise self.error(f"variable {name!r} declared twice")
                    variables.append(name)
                locals_.setdefault(tid, []).extend(names)
                self.expect("op", ";")
            elif t.text in ("pre", "post"):
                self.next()
                if t.text in conds:
                    raise ParseError(f"{t.text} declared twice", t.line, t.col)
                conds[t.text] = self.cond()
                self.expect("op", ";")
            elif t.text == "relyvars":
                self.next()
                tid = self.expect("id").text
                if tid in relyvars:
                    raise ParseError(
                        f"relyvars for thread {tid!r} declared twice", t.line, t.col)
                self.expect("op", ":")
                relyvars[tid] = (self.idlist(), t)
                self.expect("op", ";")
            elif t.text == "thread":
                tok = self.next()
                tid = self.expect("id").text
                self.label = 0
                body = self.block()
                threads.append((tid, body, tok))
            else:
                raise self.error(f"unexpected keyword {t.text!r}")

        if not threads:
            raise self.error("program has no threads")
        seen = set()
        for tid, _, tok in threads:
            if tid in seen:
                raise ParseError(f"duplicate thread id {tid!r}", tok.line, tok.col)
            seen.add(tid)
        for tid, tok in local_decls.items():
            if tid not in seen:
                raise ParseError(f"local for unknown thread {tid!r}", tok.line, tok.col)
        for tid, (names, tok) in relyvars.items():
            if tid not in seen:
                raise ParseError(f"relyvars for unknown thread {tid!r}", tok.line, tok.col)
            for v in names:
                if v not in variables:
                    raise ParseError(
                        f"relyvars names undeclared variable {v!r}", tok.line, tok.col)
        undeclared = [t for v, t in self.uses.items() if v not in variables]
        if undeclared:
            t = min(undeclared, key=lambda t: (t.line, t.col))
            raise ParseError(f"undeclared variable {t.text!r}", t.line, t.col)
        built = []
        for tid, body, _ in threads:
            rv = relyvars[tid][0] if tid in relyvars else variables
            built.append(Thread(tid, body, frozenset(rv)))
        return Program(
            variables=tuple(variables),
            threads=tuple(built),
            pre=conds.get("pre", BoolLit(True)),
            post=conds.get("post", BoolLit(True)),
            locals={t: tuple(v) for t, v in locals_.items()},
        )

    def idlist(self) -> list[str]:
        names = [self.expect("id").text]
        while self.accept("op", ","):
            names.append(self.expect("id").text)
        return names

    def use(self, tok: _Tok) -> str:
        """Record an identifier token as a read or write of its variable."""
        self.uses.setdefault(tok.text, tok)
        return tok.text

    # -- statements ----------------------------------------------------------

    def fresh_label(self) -> int:
        self.label += 1
        return self.label

    def block(self) -> Inst:
        self.expect("op", "{")
        items: list[Inst] = []
        while not self.accept("op", "}"):
            items.append(self.stmt())
        if not items:
            return Skip(self.fresh_label())
        if len(items) == 1:
            return items[0]
        return Seq(tuple(items))

    def stmt(self) -> Inst:
        t = self.peek()
        if t.kind == "kw" and t.text == "skip":
            label = self.fresh_label()
            self.next()
            self.expect("op", ";")
            return Skip(label)
        if t.kind == "kw" and t.text == "if":
            label = self.fresh_label()
            self.next()
            self.expect("op", "(")
            c = self.cond()
            self.expect("op", ")")
            then = self.block()
            if self.accept("kw", "else"):
                els = self.block()
            else:
                els = Skip(None)  # synthetic, no program point
            return Ite(label, c, then, els)
        if t.kind == "kw" and t.text == "while":
            label = self.fresh_label()
            self.next()
            self.expect("op", "(")
            c = self.cond()
            self.expect("op", ")")
            body = self.block()
            return While(label, c, body)
        if t.kind == "id":
            label = self.fresh_label()
            targets = [self.use(self.expect("id"))]
            while self.accept("op", ","):
                targets.append(self.use(self.expect("id")))
            self.expect("op", ":=")
            exprs = [self.expr()]
            while self.accept("op", ","):
                exprs.append(self.expr())
            self.expect("op", ";")
            if len(targets) != len(exprs):
                raise self.error(
                    f"assignment arity mismatch: {len(targets)} targets, {len(exprs)} expressions")
            if len(set(targets)) != len(targets):
                raise self.error("assignment targets must be pairwise distinct")
            return Assign(label, tuple(targets), tuple(exprs))
        raise self.error(f"expected a statement, found {t.text!r}")

    # -- conditions and expressions -------------------------------------------

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
    return _Parser(text).program()


# ---------------------------------------------------------------------------
# Pretty-printer (round-trips through parse_program)


def format_expr(e: Expr) -> str:
    if isinstance(e, Lit):
        return str(e.n)
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, BinOp):
        return f"({format_expr(e.left)} {e.op} {format_expr(e.right)})"
    raise TypeError(e)


def format_cond(c: Cond) -> str:
    if isinstance(c, BoolLit):
        return "true" if c.value else "false"
    if isinstance(c, Cmp):
        return f"{format_expr(c.left)} {c.op} {format_expr(c.right)}"
    if isinstance(c, Not):
        return f"!({format_cond(c.inner)})"
    if isinstance(c, And):
        return f"({format_cond(c.left)}) && ({format_cond(c.right)})"
    if isinstance(c, Or):
        return f"({format_cond(c.left)}) || ({format_cond(c.right)})"
    raise TypeError(c)


def format_inst(inst: Inst, indent: int = 0,
                note: Callable[[int], str] | None = None) -> str:
    """Print a statement. With `note`, each labelled statement is preceded
    by a line holding `note(label)` and prefixed with its label."""
    pad = "    " * indent
    if isinstance(inst, Seq):
        return "\n".join(format_inst(i, indent, note) for i in inst.items)
    lead = pad
    if note is not None and inst.label is not None:
        lead = f"{pad}   {note(inst.label)}\n{pad}{inst.label}: "
    if isinstance(inst, Skip):
        return f"{lead}skip;"
    if isinstance(inst, Assign):
        lhs = ", ".join(inst.targets)
        rhs = ", ".join(format_expr(e) for e in inst.exprs)
        return f"{lead}{lhs} := {rhs};"
    if isinstance(inst, Ite):
        out = (f"{lead}if ({format_cond(inst.cond)}) {{\n"
               f"{format_inst(inst.then, indent + 1, note)}\n{pad}}}")
        if not (isinstance(inst.els, Skip) and inst.els.label is None):
            out += f" else {{\n{format_inst(inst.els, indent + 1, note)}\n{pad}}}"
        return out
    if isinstance(inst, While):
        return (f"{lead}while ({format_cond(inst.cond)}) {{\n"
                f"{format_inst(inst.body, indent + 1, note)}\n{pad}}}")
    raise TypeError(inst)


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
