"""Mini concurrent imperative language: AST, parser, and concrete semantics.

Shared by the analyzer and the brute-force interleaving oracle. Programs are
immutable after parsing. A block is a tuple of statements, and every
statement carries a program-point label, numbered densely in preorder per
thread from 1, so a label is also the statement's point in `control_flow`.
An `if` without `else` has the empty block as its else-branch. Conditions
are in negation normal form: the parser pushes each `!` through `&&` and
`||` with `negate`, so no condition holds a negation node, and `negate` is
the only code that handles negation.

Each operator chain is one node that every walk reads in a loop, so a flat
chain takes no stack. The parser refuses nesting past `MAX_DEPTH` levels
(two per block, one per operand or factor), which keeps every later walk
within Python's default recursion limit.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Union

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1
MAX_DEPTH = 800  # the parser's nesting bound, in levels (see `_Parser.nest`)


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
    ops: tuple[str, ...]  # each one of + - *, applied left to right
    args: tuple["Expr", ...]  # one more than ops


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
class And:
    parts: tuple["Cond", ...]  # two or more, left to right


@dataclass(frozen=True)
class Or:
    parts: tuple["Cond", ...]  # two or more, left to right


Cond = Union[BoolLit, Cmp, And, Or]


@dataclass(frozen=True)
class Skip:
    label: int


@dataclass(frozen=True)
class Assign:
    label: int
    targets: tuple[str, ...]
    exprs: tuple[Expr, ...]


@dataclass(frozen=True)
class Guard:
    """The fields an `Ite` and a `While` share: each branches on `cond`."""

    label: int
    cond: Cond

    @functools.cached_property
    def neg(self) -> Cond:
        """`negate(cond)`, built on first use."""
        return negate(self.cond)


@dataclass(frozen=True)
class Ite(Guard):
    then: "Block"
    els: "Block"  # () for an if without else


@dataclass(frozen=True)
class While(Guard):
    body: "Block"


Inst = Union[Skip, Assign, Ite, While]
Block = tuple[Inst, ...]


@dataclass(frozen=True)
class Thread:
    tid: str
    body: Block
    rely_vars: frozenset[str]

    @functools.cached_property
    def flow(self) -> ControlFlow:
        """The body's control-flow graph, built on first use."""
        return control_flow(self.body)


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
    `succ_false[i]` otherwise."""

    stmts: tuple   # point -> the statement labelled with it; None at EXIT
    succ: tuple[int, ...]
    succ_false: tuple[int, ...]
    entry: int


def control_flow(body: Block) -> ControlFlow:
    nodes = {0: (None, 0, 0)}  # point -> (statement, succ, succ_false)

    def link(block: Block, nxt: int) -> int:
        """File each statement of `block` under its label, linked to
        continue at `nxt`; returns the block's entry point, `nxt` if it is
        empty."""
        for inst in reversed(block):
            if isinstance(inst, Ite):
                edges = link(inst.then, nxt), link(inst.els, nxt)
            elif isinstance(inst, While):
                edges = link(inst.body, inst.label), nxt
            else:
                edges = nxt, 0
            nodes[inst.label] = (inst, *edges)
            nxt = inst.label
        return nxt

    try:
        entry = link(body, 0)
    finally:
        link = None  # link holds itself through its closure cell
    stmts, succ, succ_false = zip(*(nodes[i] for i in range(len(nodes))))
    return ControlFlow(stmts, succ, succ_false, entry)


def statements(body: Block) -> tuple[Inst, ...]:
    """Every statement of a thread body, in preorder."""
    return control_flow(body).stmts[1:]


def negate(c: Cond) -> Cond:
    """The negation of c in negation normal form: De Morgan pushes it
    through `&&` and `||` down to the comparisons, whose operators flip, and
    the booleans. The parser applies it to every `!` operand, and the
    collecting semantics to guards and `post`."""
    if isinstance(c, BoolLit):
        return BoolLit(not c.value)
    if isinstance(c, (And, Or)):
        return (Or if isinstance(c, And) else And)(tuple(map(negate, c.parts)))
    if isinstance(c, Cmp):
        return Cmp(FLIPPED_OPS[c.op], c.left, c.right)
    raise TypeError(c)


def leaves(node: Expr | Cond) -> Iterator[Lit | VarRef]:
    """Yield the `Lit` and `VarRef` leaves of an expression or condition,
    left to right."""
    if isinstance(node, (Lit, VarRef)):
        yield node
    elif isinstance(node, Cmp):
        yield from leaves(node.left)
        yield from leaves(node.right)
    elif isinstance(node, (BinOp, And, Or)):
        for part in node.args if isinstance(node, BinOp) else node.parts:
            yield from leaves(part)
    elif not isinstance(node, BoolLit):
        raise TypeError(node)


def operands(p: Program) -> Iterator[Expr | Cond]:
    """`pre`, `post`, every assignment's expressions and every guard."""
    yield p.pre
    yield p.post
    for t in p.threads:
        for st in t.flow.stmts[1:]:
            if isinstance(st, Assign):
                yield from st.exprs
            elif isinstance(st, Guard):
                yield st.cond


def program_literals(p: Program) -> set[int]:
    """All integer literals appearing anywhere in the program."""
    return {leaf.n for node in operands(p) for leaf in leaves(node)
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
# Each comparison operator's negation, read by `negate`.
FLIPPED_OPS = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def eval_expr(e: Expr, s: State) -> int:
    if isinstance(e, Lit):
        return e.n
    if isinstance(e, VarRef):
        return s[e.name]
    if isinstance(e, BinOp):
        n = eval_expr(e.args[0], s)
        for op, arg in zip(e.ops, e.args[1:]):
            n = _check(ARITH_OPS[op](n, eval_expr(arg, s)))
        return n
    raise TypeError(e)


def eval_cond(c: Cond, s: State) -> bool:
    if isinstance(c, BoolLit):
        return c.value
    if isinstance(c, Cmp):
        return CMP_OPS[c.op](eval_expr(c.left, s), eval_expr(c.right, s))
    if isinstance(c, (And, Or)):
        # short-circuits left to right: stop at the first operand that
        # decides the chain, false under && and true under ||
        decides = isinstance(c, Or)
        for part in c.parts:
            if eval_cond(part, s) == decides:
                return decides
        return not decides
    raise TypeError(c)


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<int>[0-9]+)
  | (?P<id>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>:=|==|!=|<=|>=|&&|\|\||[{}();:,<>!+\-*=])
  | (?P<bad>.)
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

    @property
    def name(self) -> str:
        """The token as an error message names it."""
        return self.text or "end of input"


def _tokenize(text: str) -> list[_Tok]:
    """The tokens of `text`, each at its line and column, then an `eof`
    token. Every character, a tab or carriage return too, is one column."""
    toks: list[_Tok] = []
    line, line_start = 1, 0  # the current line and the offset it starts at
    for m in _TOKEN_RE.finditer(text):
        kind, lexeme, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "nl":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {lexeme!r}", line, col)
        elif kind not in ("ws", "comment"):
            if kind == "id" and lexeme in _KEYWORDS:
                kind = "kw"
            toks.append(_Tok(kind, lexeme, line, col))
    toks.append(_Tok("eof", "", line, len(text) - line_start + 1))
    return toks


# Binding power of each binary operator: an operand parsed at power p takes
# only operators of power >= p, so || < && < comparison < + - < *.
_POWER = {"||": 0, "&&": 1, **dict.fromkeys(CMP_OPS, 2), "+": 3, "-": 3, "*": 4}
_NODE = {"||": Or, "&&": And, **dict.fromkeys(CMP_OPS, Cmp), **dict.fromkeys("+-*", BinOp)}
_CONDS = Cond.__args__  # a tuple: isinstance on it is faster than on the Union


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.label = 0  # reset at each thread
        self.tid: str | None = None  # the thread whose body is being parsed, if any
        self.uses: dict[tuple, _Tok] = {}  # (tid, variable) -> its first use there
        self.last_int: _Tok | None = None  # the last integer token consumed
        self.depth = 0  # the level of the statement being parsed: two per block

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def error(self, msg: str, t: _Tok | None = None) -> ParseError:
        """A `ParseError` at the token t, by default the next one."""
        t = t or self.peek()
        return ParseError(msg, t.line, t.col)

    def expect(self, kind: str, text: str | None = None) -> _Tok:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise self.error(f"expected {want!r}, found {t.name!r}")
        return self.next()

    def accept(self, kind: str, text: str | None = None) -> _Tok | None:
        t = self.peek()
        if t.kind == kind and (text is None or t.text == text):
            return self.next()
        return None

    # -- top level ----------------------------------------------------------

    def program(self) -> Program:
        declared: dict[str, str | None] = {}  # variable -> owning thread, if local
        conds: dict[str, Cond] = {}  # "pre" and "post"
        # declarations checked against the threads, with the keyword token
        # each is reported at
        relyvars: dict[str, tuple[list[str], _Tok]] = {}
        local_decls: dict[str, _Tok] = {}
        threads: list[tuple[str, Block, _Tok]] = []

        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind != "kw":
                raise self.error("expected a declaration or thread")
            self.next()
            if t.text in ("vars", "local"):
                owner = None
                if t.text == "local":
                    owner = self.expect("id").text
                    local_decls.setdefault(owner, t)
                    self.expect("op", ":")
                for name in self.idlist():
                    if name.text in declared:
                        raise self.error(f"variable {name.text!r} declared twice", name)
                    declared[name.text] = owner
                self.expect("op", ";")
            elif t.text in ("pre", "post"):
                if t.text in conds:
                    raise self.error(f"{t.text} declared twice", t)
                conds[t.text] = self.cond()
                self.expect("op", ";")
            elif t.text == "relyvars":
                tid = self.expect("id").text
                if tid in relyvars:
                    raise self.error(f"relyvars for thread {tid!r} declared twice", t)
                self.expect("op", ":")
                relyvars[tid] = ([name.text for name in self.idlist()], t)
                self.expect("op", ";")
            elif t.text == "thread":
                self.tid = self.expect("id").text
                self.label = 0
                threads.append((self.tid, self.block(), t))
                self.tid = None
            else:
                raise self.error(f"unexpected keyword {t.text!r}", t)

        if not threads:
            raise self.error("program has no threads")
        seen = set()
        for tid, _, tok in threads:
            if tid in seen:
                raise self.error(f"duplicate thread id {tid!r}", tok)
            seen.add(tid)
        for tid, tok in local_decls.items():
            if tid not in seen:
                raise self.error(f"local for unknown thread {tid!r}", tok)
        for tid, (names, tok) in relyvars.items():
            if tid not in seen:
                raise self.error(f"relyvars for unknown thread {tid!r}", tok)
            for v in names:
                if v not in declared:
                    raise self.error(f"relyvars names undeclared variable {v!r}", tok)
        misuses = []  # (token, message) of every use that is an error
        for (tid, v), tok in self.uses.items():
            if v not in declared:
                misuses.append((tok, f"undeclared variable {v!r}"))
            elif tid is not None and declared[v] not in (None, tid):
                misuses.append((tok, f"variable {v!r} is local to thread {declared[v]!r}"))
        if misuses:
            tok, msg = min(misuses, key=lambda m: (m[0].line, m[0].col))
            raise self.error(msg, tok)
        variables = tuple(declared)
        return Program(
            variables=variables,
            threads=tuple(
                Thread(tid, body, frozenset(relyvars[tid][0] if tid in relyvars else variables))
                for tid, body, _ in threads),
            pre=conds.get("pre", BoolLit(True)),
            post=conds.get("post", BoolLit(True)),
            locals={tid: tuple(v for v in variables if declared[v] == tid)
                    for tid in dict.fromkeys(declared.values()) if tid is not None},
        )

    def commas(self, item: Callable) -> list:
        """One or more `item`s separated by commas."""
        items = [item()]
        while self.accept("op", ","):
            items.append(item())
        return items

    def idlist(self) -> list[_Tok]:
        return self.commas(lambda: self.expect("id"))

    def use(self, tok: _Tok) -> str:
        """Record an identifier token as a read or write of its variable."""
        self.uses.setdefault((self.tid, tok.text), tok)
        return tok.text

    # -- statements ----------------------------------------------------------

    def fresh_label(self) -> int:
        self.label += 1
        return self.label

    def nest(self, depth: int) -> int:
        """`depth`, the level of the next token, if within `MAX_DEPTH`."""
        if depth > MAX_DEPTH:
            raise self.error(f"program nests too deeply (over {MAX_DEPTH} levels)")
        return depth

    def block(self) -> Block:
        self.depth = self.nest(self.depth + 2)  # the block and the statement in it
        self.expect("op", "{")
        items: list[Inst] = []
        while not self.accept("op", "}"):
            items.append(self.stmt())
        self.depth -= 2
        if not items:
            return (Skip(self.fresh_label()),)
        return tuple(items)

    def guard(self) -> Cond:
        """The parenthesised condition of an `if` or `while`."""
        self.expect("op", "(")
        c = self.cond()
        self.expect("op", ")")
        return c

    def stmt(self) -> Inst:
        label = self.fresh_label()
        if self.accept("kw", "skip"):
            self.expect("op", ";")
            return Skip(label)
        if self.accept("kw", "if"):
            return Ite(label, self.guard(), self.block(),
                       self.block() if self.accept("kw", "else") else ())
        if self.accept("kw", "while"):
            return While(label, self.guard(), self.block())
        t = self.peek()
        if t.kind == "id":
            targets: list[str] = []
            for target in self.idlist():
                if target.text in targets:
                    raise self.error("assignment targets must be pairwise distinct", target)
                targets.append(self.use(target))
            assign = self.expect("op", ":=")
            exprs = self.commas(self.expr)
            self.expect("op", ";")
            if len(targets) != len(exprs):
                raise self.error(f"assignment arity mismatch: {len(targets)} targets, "
                                 f"{len(exprs)} expressions", assign)
            return Assign(label, tuple(targets), tuple(exprs))
        raise self.error(f"expected a statement, found {t.name!r}")

    # -- conditions and expressions -------------------------------------------
    #
    # One precedence climb over `_POWER` parses both kinds of operand. `!`
    # negates an operand of comparison power by `negate`, and unary minus
    # binds tightest. The operators of one node kind after an operand are one
    # spine, read in a loop into one node; a comparison takes two expressions
    # and does not chain, and an operator whose left operand has the other
    # kind ends the climb. `want` is the kind an operand must have: "cond",
    # "expr", or None for either inside parentheses. An expression starts at
    # power 3, so it ends before a comparison. `depth` is the operand's level.

    def cond(self) -> Cond:
        return self.operand(0, "cond", self.depth + 1)

    def expr(self) -> Expr:
        return self.operand(3, "expr", self.depth + 1)

    def operand(self, power: int, want: str | None, depth: int) -> Expr | Cond:
        first = self.peek()
        self.nest(depth)
        if want != "expr" and first.text in ("!", "true", "false"):
            self.next()
            left = (negate(self.operand(2, "cond", depth + 1)) if first.text == "!"
                    else BoolLit(first.text == "true"))
        else:
            left = self.in_range(self.factor(depth + 1))
        op = self.peek().text
        while _POWER.get(op, -1) >= power and (_POWER[op] < 2) == isinstance(left, _CONDS):
            node, ops, args = _NODE[op], [], [left]
            while _NODE.get(op) is node and _POWER[op] >= power and not (ops and node is Cmp):
                self.next()
                ops.append(op)
                args.append(self.operand(_POWER[op] + 1, "cond" if _POWER[op] < 2 else "expr",
                                         depth + 1))
                op = self.peek().text
            left = (BinOp(tuple(ops), tuple(args)) if node is BinOp else
                    Cmp(ops[0], *args) if node is Cmp else node(tuple(args)))
        return self.check(left, want, first)

    def check(self, node: Expr | Cond, want: str | None, first: _Tok) -> Expr | Cond:
        """`node`, parsed from the token `first` on, if it has the kind
        `want`: a condition lacking its comparison is reported at the next
        token, an expression of the wrong kind at its first."""
        if want == "cond" and not isinstance(node, _CONDS):
            raise self.error("expected a comparison operator")
        if want == "expr" and isinstance(node, _CONDS):
            raise self.error(f"expected an expression, found {first.name!r}", first)
        return node

    def in_range(self, e: Expr | Cond) -> Expr | Cond:
        # a literal is range-checked once every directly applied unary minus
        # is folded in, so INT_MIN can be written as -9223372036854775808;
        # its int token is the last one the factor consumed
        if isinstance(e, Lit) and not INT_MIN <= e.n <= INT_MAX:
            raise self.error(f"integer literal {e.n} is outside the 64-bit range",
                             self.last_int)
        return e

    def factor(self, depth: int) -> Expr | Cond:
        self.nest(depth)
        t = self.next()
        if t.kind == "int":
            self.last_int = t
            return Lit(int(t.text))
        if t.kind == "id":
            return VarRef(self.use(t))
        if t.text == "-":
            first = self.peek()
            inner = self.check(self.factor(depth + 1), "expr", first)
            return Lit(-inner.n) if isinstance(inner, Lit) else BinOp(("-",), (Lit(0), inner))
        if t.text == "(":
            inner = self.operand(0, None, depth + 1)
            self.expect("op", ")")
            return inner
        raise self.error(f"expected an expression, found {t.name!r}", t)


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
        # each step is parenthesised: "((a + b) * c)"
        first, *rest = map(format_expr, e.args)
        return "(" * len(rest) + first + "".join(f" {op} {arg})" for op, arg in zip(e.ops, rest))
    raise TypeError(e)


def format_cond(c: Cond) -> str:
    if isinstance(c, BoolLit):
        return "true" if c.value else "false"
    if isinstance(c, Cmp):
        return f"{format_expr(c.left)} {c.op} {format_expr(c.right)}"
    if isinstance(c, (And, Or)):
        # each step parenthesises both operands: "((a) && (b)) && (c)"
        op = "&&" if isinstance(c, And) else "||"
        first, *rest = map(format_cond, c.parts)
        return "(" * len(rest) + first + "".join(f") {op} ({part})" for part in rest)
    raise TypeError(c)


def format_inst(block: Block, indent: int = 0,
                note: Callable[[int], str] | None = None) -> str:
    """Print the statements of a block in order. With `note`, each statement
    is preceded by a line holding `note(label)` and prefixed with its label."""
    pad = "    " * indent
    lines = []
    for inst in block:
        lead = pad
        if note is not None:
            lead = f"{pad}   {note(inst.label)}\n{pad}{inst.label}: "
        if isinstance(inst, Skip):
            lines.append(f"{lead}skip;")
        elif isinstance(inst, Assign):
            lhs = ", ".join(inst.targets)
            rhs = ", ".join(format_expr(e) for e in inst.exprs)
            lines.append(f"{lead}{lhs} := {rhs};")
        elif isinstance(inst, Ite):
            out = (f"{lead}if ({format_cond(inst.cond)}) {{\n"
                   f"{format_inst(inst.then, indent + 1, note)}\n{pad}}}")
            if inst.els:
                out += f" else {{\n{format_inst(inst.els, indent + 1, note)}\n{pad}}}"
            lines.append(out)
        elif isinstance(inst, While):
            lines.append(f"{lead}while ({format_cond(inst.cond)}) {{\n"
                         f"{format_inst(inst.body, indent + 1, note)}\n{pad}}}")
        else:
            raise TypeError(inst)
    return "\n".join(lines)
