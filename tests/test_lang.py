import pytest
from hypothesis import given, strategies as st

from condwrites.lang import (
    And, Assign, BinOp, BoolLit, Cmp, EvalOverflow, Ite, Lit, Or, ParseError,
    Skip, VarRef, While,
    INT_MAX, INT_MIN, control_flow, eval_cond, eval_expr,
    format_cond, format_expr, leaves, negate, parse_program,
    program_literals, statements,
)

from randprog import format_program, random_program
from reference_lang import exec_assign

FLAGGED = """
vars x, z;
local T0: r;
pre true;
post r == 0;
thread T0 { r := 0; if (z == 0) { x := 0; r := x; } }
thread T1 { if (z == 1) { x := 1; } }
"""


def test_parse_flagged_write_structure():
    p = parse_program(FLAGGED)
    assert p.variables == ("x", "z", "r")
    assert p.locals == {"T0": ("r",)}
    t0, t1 = p.threads
    assert t0.tid == "T0" and t1.tid == "T1"
    # labels assigned in preorder, per thread, starting at 1
    assert [s.label for s in statements(t0.body)] == [1, 2, 3, 4]
    assert [s.label for s in statements(t1.body)] == [1, 2]
    ite = t0.body[1]
    assert isinstance(ite, Ite)
    # an if without else has the empty block as its else-branch
    assert ite.els == ()
    assert p.post == Cmp("==", VarRef("r"), Lit(0))


def test_parse_multi_assign_and_while():
    p = parse_program("""
        vars x, y;
        thread T { x, y := y, x; while (x < 2) { x := x + 1; } skip; }
    """)
    (t,) = p.threads
    labels = [(type(s).__name__, s.label) for s in statements(t.body)]
    assert labels == [("Assign", 1), ("While", 2), ("Assign", 3), ("Skip", 4)]
    # threads default to relying on every variable
    assert t.rely_vars == frozenset({"x", "y"})


def test_parse_relyvars_and_explicit_else():
    p = parse_program("""
        vars a, b;
        relyvars T: a;
        thread T { if (a == b) { a := 1; } else { skip; } }
    """)
    (t,) = p.threads
    assert t.rely_vars == frozenset({"a"})
    (ite,) = t.body
    assert ite.els == (Skip(3),)  # explicit skip is a point


def test_control_flow_dense_points_and_links():
    p = parse_program("""
        vars x;
        thread T {
            if (x == 0) { x := 1; }
            while (x < 2) { skip; x := x + 1; }
            if (x == 2) { skip; } else { x := 0; }
        }
    """)
    body = p.threads[0].body
    g = control_flow(body)
    # point 0 is the exit; label i is point i
    assert g.stmts[0] is None and len(g.stmts) == 9
    assert all(g.stmts[i].label == i for i in range(1, 9))
    assert g.stmts[1:] == statements(body)
    assert g.entry == 1
    # if without else: the false edge falls through to the loop
    assert (g.succ[1], g.succ_false[1]) == (2, 3)
    assert g.succ[2] == 3
    # loop: body on true, the next if on false; the body's end loops back
    assert (g.succ[3], g.succ_false[3]) == (4, 6)
    assert (g.succ[4], g.succ[5]) == (5, 3)
    # both branches of the last if end at the exit
    assert (g.succ[6], g.succ_false[6]) == (7, 8)
    assert g.succ[7] == g.succ[8] == 0


def preorder(block):
    """The statements of a block by a direct preorder walk."""
    out = []
    for inst in block:
        out.append(inst)
        if isinstance(inst, Ite):
            out += preorder(inst.then) + preorder(inst.els)
        elif isinstance(inst, While):
            out += preorder(inst.body)
    return out


def test_statements_are_the_preorder_walk():
    for seed in range(1, 201):
        for t in random_program(seed).threads:
            walked = preorder(t.body)
            assert list(statements(t.body)) == walked, seed
            assert [st.label for st in walked] == list(range(1, len(walked) + 1)), seed


def test_operator_precedence_and_unary_minus():
    p = parse_program("vars x; thread T { x := 1 + 2 * 3 - -4; }")
    (a,) = statements(p.threads[0].body)
    assert eval_expr(a.exprs[0], {"x": 0}) == 11


def test_cond_precedence():
    c = parse_program(
        "vars x, y; pre x == 0 && y == 0 || x == 1; thread T { skip; }").pre
    assert isinstance(c, Or) and len(c.parts) == 2 and isinstance(c.parts[0], And)


def test_bang_parses_into_negation_normal_form():
    # `!` binds tighter than && and ||, and De Morgan pushes it down to the
    # comparisons and booleans
    x, y = VarRef("x"), VarRef("y")
    p = parse_program("vars x, y; pre !(x == 0 && !(y < 1 || false)) && !!true;"
                      "post !x <= y; thread T { skip; }")
    assert p.pre == And((Or((Cmp("!=", x, Lit(0)), Or((Cmp("<", y, Lit(1)), BoolLit(False))))),
                         BoolLit(True)))
    assert p.post == Cmp(">", x, y)


@pytest.mark.parametrize("src, fragment", [
    ("vars x; thread T { y := 1; }", "undeclared"),
    ("vars x, x; thread T { skip; }", "declared twice"),
    ("vars x; local T: x; thread T { skip; }", "declared twice"),
    ("vars x; thread T { x := 1; } thread T { skip; }", "duplicate thread"),
    ("vars x, y; thread T { x, y := 1; }", "arity"),
    ("vars x; thread T { x, x := 1, 2; }", "distinct"),
    ("vars x; relyvars U: x; thread T { skip; }", "unknown thread"),
    ("vars x; relyvars T: q; thread T { skip; }", "undeclared"),
    ("vars x; thread T { x := ; }", "expression"),
    ("pre true;", "no threads"),
    ("vars x; thread T { x := 1 }", "expected"),
    ("vars x; thread T { if (x) { skip; } }", "1:25: expected a comparison operator"),
    ("vars x, y; thread T { if (x && y == 1) { skip; } }",
     "1:29: expected a comparison operator"),
    ("vars x; thread T { x := 1 + !x; }", "1:29: expected an expression, found '!'"),
    ("vars x; thread T { x := true; }", "1:25: expected an expression, found 'true'"),
    ("vars x; thread T { if (x == 1 == 1) { skip; } }", "1:31: expected ')', found '=='"),
    ("vars x; skip; thread T { x := 1; }", "1:9: unexpected keyword 'skip'"),
    ("vars x; thread T { 5; }", "1:20: expected a statement, found '5'"),
    ("vars x; thread T { x := ٣; }", "unexpected character '٣'"),
])
def test_parse_errors(src, fragment):
    with pytest.raises(ParseError) as exc:
        parse_program(src)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("src, fragment, pos", [
    ("vars x;\npre x == 0;\n  pre true;\nthread T { skip; }", "pre declared twice", (3, 3)),
    ("vars x;\npost true; post x == 0;\nthread T { skip; }", "post declared twice", (2, 12)),
    ("vars x;\nrelyvars T: x;\n relyvars T: x;\nthread T { skip; }",
     "relyvars for thread 'T' declared twice", (3, 2)),
    ("vars x;\n  local U: r;\nthread T { skip; }", "local for unknown thread 'U'", (2, 3)),
    ("vars x;\n  relyvars U: x;\nthread T { skip; }", "relyvars for unknown thread", (2, 3)),
    ("vars x;\nthread T { skip; }\nrelyvars T: q;", "undeclared variable 'q'", (3, 1)),
    # an undeclared variable is reported at its first read or write
    ("vars x;\n\nthread T {\n  y := 1;\n}", "undeclared variable 'y'", (4, 3)),
    ("vars x;\npre x == 0 && q == 1;\nthread T { skip; }", "undeclared variable 'q'", (2, 15)),
    ("vars x;\nthread T { x, w := 1, x; }", "undeclared variable 'w'", (2, 15)),
    ("vars x;\nthread T { if ((y) == 1) { skip; } }", "undeclared variable 'y'", (2, 17)),
    ("vars x; thread T { z := y; }", "undeclared variable 'z'", (1, 20)),
    # a thread body may not read or write another thread's local
    ("vars x;\nlocal T0: r;\nthread T0 { r := 0; }\nthread T1 { r := 1; }",
     "variable 'r' is local to thread 'T0'", (4, 13)),
    ("vars x;\nlocal T1: r;\nthread T0 { if (x == r) { skip; } }\nthread T1 { r := 1; }",
     "variable 'r' is local to thread 'T1'", (3, 22)),
    ("local T0: r;\nthread T0 { skip; }\nthread T1 { if (r == 0) { q := 1; } }",
     "variable 'r' is local to thread 'T0'", (3, 17)),
    # a repeated name, a repeated target and an arity mismatch are reported
    # at the offending token, not after the construct
    ("vars x, x;\nthread T { skip; }", "variable 'x' declared twice", (1, 9)),
    ("vars x, y,\n  x;\nthread T { skip; }", "variable 'x' declared twice", (2, 3)),
    ("vars x;\nlocal T: r, x;\nthread T { skip; }", "variable 'x' declared twice", (2, 13)),
    ("vars x, y;\nthread T {\n  x, y, x := 1, 2, 3;\n  skip;\n}",
     "assignment targets must be pairwise distinct", (3, 9)),
    ("vars x, y;\nthread T {\n  x, y := 1;\n  skip;\n}",
     "assignment arity mismatch: 2 targets, 1 expressions", (3, 8)),
], ids=["pre_twice", "post_twice", "relyvars_twice", "local_unknown_thread",
        "relyvars_unknown_thread", "relyvars_undeclared", "use_in_body", "use_in_pre",
        "use_as_target", "use_in_backtracked_cond", "first_use_in_source_order",
        "other_threads_local_written", "other_threads_local_read",
        "other_threads_local_before_undeclared", "var_declared_twice",
        "var_declared_twice_on_next_line", "local_declared_twice", "target_repeated",
        "arity_mismatch"])
def test_declaration_errors_at_the_declaration(src, fragment, pos):
    with pytest.raises(ParseError) as exc:
        parse_program(src)
    assert fragment in exc.value.msg
    assert (exc.value.line, exc.value.col) == pos


def test_pre_post_and_relyvars_may_name_a_local():
    p = parse_program("local T0: r; vars x; pre r == 0; post r == x; relyvars T1: r, x;"
                      "thread T0 { r := x; } thread T1 { x := 1; }")
    assert p.locals == {"T0": ("r",)} and p.variables == ("r", "x")
    assert p.threads[1].rely_vars == frozenset({"r", "x"})


def test_deep_parentheses_parse():
    # the climb recurses twice per parenthesis; the parser it replaced
    # reached 327 levels in a condition and 329 in an expression
    k = 320
    p = parse_program(f"vars x; thread T {{ if ({'(' * k}x == 1{')' * k}) "
                      f"{{ x := {'(' * k}x{')' * k}; }} }}")
    (ite,) = p.threads[0].body
    assert ite.cond == Cmp("==", VarRef("x"), Lit(1))
    assert ite.then[0].exprs == (VarRef("x"),)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_program("vars x;\nthread T { x := $; }")
    assert exc.value.line == 2


def test_literal_range_bounds():
    # both bounds parse, the unary minus folded into INT_MIN's literal, and
    # round-trip through the printer
    p = parse_program("vars x, y; thread T { x, y := 9223372036854775807, "
                      "-9223372036854775808; }")
    (a,) = statements(p.threads[0].body)
    assert a.exprs == (Lit(INT_MAX), Lit(INT_MIN))
    assert parse_program(format_program(p)) == p


@pytest.mark.parametrize("literal", [
    "9223372036854775808", "-9223372036854775809", "- -9223372036854775808",
    "-(9223372036854775808)", "-(-9223372036854775808)",
    "x * 9223372036854775808",
])
def test_literal_out_of_range_is_a_parse_error(literal):
    # reported at the literal's digits, whatever minus precedes them
    src = f"vars x; thread T {{ x := {literal}; }}"
    with pytest.raises(ParseError) as exc:
        parse_program(src)
    assert "outside the 64-bit range" in exc.value.msg
    assert (exc.value.line, exc.value.col) == (1, src.index("922") + 1)


def test_eval_cond_and_negate_agree():
    s = {"x": 1, "y": 2}
    conds = [
        BoolLit(True),
        Cmp("<", VarRef("x"), VarRef("y")),
        negate(Cmp(">=", VarRef("x"), Lit(5))),
        And((Cmp("!=", VarRef("x"), Lit(0)), Cmp("==", VarRef("y"), Lit(2)))),
        Or((Cmp(">", VarRef("x"), Lit(9)), Cmp("<=", VarRef("y"), Lit(2)))),
        And((Or((BoolLit(False), Cmp("==", VarRef("x"), Lit(1)))),
             Or((Cmp(">", VarRef("y"), Lit(2)),
                 And((BoolLit(True), Cmp("<", VarRef("x"), Lit(0)))))))),
        Or((BoolLit(False), Cmp("==", VarRef("x"), Lit(1)), Cmp(">", VarRef("y"), Lit(2)))),
    ]
    for c in conds:
        assert eval_cond(negate(c), s) == (not eval_cond(c, s))
        # the push is an involution
        assert negate(negate(c)) == c


def test_chains_are_walked_left_to_right():
    # a chain of one connective is one node holding its operands in source
    # order, and every walk reads them so; a chain inside parentheses is one
    # operand
    x, y = VarRef("x"), VarRef("y")
    c = parse_program("vars x, y; pre x == 0 && y == 1 && (x < 2 || y > 3 || x == y);"
                      "thread T { skip; }").pre
    ors = (Cmp("<", x, Lit(2)), Cmp(">", y, Lit(3)), Cmp("==", x, y))
    assert c.parts == (Cmp("==", x, Lit(0)), Cmp("==", y, Lit(1)), Or(ors))
    assert format_cond(c) == "((x == 0) && (y == 1)) && (((x < 2) || (y > 3)) || (x == y))"
    assert negate(c) == Or((Cmp("!=", x, Lit(0)), Cmp("!=", y, Lit(1)),
                            And(tuple(negate(o) for o in ors))))
    # a parenthesised chain stays a nested node, also as the first operand,
    # and prints as the flat chain does
    nested = parse_program("vars x, y; pre (x == 0 && y == 1) && (x < 2 || y > 3) || x == y;"
                           "thread T { skip; }").pre
    assert nested == Or((And((And(c.parts[:2]), Or(ors[:2]))), ors[2]))
    assert format_cond(nested) == "(((x == 0) && (y == 1)) && ((x < 2) || (y > 3))) || (x == y)"
    assert format_cond(And((And(c.parts[:2]), Or(ors)))) == format_cond(c)
    # an expression spine mixes + - * left to right; a tighter operator on
    # the right, or parentheses, make an operand of their own
    (a,) = statements(parse_program(
        "vars x, y; thread T { x := x * 2 + y - 3 * y - (x - 1); }").threads[0].body)
    e = a.exprs[0]
    assert e == BinOp(("*", "+", "-", "-"),
                      (x, Lit(2), y, BinOp(("*",), (Lit(3), y)), BinOp(("-",), (x, Lit(1)))))
    assert format_expr(e) == "((((x * 2) + y) - (3 * y)) - (x - 1))"
    assert eval_expr(e, {"x": 4, "y": 5}) == 4 * 2 + 5 - 3 * 5 - (4 - 1)
    assert list(leaves(e)) == [x, Lit(2), y, Lit(3), y, x, Lit(1)]
    assert [leaf for leaf in leaves(c) if isinstance(leaf, Lit)] == [Lit(0), Lit(1), Lit(2), Lit(3)]
    # evaluation stops at the first operand that decides the chain, before
    # it reads the unbound y
    ands = parse_program("vars x, y; pre x == 1 && y == 0 && y == 1; thread T { skip; }").pre
    ors = parse_program("vars x, y; pre x == 0 || y == 0 || y == 1; thread T { skip; }").pre
    assert eval_cond(ands, {"x": 0}) is False
    assert eval_cond(ors, {"x": 0}) is True
    with pytest.raises(KeyError):
        eval_cond(ands, {"x": 1})
    with pytest.raises(KeyError):
        eval_cond(ors, {"x": 1})


def test_exec_assign_is_simultaneous():
    a = Assign(1, ("x", "y"), (VarRef("y"), VarRef("x")))
    assert exec_assign(a, {"x": 1, "y": 2}) == {"x": 2, "y": 1}


def test_eval_overflow():
    big = BinOp(("*",), (Lit(INT_MAX), Lit(2)))
    with pytest.raises(EvalOverflow):
        eval_expr(big, {})


def test_var_and_literal_collection():
    p = parse_program(FLAGGED)
    assert program_literals(p) == {0, 1}
    assert list(leaves(BinOp(("+",), (VarRef("a"), Lit(3))))) == [VarRef("a"), Lit(3)]
    assert list(leaves(p.post)) == [VarRef("r"), Lit(0)]
    # leaves come left to right through every node kind
    c = Or((negate(Cmp("<", BinOp(("*",), (BinOp(("-",), (VarRef("a"), Lit(1))), VarRef("b"))),
                            Lit(7))),
            And((BoolLit(False), Cmp("==", VarRef("a"), Lit(-2))))))
    assert list(leaves(c)) == [VarRef("a"), Lit(1), VarRef("b"), Lit(7),
                               VarRef("a"), Lit(-2)]
    assert list(leaves(BoolLit(True))) == []
    p = parse_program("vars a; pre !(a == 5) || true; post a > 6;"
                      "thread T { while (a < 8) { a := (a + 9) * 10; } if (a == 11) { skip; } }")
    assert program_literals(p) == {5, 6, 8, 9, 10, 11}


@pytest.mark.parametrize("src", [
    FLAGGED,
    "vars x, y; pre x == 0; post x == y; thread A { while (x < y) { x := x + 1; } }",
    "vars a; local T: b; relyvars T: a; thread T { a, b := b, a; if (a > 0) { skip; } else { a := 0 - 1; } }",
    "vars x; thread T { if (x == 0) { } else { } if (x == 1) { x := 0; } while (x < 1) { } }",
], ids=["flagged_write", "while_loop", "local_relyvars", "empty_blocks"])
def test_format_round_trip(src):
    p = parse_program(src)
    assert parse_program(format_program(p)) == p


@given(st.integers(-100, 100), st.integers(-100, 100), st.integers(-100, 100))
def test_arith_matches_python(a, b, c):
    e = BinOp(("*", "+"), (Lit(a), VarRef("v"), Lit(c)))
    assert eval_expr(e, {"v": b}) == a * b + c
