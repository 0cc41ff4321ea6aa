import pytest
from hypothesis import given, strategies as st

from condwrites.lang import (
    And, Assign, BinOp, BoolLit, Cmp, EvalOverflow, Ite, Lit, Not, Or,
    ParseError, Seq, Skip, VarRef, While,
    EXIT, INT_MAX, INT_MIN, cond_vars, control_flow, eval_cond, eval_expr, exec_assign,
    expr_vars, format_program, negate, parse_program, program_literals,
    statements,
)

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
    ite = t0.body.items[1]
    assert isinstance(ite, Ite)
    # the synthetic else-skip has no program point
    assert isinstance(ite.els, Skip) and ite.els.label is None
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
    ite = t.body
    assert isinstance(ite.els, Skip) and ite.els.label == 3  # explicit skip is a point


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
    # index 0 is the exit; the rest follow `statements` preorder
    assert g.points == (EXIT, *(s.label for s in statements(body)))
    assert g.points == (EXIT, 1, 2, 3, 4, 5, 6, 7, 8)
    assert g.stmts[0] is None and g.stmts[1:] == tuple(statements(body))
    assert g.entry == 1
    # if without else: the synthetic else-skip falls through to the loop
    assert (g.succ[1], g.succ_false[1]) == (2, 3)
    assert g.succ[2] == 3
    # loop: body on true, the next if on false; the body's end loops back
    assert (g.succ[3], g.succ_false[3]) == (4, 6)
    assert (g.succ[4], g.succ[5]) == (5, 3)
    # both branches of the last if end at the exit
    assert (g.succ[6], g.succ_false[6]) == (7, 8)
    assert g.succ[7] == g.succ[8] == 0


def test_operator_precedence_and_unary_minus():
    p = parse_program("vars x; thread T { x := 1 + 2 * 3 - -4; }")
    (a,) = statements(p.threads[0].body)
    assert eval_expr(a.exprs[0], {"x": 0}) == 11


def test_cond_precedence():
    c = parse_program(
        "vars x, y; pre x == 0 && y == 0 || x == 1; thread T { skip; }").pre
    assert isinstance(c, Or) and isinstance(c.left, And)


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
])
def test_parse_errors(src, fragment):
    with pytest.raises(ParseError) as exc:
        parse_program(src)
    assert fragment in str(exc.value)


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
        Not(Cmp(">=", VarRef("x"), Lit(5))),
        And(Cmp("!=", VarRef("x"), Lit(0)), Cmp("==", VarRef("y"), Lit(2))),
        Or(Cmp(">", VarRef("x"), Lit(9)), Cmp("<=", VarRef("y"), Lit(2))),
    ]
    for c in conds:
        assert eval_cond(negate(c), s) == (not eval_cond(c, s))


def test_exec_assign_is_simultaneous():
    a = Assign(1, ("x", "y"), (VarRef("y"), VarRef("x")))
    assert exec_assign(a, {"x": 1, "y": 2}) == {"x": 2, "y": 1}


def test_eval_overflow():
    big = BinOp("*", Lit(INT_MAX), Lit(2))
    with pytest.raises(EvalOverflow):
        eval_expr(big, {})


def test_var_and_literal_collection():
    p = parse_program(FLAGGED)
    assert program_literals(p) == {0, 1}
    assert expr_vars(BinOp("+", VarRef("a"), Lit(3))) == {"a"}
    assert cond_vars(p.post) == {"r"}


@pytest.mark.parametrize("src", [
    FLAGGED,
    "vars x, y; pre x == 0; post x == y; thread A { while (x < y) { x := x + 1; } }",
    "vars a; local T: b; relyvars T: a; thread T { a, b := b, a; if (a > 0) { skip; } else { a := 0 - 1; } }",
], ids=["flagged_write", "while_loop", "local_relyvars"])
def test_format_round_trip(src):
    p = parse_program(src)
    assert parse_program(format_program(p)) == p


@given(st.integers(-100, 100), st.integers(-100, 100), st.integers(-100, 100))
def test_arith_matches_python(a, b, c):
    e = BinOp("+", BinOp("*", Lit(a), VarRef("v")), Lit(c))
    assert eval_expr(e, {"v": b}) == a * b + c
