import functools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from condwrites import cli, corpus, lang
from condwrites.cli import main
from condwrites.corpus import PROGRAMS_DIR
from condwrites.engine import AnalysisConfig

FLAGGED = str(PROGRAMS_DIR / "flagged_write.cw")
BRANCH = str(PROGRAMS_DIR / "branch_choice.cw")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verified_exit_code(capsys):
    code, out, _ = run(capsys, "analyze", FLAGGED, "--domain", "const",
                       "--mode", "transitive", "--n", "3")
    assert code == 0
    assert "verdict:   verified" in out


def test_not_verified_exit_code(capsys):
    code, out, _ = run(capsys, "analyze", BRANCH, "--domain", "const")
    assert code == 1
    assert "notVerified" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cw"
    bad.write_text("vars x; thread T { x := ; }")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.cw"))
    assert code == 2


def test_undeclared_variable_exit_code(tmp_path, capsys):
    # reported at the variable's first use, before any analysis runs
    prog = tmp_path / "undeclared.cw"
    prog.write_text("vars x;\n\nthread T {\n  y := 1;\n}")
    code, out, err = run(capsys, "analyze", str(prog))
    assert code == 2 and out == ""
    assert err == "error: 4:3: undeclared variable 'y'\n"


def test_other_threads_local_exit_code(tmp_path, capsys):
    prog = tmp_path / "local.cw"
    prog.write_text("vars x; local T0: r; thread T0 { r := 0; } thread T1 { r := 1; }")
    code, out, err = run(capsys, "analyze", str(prog))
    assert code == 2 and out == ""
    assert err == "error: 1:56: variable 'r' is local to thread 'T0'\n"


def test_out_of_range_literal_exit_code(tmp_path, capsys):
    # rejected while parsing, before the analysis or the oracle runs
    prog = tmp_path / "big.cw"
    prog.write_text("vars x; pre x == 0; thread T { x := 9223372036854775808; }")
    code, out, err = run(capsys, "analyze", str(prog), "--check-oracle")
    assert code == 2 and out == ""
    assert err == ("error: 1:37: integer literal 9223372036854775808 is "
                   "outside the 64-bit range\n")


def test_non_utf8_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cw"
    bad.write_bytes(b"vars x;\xff\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert err.startswith("error: ") and "UTF-8" in err
    assert "Traceback" not in err


def test_bad_n_exit_code(capsys):
    code, _, err = run(capsys, "analyze", FLAGGED, "--n", "12")
    assert code == 2 and "error" in err


def test_machine_output(capsys):
    code, out, _ = run(capsys, "analyze", FLAGGED, "--emit", "machine",
                       "--check-oracle")
    assert code == 0
    doc = json.loads(out)
    assert {"verdict", "ops", "time_s", "converged", "mode", "domain", "n",
            "threads", "oracle", "violations", "stats"} <= set(doc)
    assert doc["verdict"] == "verified"
    assert doc["violations"] == []
    assert doc["n"] == 3  # defaults to the variable count
    assert set(doc["stats"]) == {
        "outer_iterations", "collects", "memo_hits", "cap_collapses"}
    assert doc["stats"]["cap_collapses"] == 0  # const has no disjunct cap
    # every collect follows a rely derivation, one per worklist pop
    assert 1 <= doc["stats"]["collects"] <= doc["stats"]["outer_iterations"]


def test_machine_matches_text_verdict(capsys):
    _, text_out, _ = run(capsys, "analyze", BRANCH, "--domain", "const-powerset")
    _, mach_out, _ = run(capsys, "analyze", BRANCH, "--domain", "const-powerset",
                         "--emit", "machine")
    doc = json.loads(mach_out)
    assert ("verified" if "verdict:   verified" in text_out
            else "notVerified") == doc["verdict"]


def test_ascii_flag(capsys):
    _, out, _ = run(capsys, "analyze", FLAGGED, "--ascii")
    assert "|->" in out
    assert not any(ch in out for ch in "⊤⊥↦")


@pytest.mark.parametrize("argv", [
    ("analyze", str(PROGRAMS_DIR / "gate_chain.cw"), "--domain", "const-powerset",
     "--emit", "machine"),
    ("analyze", FLAGGED),
    ("bench", "--case", "flagged_write"),
], ids=["analyze-machine", "analyze-text", "bench"])
def test_closed_stdout_exit_code(argv):
    # a verified analysis and a passing bench whose stdout reader is gone
    # before they start: exit 2 with one error line, not 1 with a traceback,
    # and no second failure from the interpreter's flush at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "condwrites.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_rely_vars_flag(capsys):
    code, out, _ = run(capsys, "analyze", FLAGGED, "--rely-vars", "T0=")
    assert code == 1  # relying on nothing loses the proof
    code, out, _ = run(capsys, "analyze", FLAGGED,
                       "--rely-vars", "T0=x,z,r", "--rely-vars", "T1=x,z,r")
    assert code == 0


def test_rely_vars_bad_syntax(capsys):
    code, _, err = run(capsys, "analyze", FLAGGED, "--rely-vars", "T0")
    assert code == 2 and "rely-vars" in err


def test_rely_vars_repeated_thread(capsys):
    # like a second `relyvars` for one thread in source, not a silent overwrite
    code, _, err = run(capsys, "analyze", FLAGGED,
                       "--rely-vars", "T0=x", "--rely-vars", "T0=z")
    assert code == 2
    assert "error: --rely-vars for thread 'T0' given twice" in err


def test_rely_vars_unknown_thread_or_variable(capsys):
    code, _, err = run(capsys, "analyze", FLAGGED, "--rely-vars", "T9=x")
    assert code == 2 and "unknown thread 'T9'" in err
    code, _, err = run(capsys, "analyze", FLAGGED, "--rely-vars", "T0=x,nope")
    assert code == 2 and "undeclared variable 'nope'" in err


def test_flagless_analyze_uses_config_defaults(capsys, monkeypatch):
    # a run without flags analyses with the defaults of AnalysisConfig
    configs = []
    real = cli.analyse
    monkeypatch.setattr(cli, "analyse", lambda p, c: configs.append(c) or real(p, c))
    code, _, _ = run(capsys, "analyze", FLAGGED)
    assert code == 0 and configs == [AnalysisConfig()]


def test_opt_toggles_are_rejected(capsys):
    # the pruning inside stabilise and close is always on
    for flag in ("--no-opt-b1", "--no-opt-b2a", "--no-opt-b2b"):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", FLAGGED, flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_check_oracle_text_line(capsys):
    code, out, _ = run(capsys, "analyze", FLAGGED, "--check-oracle")
    assert code == 0 and "violations=0" in out


def test_soundness_violation_exit_code(capsys, monkeypatch):
    # an outline asserting ⊥ at T0's point 1, which the oracle reaches
    real = cli.analyse

    def analyse(program, config):
        result = real(program, config)
        result.outlines["T0"][1] = result.domain.bot()
        return result
    monkeypatch.setattr(cli, "analyse", analyse)
    violation = "T0@1: reachable state (1, 0, 1) outside outline assertion"
    code, out, err = run(capsys, "analyze", FLAGGED, "--check-oracle")
    assert code == 3 and err == ""
    assert "violations=8" in out
    assert f"  {violation}" in out.splitlines()
    code, out, err = run(capsys, "analyze", FLAGGED, "--check-oracle",
                         "--emit", "machine")
    doc = json.loads(out)
    assert code == 3 and err == ""
    assert len(doc["violations"]) == 8 and violation in doc["violations"]


@pytest.mark.parametrize("emit", ["text", "machine"])
@pytest.mark.parametrize("domain", ["const", "const-powerset"])
def test_loop_fuel_exhausted_exit_code(tmp_path, capsys, domain, emit):
    # one pass of the loop's fixpoint is too few: x goes 0, 1, 2, 3
    prog = tmp_path / "loop.cw"
    prog.write_text("vars x; pre x == 0; thread T { while (x < 3) { x := x + 1; } }")
    code, out, err = run(capsys, "analyze", str(prog), "--domain", domain,
                         "--emit", emit, "--fuel-inner", "1")
    assert (code, out) == (2, "")
    assert err == "error: loop at point 1 did not converge in 1 passes\n"


def test_bench_table(capsys):
    code, out, _ = run(capsys, "bench")
    assert code == 0
    assert "flagged_write" in out and "verdict" in out


def test_bench_csv(capsys):
    code, out, _ = run(capsys, "bench", "--csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "name,domain,mode,verdict,ops,converged"
    # 8 corpus programs x 2 domains x 2 modes
    assert len(out.strip().splitlines()) == 1 + 8 * 4


def test_bench_case_filter_and_summary(capsys):
    code, out, _ = run(capsys, "bench", "--case", "flagged_write",
                       "--case", "branch_choice")
    assert code == 0
    assert {"flagged_write", "branch_choice"} <= set(out.split())
    assert "ripple_chain" not in out
    assert "non-transitive mode needs fewer lattice ops in" in out
    assert out.rstrip().endswith("/4 program/domain cells")
    code, out, _ = run(capsys, "bench", "--csv", "--case", "flagged_write")
    assert code == 0 and len(out.strip().splitlines()) == 1 + 4
    assert "non-transitive" not in out


def test_bench_unknown_case(capsys):
    code, _, err = run(capsys, "bench", "--case", "flagged_write",
                       "--case", "no_such_program")
    assert code == 2 and "no_such_program" in err


def test_bench_fails_on_verdict_drift(capsys, monkeypatch):
    case = next(c for c in corpus.CASES if c.name == "flagged_write")
    monkeypatch.setitem(case.expected, ("const", "transitive"), "notVerified")
    code, _, err = run(capsys, "bench", "--case", "flagged_write")
    assert code == 1
    assert ("flagged_write const transitive: expected notVerified, got verified"
            in err)


def test_bench_fails_on_unconverged_row(capsys, monkeypatch):
    # one rely derivation is too few for mutex_flags; every cell stops
    # unconverged with notVerified, which is also each cell's frozen verdict
    monkeypatch.setattr(corpus, "AnalysisConfig",
                        functools.partial(AnalysisConfig, fuel_outer=1))
    code, out, err = run(capsys, "bench", "--case", "mutex_flags")
    assert code == 1
    assert "expected" not in err
    for domain in corpus.DOMAINS:
        for mode in corpus.MODES:
            assert f"mutex_flags {domain} {mode}: did not converge" in err


def test_bench_fails_on_error_row(capsys, monkeypatch):
    def boom(program, config):
        raise RuntimeError("boom")
    monkeypatch.setattr(corpus, "analyse", boom)
    code, out, err = run(capsys, "bench", "--case", "flagged_write")
    assert code == 1
    assert "error: boom" in out and "got error: boom" in err


def test_max_disjuncts_below_one(capsys):
    code, _, err = run(capsys, "analyze", BRANCH, "--domain", "const-powerset",
                       "--max-disjuncts", "-1")
    assert code == 2 and "max_disjuncts" in err
    code, _, _ = run(capsys, "analyze", BRANCH, "--domain", "const-powerset",
                     "--max-disjuncts", "1")
    assert code == 1


@pytest.mark.parametrize("domain", ["const", "const-powerset"])
@pytest.mark.parametrize("flag", ["--max-disjuncts", "--fuel-inner", "--fuel-outer"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_limit_below_one(capsys, domain, flag, value):
    # rejected before the analysis runs, in every domain
    code, out, err = run(capsys, "analyze", BRANCH, "--domain", domain,
                         flag, value)
    limit = flag[2:].replace("-", "_")
    assert code == 2 and out == ""
    assert err == f"error: {limit} must be >= 1, got {value}\n"


def test_oracle_universe_too_large(tmp_path, capsys):
    names = [f"v{i}" for i in range(12)]
    body = " ".join(f"{v} := {i % 4};" for i, v in enumerate(names))
    prog = tmp_path / "wide.cw"
    prog.write_text(f"vars {', '.join(names)}; thread T {{ {body} }}")
    code, _, err = run(capsys, "analyze", str(prog), "--check-oracle")
    assert code == 2 and "exceeds cap" in err  # 4^12 oracle states


def test_oracle_reachable_write_escapes(tmp_path, capsys):
    # the universe is {0, 1} (literals plus 0 and 1), and 1 + 1 leaves it
    prog = tmp_path / "escape.cw"
    prog.write_text("vars x; pre x == 1; thread T { x := x + 1; }")
    code, out, err = run(capsys, "analyze", str(prog), "--check-oracle")
    assert code == 2 and "outside the universe" in err
    assert "oracle:" not in out


def test_oracle_overflow_exit_code(tmp_path, capsys):
    # 2^62 squared leaves the 64-bit integers of the language: the analysis
    # folds it to an unknown value, the oracle's concrete step raises
    prog = tmp_path / "overflow.cw"
    prog.write_text("vars x; pre x == 4611686018427387904; thread T { x := x * x; }")
    code, out, err = run(capsys, "analyze", str(prog), "--check-oracle")
    assert code == 2 and "error: integer overflow" in err
    assert "oracle:" not in out


def test_oracle_unreachable_write_does_not_escape(tmp_path, capsys):
    # x + 9 leaves the universe {0, 1, 5, 9}, but x == 5 never holds
    prog = tmp_path / "guarded.cw"
    prog.write_text("vars x; pre x == 0; thread T { if (x == 5) { x := x + 9; } }")
    code, out, err = run(capsys, "analyze", str(prog), "--check-oracle")
    assert code == 0 and err == ""
    assert "oracle: 2 points explored, bounded=False, violations=0" in out


def test_outer_fuel_exhausted_exit_code(capsys):
    code, _, err = run(capsys, "analyze", str(PROGRAMS_DIR / "mutex_flags.cw"),
                       "--fuel-outer", "1")
    assert code == 2
    assert "error: outer fixpoint did not converge within fuel" in err


def test_inner_fuel_exhausted_exit_code(capsys):
    code, _, err = run(capsys, "analyze", str(PROGRAMS_DIR / "spin_gate.cw"),
                       "--fuel-inner", "1")
    assert code == 2
    assert "error: stabilise_fix did not converge in 1 steps" in err


@pytest.mark.parametrize("source", [
    "vars x; thread T { " + "if (x == 0) { " * 1500 + "x := 1;" + " }" * 1500 + " }",
    "vars x; thread T { if (" + "(" * 1500 + "x == 0" + ")" * 1500 + ") { x := 1; } }",
], ids=["nested_if", "nested_parens"])
def test_deep_nesting_exit_code(tmp_path, capsys, source):
    prog = tmp_path / "deep.cw"
    prog.write_text(source)
    code, _, err = run(capsys, "analyze", str(prog))
    assert code == 2 and "nests too deeply" in err


@pytest.mark.parametrize("source, line", [
    # a `!` guard is parsed, and so printed, in its pushed form
    ("vars x; thread T { if (!(x == 1)) { x := 1; } }", "    1: if (x != 1) {"),
    # a guard's && chain, and its negation's || chain, take no stack
    ("vars x; thread T { if (" + " && ".join(["x == 0"] * 600) + ") { x := 1; } }",
     "verdict:   verified"),
], ids=["bang_guard_prints_pushed", "conjuncts_600"])
def test_negated_guard_report(tmp_path, capsys, source, line):
    prog = tmp_path / "negated.cw"
    prog.write_text(source)
    code, out, err = run(capsys, "analyze", str(prog))
    assert code == 0 and err == ""
    assert line in out.splitlines()


CHAIN = 5000  # operands of a flat && or || chain, far past the stack's depth
TERMS = 50_000  # terms of a flat + - * chain


@pytest.mark.parametrize("connective, place", [
    *((c, p) for c in ("&&", "||") for p in ("guard", "pre", "post")),
    ("+", "assign"), ("*", "assign"), ("-+", "assign"),
])
@pytest.mark.parametrize("domain", ["const", "const-powerset"])
def test_flat_chains_analyse(tmp_path, capsys, place, connective, domain):
    # every walk over a condition (parse, negate, filter, eval_cond, leaves,
    # format_cond) reads a chain of one connective in a loop, and every walk
    # over an expression (eval_expr, leaves, format_expr) a spine
    # of + - *; --check-oracle evaluates pre, the guard and the assignment
    # on every store
    value = 0 if connective in ("&&", "+", "-+") else 1
    if place == "assign":
        terms = ["x"] * TERMS
        if connective == "-+":
            # x - x + x - ... is 0 at x == 1 until the middle, where adding
            # INT_MAX and then x wraps past 64 bits; the rest cancels
            half = TERMS // 2
            terms[half:half + 4] = [str(lang.INT_MAX), "x", str(lang.INT_MAX), "x"]
            ops = ["-" if k % 2 == 0 else "+" for k in range(TERMS - 1)]
            ops[half - 1:half + 3] = ["+", "+", "-", "-"]
        else:
            ops = [connective] * (TERMS - 1)
        chain = terms[0] + "".join(f" {op} {term}" for op, term in zip(ops, terms[1:]))
        x = 1 if connective == "-+" else value
        source = (f"vars x, y; pre x == {x} && y == 0; post y == {value}; "
                  f"thread T {{ y := {chain}; }}")
    else:
        cond = f" {connective} ".join([f"x == {value}"] * CHAIN)
        source = {
            "guard": f"vars x; thread T {{ while ({cond}) {{ x := 2; }} }}",
            "pre": f"vars x; pre {cond}; thread T {{ x := 0; }}",
            "post": f"vars x; post {cond}; thread T {{ x := {value}; }}",
        }[place]
    prog = tmp_path / "chain.cw"
    prog.write_text(source)
    code, out, err = run(capsys, "analyze", str(prog), "--domain", domain,
                         "--check-oracle")
    if connective == "-+":
        # y is 0 in exact arithmetic, as post says; the 64-bit step makes
        # it unknown to the analysis and an error to the oracle
        assert code == 2 and err.startswith("error: integer overflow")
        code, out, err = run(capsys, "analyze", str(prog), "--domain", domain)
        assert code == 1 and err == ""
        assert "verdict:   notVerified" in out
    else:
        assert code == 0 and err == ""
        assert "verdict:   verified" in out


# -- the nesting bound ------------------------------------------------------------
#
# Each shape nests its unit n times around a LEAF, the most deeply parsed
# token. Padding the leaf with unary minuses, each one level, brings a
# shape to any depth.

SHAPES = {
    "if": lambda n: "thread T { " + "if (x == 0) { " * n + "x := LEAF;" + " }" * n + " }",
    "while": lambda n: ("thread T { " + "while (x == 0) { x := 1; " * n + "x := LEAF;"
                        + " }" * n + " }"),
    "parens": lambda n: "thread T { if (" + "(" * n + "x == LEAF" + ")" * n + ") { skip; } }",
    "and_or": lambda n: ("thread T { if (" + "".join(f"x == 0 {('||', '&&')[k % 2]} ("
                                                    for k in range(n))
                         + "x == LEAF" + ")" * n + ") { skip; } }"),
    "bang": lambda n: "thread T { if (" + "!" * n + "x == LEAF) { skip; } }",
    "minus": lambda n: "thread T { x := " + "- " * n + "LEAF; }",
    "mixed": lambda n: ("thread T { " + "if (x == 0) { " * n + "if (" + "(" * n + "x == LEAF"
                        + ")" * n + ") { skip; }" + " }" * n + " }"),
}


def shape_text(shape: str, n: int, pad: int) -> str:
    return "vars x; pre x == 0; " + SHAPES[shape](n).replace("LEAF", "- " * pad + "x")


class DeepestParser(lang._Parser):
    """The parser, recording the deepest level it reaches."""

    deepest = 0

    def nest(self, depth):
        self.deepest = max(self.deepest, depth)
        return super().nest(depth)


def deepest(text: str) -> int:
    parser = DeepestParser(text)
    parser.program()
    return parser.deepest


@functools.cache
def at_bound(shape: str) -> tuple[int, int]:
    """(n, pad) such that `shape_text(shape, n, pad)` nests exactly
    `lang.MAX_DEPTH` levels deep, with as many units as fit."""
    base = deepest(shape_text(shape, 0, 0))
    unit = deepest(shape_text(shape, 1, 0)) - base
    n = (lang.MAX_DEPTH - base) // unit
    return n, lang.MAX_DEPTH - base - n * unit


PATHS = {
    "text": [],
    "machine-oracle": ["--emit", "machine", "--check-oracle"],
    "powerset-transitive-oracle": ["--domain", "const-powerset", "--mode", "transitive",
                                   "--check-oracle"],
}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_nesting_bound_analyses(tmp_path, capsys, shape, path):
    # at the bound every shape parses and runs every walk, the oracle and
    # the printers included, within Python's default recursion limit
    n, pad = at_bound(shape)
    text = shape_text(shape, n, pad)
    assert deepest(text) == lang.MAX_DEPTH
    prog = tmp_path / "deep.cw"
    prog.write_text(text)
    code, out, err = run(capsys, "analyze", str(prog), *PATHS[path])
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_nesting_bound_rejects_one_more(tmp_path, capsys, shape):
    # one level past the bound is a parse error at the token that opens it:
    # with one more minus, the leaf's variable
    n, pad = at_bound(shape)
    text = shape_text(shape, n, pad + 1)
    col = text.rindex("x") + 1
    prog = tmp_path / "deep.cw"
    for text, at in ((text, f"1:{col}: "), (shape_text(shape, n + 1, 0), "1:")):
        prog.write_text(text)
        code, _, err = run(capsys, "analyze", str(prog))
        assert code == 2
        assert err.startswith(f"error: {at}") and "program nests too deeply" in err
        assert err.count("\n") == 1


def mangled_program(rng: random.Random) -> str:
    """A seeded malformed or oversized program: a shape near the nesting
    bound, a corpus program with up to three tokens inserted, deleted or
    replaced, or a program whose oracle universe is too large."""
    kind = rng.randrange(3)
    if kind == 0:
        shape = rng.choice(sorted(SHAPES))
        n, pad = at_bound(shape)
        return shape_text(shape, n + rng.randint(-1, 1), max(0, pad + rng.randint(-2, 2)))
    if kind == 1:
        names = "abcdefgh"
        return (f"vars {', '.join(names)}; thread T {{ "
                + " ".join(f"{v} := {rng.randrange(1000)};" for v in names) + " }")
    case = rng.choice(corpus.CASES)
    text = re.sub(r"#.*", "", (PROGRAMS_DIR / case.filename).read_text())
    toks = re.findall(r":=|==|!=|<=|>=|&&|\|\||\w+|\S", text)
    vocab = sorted(set(toks)) + ["(", ")", "{", "}", "!", "-", "9223372036854775808"]
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(toks))
        edit = rng.randrange(3)
        if edit == 0:
            del toks[i]
        elif edit == 1:
            toks.insert(i, rng.choice(vocab))
        else:
            toks[i] = rng.choice(vocab)
    return " ".join(toks)


@pytest.mark.parametrize("seed", range(1, 4))
def test_exit_code_contract(tmp_path, capsys, seed):
    # every input ends in exit 0-3 with output, never a traceback, on every
    # path
    rng = random.Random(f"mangled-{seed}")
    prog = tmp_path / "mangled.cw"
    codes = set()
    for _ in range(12):
        prog.write_text(mangled_program(rng))
        for args in PATHS.values():
            code, out, err = run(capsys, "analyze", str(prog), *args)
            assert code in (0, 1, 2, 3)
            assert (out if code != 2 else err) and "Traceback" not in err
            codes.add(code)
    assert 2 in codes and codes & {0, 1}
