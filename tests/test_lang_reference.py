"""Differential test of the operand parser of `condwrites.lang` against the
one-method-per-level parser that backtracked over parenthesised operands
(`reference_lang.ReferenceParser`), and of its negation rule against the
`Not` node that parser builds.

On the corpus, on generated programs and on seeded random operands in a
guard, an assignment and `pre`, both parsers must accept the same inputs
and build equal `Program`s once both are brought to one shape by
`reference_lang.push` (the reference's `Not` nodes pushed in, each chain one
node), and every rejection must be a `ParseError`. Rejection messages may differ:
the climb reports an operand of the wrong kind where it ends, not where a
second parse gave up. On the random conditions both parse, `eval_cond` and
both domains' `filter` must give what the reference's `Not` handling gave,
for each condition and its negation: the same value, the same exception
and the same ops."""

import itertools
import random

import pytest

from condwrites.corpus import CASES, PROGRAMS_DIR
from condwrites.domains import PW_TOP, ConstDomain, ConstPowersetDomain, cm_make
from condwrites.lang import ParseError, eval_cond, format_program, negate, parse_program

from randprog import random_program
from test_engine import chain_text
import reference_lang

LEAVES = ("x", "y", "0", "1", "7")
BOUNDS = ("9223372036854775807", "9223372036854775808")  # the second is out of range
ARITH = ("+", "-", "*")
CMPS = ("==", "!=", "<", "<=", ">", ">=")
TOKENS = LEAVES + BOUNDS + ARITH + CMPS + ("true", "false", "!", "&&", "||", "(", ")")

CONTEXTS = {  # name -> (program around the operand, the kind it wants)
    "guard": ("vars x, y; thread T {{ if ({}) {{ skip; }} }}", "cond"),
    "assign": ("vars x, y; thread T {{ x := {}; }}", "expr"),
    "pre": ("vars x, y; pre {}; thread T {{ skip; }}", "cond"),
}
OPERANDS = 7_000  # per context


def random_operand(rng: random.Random, want: str) -> str:
    """A grammar-shaped random operand, three times in four of the kind
    `want` ("cond" or "expr"), then at most two tokens inserted, deleted or
    replaced."""

    def expr(d):
        r = rng.random()
        if d > 3 or r < 0.35:
            return [rng.choice(BOUNDS if r < 0.02 else LEAVES)]
        if r < 0.5:
            return ["-", *expr(d + 1)]
        if r < 0.65:
            return ["(", *expr(d + 1), ")"]
        return [*expr(d + 1), rng.choice(ARITH), *expr(d + 1)]

    def cond(d):
        r = rng.random()
        if d > 3 or r < 0.45:
            return [*expr(d + 1), rng.choice(CMPS), *expr(d + 1)]
        if r < 0.55:
            return [rng.choice(("true", "false"))]
        if r < 0.7:
            return ["!", *cond(d + 1)]
        if r < 0.8:
            return ["(", *cond(d + 1), ")"]
        return [*cond(d + 1), rng.choice(("&&", "||")), *cond(d + 1)]

    toks = (cond if (want == "cond") == (rng.random() < 0.75) else expr)(0)
    for _ in range(rng.choice((0, 0, 1, 2))):
        i = rng.randrange(len(toks))
        edit = rng.randrange(3)
        if edit == 0 and len(toks) > 1:
            del toks[i]
        elif edit == 1:
            toks.insert(i, rng.choice(TOKENS))
        else:
            toks[i] = rng.choice(TOKENS)
    return " ".join(toks)


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return exc


def assert_same(text):
    """Both parsers accept `text` with equal programs, or both reject it
    with a `ParseError`; returns whether they accepted it."""
    got = outcome(parse_program, text)
    ref = outcome(reference_lang.parse_program, text)
    if isinstance(ref, ParseError):
        assert isinstance(got, ParseError), (text, ref)
        return False
    assert reference_lang.push(got) == reference_lang.push(ref), text
    return True


def test_corpus_and_generated_programs_parse_the_same():
    texts = [(PROGRAMS_DIR / case.filename).read_text() for case in CASES]
    texts += [format_program(random_program(seed, threads))
              for seed in range(1, 151) for threads in (2, 3)]
    texts += [chain_text(k, threads) for k in (3, 5, 7) for threads in (2, 3)]
    assert all(assert_same(text) for text in texts)


@pytest.mark.parametrize("context", sorted(CONTEXTS))
def test_random_operands_parse_the_same(context):
    accepted = sum(map(assert_same, operand_texts(context)))
    # both outcomes are well represented
    assert OPERANDS // 5 < accepted < OPERANDS * 4 // 5


def operand_texts(context):
    rng = random.Random(f"operands-{context}")
    program, want = CONTEXTS[context]
    return [program.format(random_operand(rng, want)) for _ in range(OPERANDS)]


STATES = [dict(zip("xy", values)) for values in itertools.product((0, 1, 7, -3), repeat=2)]
CMS = [cm_make({}), cm_make({"x": 0}), cm_make({"x": 7, "y": 1}), cm_make({"y": -3})]
ELEMENTS = [  # (domain, elements)
    (ConstDomain(("x", "y")), CMS),
    (ConstPowersetDomain(("x", "y")), [PW_TOP, frozenset(CMS[1:]), frozenset(CMS[2:3])]),
]


def result(f, *args):
    """f(*args), or the type and message of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def filtered(f, dom, c, d):
    """`result(f, dom, c, d)` and the ops it counted on dom."""
    before = dom.ops
    return result(f, dom, c, d), dom.ops - before


@pytest.mark.parametrize("context", ["guard", "pre"])
def test_negation_matches_reference(context):
    checked = 0
    for text in operand_texts(context):
        try:
            ref = reference_lang.parse_program(text)
        except ParseError:
            continue
        got = parse_program(text)
        if context == "guard":
            ref, got = ref.threads[0].body.cond, got.threads[0].body.cond
        else:
            ref, got = ref.pre, got.pre
        for r, c in ((ref, got), (reference_lang.negate(ref), negate(got))):
            for s in STATES:
                assert result(eval_cond, c, s) == result(reference_lang.eval_cond, r, s), text
            for dom, elements in ELEMENTS:
                for d in elements:
                    assert (filtered(type(dom).filter, dom, c, d)
                            == filtered(reference_lang.filter, dom, r, d)), text
        checked += 1
    assert checked > OPERANDS // 5
