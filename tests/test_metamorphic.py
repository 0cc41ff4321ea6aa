"""Metamorphic relations of `engine.analyse`: changes to a program that must
leave its analysis unchanged, checked without a reference implementation.

- Renaming the variables changes no outline, up to the renaming, and no op
  count. The renaming gives every variable a new name and reverses their
  sorted order, so the domains' subset walks, which run over sorted
  variables, visit the write sets in a new order.
- Reversing the order in which the threads are declared changes no outline
  and no verdict. It does change ops, since the outer worklist visits the
  threads in declaration order; each config prints in how many of its
  cells they changed.

The programs are the corpus and `randprog` seeds 1-60 at 2 and 3 threads,
in const and in the powerset at caps 64, 2 and 1 and at n = 1, in both
modes.
"""

import re
from dataclasses import replace

import pytest

from condwrites.corpus import CASES, PROGRAMS_DIR
from condwrites.domains import CM_BOT, cm_items
from condwrites.engine import MODES, AnalysisConfig, analyse
from condwrites.lang import parse_program

from randprog import format_program, random_program

TEXTS = {case.name: (PROGRAMS_DIR / case.filename).read_text(encoding="utf-8")
         for case in CASES}
TEXTS.update((f"random{seed}x{threads}", format_program(random_program(seed, threads)))
             for threads in (2, 3) for seed in range(1, 61))

CONFIGS = [AnalysisConfig(mode=mode, **kw) for mode in MODES for kw in (
    {"domain": "const"},
    {"domain": "const-powerset", "max_disjuncts": 64},
    {"domain": "const-powerset", "max_disjuncts": 2},
    {"domain": "const-powerset", "max_disjuncts": 1},
    {"domain": "const-powerset", "n": 1},
)]

IDENTIFIER = re.compile(r"\b[A-Za-z_]\w*\b")


def config_id(c: AnalysisConfig) -> str:
    return f"{c.domain}-{c.max_disjuncts}-n{c.n}-{c.mode}"


def canonical(d, names: dict[str, str]):
    """An analyzer element as its bindings, with each variable renamed by
    `names`: a constant map as a frozenset of bindings, a powerset element
    as a frozenset of those."""
    if isinstance(d, frozenset):
        return frozenset(canonical(m, names) for m in d)
    return CM_BOT if d is CM_BOT else frozenset(
        (names[v], value) for v, value in cm_items(d))


def outlines(result, names: dict[str, str]) -> dict:
    return {tid: {label: canonical(d, names) for label, d in outline.items()}
            for tid, outline in result.outlines.items()}


def renamed(text: str, variables) -> tuple[str, dict[str, str]]:
    """`text` with each variable renamed so that their sorted order
    reverses, and the renaming."""
    order = sorted(variables, reverse=True)
    names = {v: f"q{order.index(v)}" for v in variables}
    assert not set(names.values()) & set(IDENTIFIER.findall(text))
    return IDENTIFIER.sub(lambda m: names.get(m.group(), m.group()), text), names


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_renaming_variables_changes_no_outline_and_no_ops(config):
    for name, text in TEXTS.items():
        program = parse_program(text)
        assert not {t.tid for t in program.threads} & set(program.variables)
        text2, names = renamed(text, program.variables)
        ours = analyse(program, config)
        theirs = analyse(parse_program(text2), config)
        back = {new: old for old, new in names.items()}
        same = {v: v for v in program.variables}
        assert outlines(theirs, back) == outlines(ours, same), name
        assert (theirs.verdict, theirs.metrics.ops) == (
            ours.verdict, ours.metrics.ops), name


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_reversing_the_threads_changes_no_outline_or_verdict(config):
    ops_changed = 0
    for name, text in TEXTS.items():
        program = parse_program(text)
        reversed_ = replace(program, threads=program.threads[::-1])
        ours, theirs = analyse(program, config), analyse(reversed_, config)
        same = {v: v for v in program.variables}
        assert outlines(theirs, same) == outlines(ours, same), name
        assert theirs.verdict == ours.verdict, name
        assert theirs.converged and ours.converged, name
        ops_changed += theirs.metrics.ops != ours.metrics.ops
    print(f"{config_id(config)}: reversing the threads changed ops in "
          f"{ops_changed} of {len(TEXTS)} programs")
