"""The benchmark's workloads: seeded program generators and the job lists
built from them.

A job is one program, the analysis cells (domain x mode) it runs in and the
verdict each cell must give. Generators emit program text; the analyzer only
receives what `lang.parse_program` makes of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from condwrites import corpus, lang, oracle

DOMAINS = ("const", "const-powerset")
MODES = ("nontransitive", "transitive")
ALL_CELLS = tuple((d, m) for d in DOMAINS for m in MODES)

# The exploration limit of `analyze --check-oracle`; an exploration cut by it
# is not ground truth.
ORACLE_BUDGET = oracle.Budget()


@dataclass
class Job:
    name: str
    program: lang.Program
    expected: dict  # (domain, mode) -> verdict; its keys are the cells run
    truth: oracle.OracleReport | None = None  # ground truth explored in set-up


def _names(rng: random.Random, k: int) -> list[str]:
    # Seeded identifiers, so the analyzer's sorted-variable subset order no
    # longer follows the ring order of the program.
    return [f"v{n}" for n in rng.sample(range(100), k)]


def chain_text(names: list[str], threads: int) -> str:
    """chainK: thread t runs K guarded writes
    `if (v[(i+t)%K] == 0) { v[(i+t+1)%K] := 1; }` over a ring of K flags."""
    k = len(names)
    lines = [
        f"vars {', '.join(names)};",
        f"pre {' && '.join(f'{v} == 0' for v in names)};",
        "post true;",
    ]
    for t in range(threads):
        body = " ".join(
            f"if ({names[(i + t) % k]} == 0) {{ {names[(i + t + 1) % k]} := 1; }}"
            for i in range(k)
        )
        lines.append(f"thread T{t} {{ {body} }}")
    return "\n".join(lines) + "\n"


def random_text(rng: random.Random, threads: int = 4, nvars: int = 4) -> str:
    """A finite-state program over {0,1}: each thread runs, in a seeded order,
    one guarded write, one if/else, one while loop and one assignment (eight
    program points). Every write is 0, 1 or a copy, so exploration over the
    {0,1} universe never escapes it."""
    names = _names(rng, nvars)

    def guard() -> str:
        return f"{rng.choice(names)} {rng.choice(('==', '!='))} {rng.randint(0, 1)}"

    def assign() -> str:
        rhs = str(rng.randint(0, 1)) if rng.random() < 0.5 else rng.choice(names)
        return f"{rng.choice(names)} := {rhs};"

    lines = [f"vars {', '.join(names)};", "pre true;", "post true;"]
    for t in range(threads):
        parts = [
            f"if ({guard()}) {{ {assign()} }}",
            f"if ({guard()}) {{ {assign()} }} else {{ {assign()} }}",
            f"while ({guard()}) {{ {assign()} }}",
            assign(),
        ]
        rng.shuffle(parts)
        lines.append(f"thread T{t} {{ {' '.join(parts)} }}")
    return "\n".join(lines) + "\n"


def _all_verified(cells) -> dict:
    # post true: every converged analysis must verify it
    return {cell: "verified" for cell in cells}


# corpus: the paper's evaluation set with frozen verdicts, in every cell. The
# programs are small and precision-sensitive, so per-call overhead in `engine`
# and repeated `stabilise` inputs dominate. Ground truth is explored once in
# set-up. The seed only orders the calls within each pass.
def corpus_jobs(rng: random.Random, tiny: bool = False) -> list[Job]:
    jobs = []
    for case in corpus.CASES[:2] if tiny else corpus.CASES:
        text = (corpus.PROGRAMS_DIR / case.filename).read_text()
        program = lang.parse_program(text)
        jobs.append(Job(case.name, program, dict(case.expected),
                        oracle.explore(program, budget=ORACLE_BUDGET)))
    return jobs


# chain: the scaling family, where `stabilise`'s 2^|V| subset enumeration,
# transitive `close` and powerset normalisation (`ConstPowersetDomain.make`)
# dominate. The const half is mostly `stabilise` and `meet`; the powerset half
# is mostly `make`. The powerset half stops at K=4 because const-powerset
# blows up beyond it (K=5, T=3 non-transitive alone takes about 6 s), and the
# const half stops at K=7 so that one pass stays near 5 s. Ground truth is
# explored once in set-up. The seed draws the variable names; measured ops do
# not depend on them.
CHAIN_SIZES = {"const": (5, 6, 7), "const-powerset": (3, 4)}
CHAIN_THREADS = (2, 3)


def chain_jobs(rng: random.Random, tiny: bool = False) -> list[Job]:
    jobs = []
    for domain, sizes in CHAIN_SIZES.items():
        for k in sizes[:1] if tiny else sizes:
            for threads in CHAIN_THREADS[:1] if tiny else CHAIN_THREADS:
                program = lang.parse_program(chain_text(_names(rng, k), threads))
                jobs.append(Job(
                    f"chain{k}x{threads}-{domain}", program,
                    _all_verified((domain, m) for m in MODES),
                    oracle.explore(program, budget=ORACLE_BUDGET)))
    return jobs


# oracle: seeded random 4-thread, 4-variable finite-state programs, each
# explored by `oracle.explore` inside the timed loop and analysed in every
# cell against that ground truth: the `analyze --check-oracle` path, and the
# only workload where exploration is timed. The fixed statement mix per thread
# keeps each program's exploration cost within a narrow band, so sums over
# different seeds stay comparable. Draws whose exploration could hit the budget
# are discarded in set-up, as acceptance criterion 5 does.
ORACLE_PROGRAMS = 40


def _fits_budget(program: lang.Program) -> bool:
    """Whether exploration provably stays within ORACLE_BUDGET: it visits
    each (program counters, store) configuration at most once and takes at
    most one step per thread from each."""
    configs = oracle.default_universe(program).size()
    for t in program.threads:
        configs *= sum(1 for _ in lang.statements(t.body)) + 1  # points and exit
    return (configs < ORACLE_BUDGET.max_states
            and configs * len(program.threads) < ORACLE_BUDGET.max_steps)


def oracle_jobs(rng: random.Random, tiny: bool = False) -> list[Job]:
    count, threads = (2, 2) if tiny else (ORACLE_PROGRAMS, 4)
    jobs = []
    while len(jobs) < count:
        program = lang.parse_program(random_text(rng, threads))
        if (not _fits_budget(program)
                and oracle.explore(program, budget=ORACLE_BUDGET).bounded):
            continue
        jobs.append(Job(f"random{len(jobs)}", program, _all_verified(ALL_CELLS)))
    return jobs


WORKLOADS = {"corpus": corpus_jobs, "chain": chain_jobs, "oracle": oracle_jobs}
