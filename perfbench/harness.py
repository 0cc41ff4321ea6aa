"""Set-up, timed loop, output checks and metrics of the benchmark.

One run sets a workload up, then repeats passes over its jobs until the time
given is spent, checking every output, and reports each end-to-end metric as
the median over passes. A traced run measures half its time untraced and
half with the per-layer wrappers of `tracing.py` installed, and reports the
per-layer metrics.

Times are reported in reference seconds. The speed of a shared machine swings
by tens of percent within seconds, so the run also times `reference_work`, a
fixed pure-Python loop that shares no code with the analyzer, before timed
calls (at most every REFERENCE_EVERY_S), and scales the wall time of each call,
exploration and set-up by REFERENCE_S over the mean of the reference samples
just before and just after it. The human-readable output also shows the raw
wall-time figures.
"""

from __future__ import annotations

import bisect
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from condwrites import engine, oracle

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3  # set-up is repeated and its median reported
REFERENCE_S = 0.01  # nominal time of `reference_work`
REFERENCE_EVERY_S = 0.05

CELL_METRICS = {
    ("const", "nontransitive"): "const_nontransitive_s",
    ("const", "transitive"): "const_transitive_s",
    ("const-powerset", "nontransitive"): "powerset_nontransitive_s",
    ("const-powerset", "transitive"): "powerset_transitive_s",
}

END_TO_END = {
    "setup_s": "s",
    "analyse_s": "s",
    **{name: "s" for name in CELL_METRICS.values()},
    "analyse_p50_ms": "ms",
    "analyse_p90_ms": "ms",
    "ops": "count",
    "oracle_s": "s",
    "peak_rss_mb": "MB",
}

SPANS = (
    "lang.parse_program",
    "engine.analyse", "engine.rely", "engine.collect", "engine.check_post",
    "interference.stabilise", "interference.stabilise_fix",
    "interference.close", "interference.transitions",
    *(f"domains.const.{fn}" for fn in ("join", "meet", "leq", "havoc", "filter", "post")),
    *(f"domains.powerset.{fn}"
      for fn in ("join", "meet", "leq", "havoc", "filter", "post", "make")),
    "oracle.explore", "oracle.check_soundness",
)

PER_LAYER = {
    **{f"{span}.{part}": unit for span in SPANS
       for part, unit in (("calls", "count"), ("self_s", "s"))},
    "engine.outer_rounds": "count",
    "engine.nt_cheaper_cells": "count",
    "interference.stabilise.repeat_ratio": "ratio",
    "interference.stabilise_fix.iterations_per_call": "1/call",
    "interference.close.repeat_ratio": "ratio",
    "domains.const.ops": "count",
    "domains.powerset.ops": "count",
    "oracle.explore.configs": "count",
    "oracle.explore.bounded_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


# -- machine speed --------------------------------------------------------------


@dataclass(frozen=True)
class _Record:
    items: tuple
    flag: bool = False


_NAMES = tuple(f"v{i}" for i in range(6))


def reference_work() -> int:
    """Small frozen records of (name, bit) pairs built, merged through a
    dict, sorted and hashed: the object churn of the analyzer's inner loops,
    which tracks the machine's slow phases better than plain arithmetic."""
    acc, seen = 0, set()
    for i in range(1000):
        a = _Record(tuple((n, (i >> k) & 1) for k, n in enumerate(_NAMES) if (i >> k) & 2))
        b = _Record(tuple((n, (3 * i >> k) & 1)
                          for k, n in enumerate(_NAMES) if (5 * i >> k) & 1))
        bound = dict(a.items)
        merged = _Record(tuple(sorted((v, n) for v, n in b.items if bound.get(v, n) == n)))
        seen.add(merged)
        acc += len(merged.items)
    return acc


class Speed:
    """Reference-loop samples, at most one per REFERENCE_EVERY_S unless forced."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.ends or now - self.ends[-1] >= REFERENCE_EVERY_S:
            reference_work()
            self.starts.append(now)
            self.ends.append(time.perf_counter())

    def factor(self, start: float | None = None) -> float:
        """Wall seconds to reference seconds for work that began at `start`,
        from the samples just before and just after it; from every sample
        when `start` is None."""
        near = range(len(self.ends))
        if start is not None:
            i = bisect.bisect_right(self.ends, start)
            near = range(max(i - 1, 0), min(i + 1, len(self.ends)))
        return REFERENCE_S / statistics.fmean(self.ends[k] - self.starts[k] for k in near)


# -- passes and checks ------------------------------------------------------------


@dataclass
class Timed:
    """A timed interval: wall seconds, and reference seconds once scaled."""
    start: float
    seconds: float
    ref_seconds: float = 0.0


@dataclass
class Call(Timed):
    job: str = ""
    cell: tuple[str, str] = ("", "")
    ops: int = 0
    verdict: str = ""


@dataclass
class Pass:
    calls: list[Call] = field(default_factory=list)
    oracle: list[Timed] = field(default_factory=list)  # explorations, soundness checks
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def scale(self, speed: Speed) -> None:
        for t in (*self.calls, *self.oracle):
            t.ref_seconds = t.seconds * speed.factor(t.start)

    def totals(self, wall: bool = False) -> dict[str, float]:
        def sec(t: Timed) -> float:
            return t.seconds if wall else t.ref_seconds

        out = {"analyse_s": 0.0, "ops": 0, "oracle_s": sum(map(sec, self.oracle)),
               **{name: 0.0 for name in CELL_METRICS.values()}}
        for c in self.calls:
            out["analyse_s"] += sec(c)
            out[CELL_METRICS[c.cell]] += sec(c)
            out["ops"] += c.ops
        return out


def set_up(workload: str, seed: int, tiny: bool) -> list[workloads.Job]:
    return workloads.WORKLOADS[workload](random.Random(seed), tiny)


def _analyse_and_check(job: workloads.Job, cell, truth, out: Pass, speed: Speed) -> None:
    """One check: the analysis runs, converges, gives the expected verdict
    and its outline covers every state the oracle reached."""
    clock = time.perf_counter
    domain, mode = cell
    where = f"{job.name} {domain}/{mode}"
    out.attempted += 1
    speed.sample()
    t0 = clock()
    try:
        result = engine.analyse(job.program, engine.AnalysisConfig(mode=mode, domain=domain))
    except Exception as exc:  # counted as a failed check, the run goes on
        out.failures.append(f"{where}: {type(exc).__name__}: {exc}")
        return
    out.calls.append(Call(t0, clock() - t0, job=job.name, cell=cell,
                          ops=result.metrics.ops, verdict=result.verdict))
    if not result.converged:
        out.failures.append(f"{where}: did not converge")
        return
    if result.verdict != job.expected[cell]:
        out.failures.append(f"{where}: verdict {result.verdict}, expected {job.expected[cell]}")
        return
    t0 = clock()
    try:
        violations = oracle.check_soundness(result, truth)
    except Exception as exc:
        out.failures.append(f"{where}: soundness check raised {type(exc).__name__}: {exc}")
        return
    finally:
        out.oracle.append(Timed(t0, clock() - t0))
    if violations:
        out.failures.append(f"{where}: {len(violations)} oracle violations, first {violations[0]}")


def run_pass(jobs: list[workloads.Job], rng: random.Random, speed: Speed) -> Pass:
    """Every job once, in a seeded order. A job without set-up ground truth
    is explored here, inside the timed pass."""
    out = Pass()
    for job in rng.sample(jobs, len(jobs)):
        truth = job.truth
        if truth is None:
            speed.sample()
            t0 = time.perf_counter()
            try:
                truth = oracle.explore(job.program, budget=workloads.ORACLE_BUDGET)
            except Exception as exc:  # fails every check of this job
                out.attempted += len(job.expected)
                out.failures += [f"{job.name} {'/'.join(cell)}: exploration raised "
                                 f"{type(exc).__name__}: {exc}" for cell in job.expected]
                continue
            finally:
                out.oracle.append(Timed(t0, time.perf_counter() - t0))
        for cell in job.expected:
            _analyse_and_check(job, cell, truth, out, speed)
    return out


def measure(jobs, seed: int, seconds: float, speed: Speed,
            tracer: Tracer | None = None):
    """Passes for about `seconds`: at least one, ending at the pass boundary
    nearest the deadline. A snapshot of the tracer's totals follows each."""
    rng = random.Random(seed)
    passes, snapshots = [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(jobs, rng, speed))
        if tracer is not None:
            snapshots.append(tracer.snapshot())
        t1 = time.perf_counter()
        if t1 + (t1 - t0) / 2 >= deadline:
            break
    speed.sample(force=True)
    for p in passes:
        p.scale(speed)
    return passes, snapshots


def _fresh_import() -> None:
    """Start an interpreter that imports the analyzer and this benchmark."""
    env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
    subprocess.run([sys.executable, "-c", "import harness"], cwd=HERE, env=env,
                   check=True, timeout=120)


def timed_set_up(workload: str, seed: int, tiny: bool, speed: Speed):
    """SETUP_REPS set-ups, each a fresh interpreter importing the analyzer
    plus the building of the workload's jobs. Returns the jobs of the last
    and the median time in reference seconds."""
    times = []
    for _ in range(SETUP_REPS):
        speed.sample(force=True)
        t0 = time.perf_counter()
        _fresh_import()
        jobs = set_up(workload, seed, tiny)
        t1 = time.perf_counter()
        speed.sample(force=True)
        times.append((t1 - t0) * speed.factor(t0))
    return jobs, statistics.median(times)


# -- metrics ------------------------------------------------------------------------


def _median_of(passes: list[Pass], key: str, wall: bool = False) -> float:
    return statistics.median(p.totals(wall)[key] for p in passes)


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    """Medians over passes; latency percentiles over every call."""
    out = {"setup_s": setup_s}
    for key in ("analyse_s", *CELL_METRICS.values(), "ops", "oracle_s"):
        out[key] = _median_of(passes, key)
    latencies = [c.ref_seconds * 1000 for p in passes for c in p.calls]
    out["analyse_p50_ms"] = statistics.median(latencies)
    out["analyse_p90_ms"] = (statistics.quantiles(latencies, n=10)[8]
                             if len(latencies) > 1 else latencies[0])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"analyse latency samples: {len(latencies)}; wall analyse_s "
          f"{_median_of(passes, 'analyse_s', wall=True):.6g}, oracle_s "
          f"{_median_of(passes, 'oracle_s', wall=True):.6g}")
    return out


def nt_cheaper_cells(p: Pass) -> tuple[int, int]:
    """(program, domain) cells where non-transitive mode needs fewer ops
    than transitive mode (acceptance criterion 6), and the cells compared."""
    ops = {(c.job, c.cell): c.ops for c in p.calls}
    pairs = {(job, domain) for job, (domain, _) in ops}
    compared = [(j, d) for j, d in pairs
                if (j, (d, "nontransitive")) in ops and (j, (d, "transitive")) in ops]
    cheaper = sum(ops[(j, (d, "nontransitive"))] < ops[(j, (d, "transitive"))]
                  for j, d in compared)
    return cheaper, len(compared)


def per_layer(setup_snap: dict, snapshots: list[dict], factor: float,
              traced: list[Pass], untraced: list[Pass]) -> dict[str, float]:
    """Counts and self times: the traced set-up plus the median traced pass,
    self times scaled by the traced phase's reference factor. Ratios: over
    the whole traced phase."""
    deltas, prev = [], setup_snap
    for snap in snapshots:
        deltas.append({k: v - prev.get(k, 0.0) for k, v in snap.items()})
        prev = snap
    total = snapshots[-1]

    def value(key):
        return setup_snap.get(key, 0.0) + statistics.median(d.get(key, 0.0) for d in deltas)

    def ratio(num, den):
        return total.get(num, 0.0) / total[den] if total.get(den) else 0.0

    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = value(f"{span}.calls")
        out[f"{span}.self_s"] = value(f"{span}.self_s") * factor
    for key in ("engine.outer_rounds", "domains.const.ops", "domains.powerset.ops",
                "oracle.explore.configs"):
        out[key] = value(key)
    out["engine.nt_cheaper_cells"] = nt_cheaper_cells(untraced[0])[0]
    for span in ("interference.stabilise", "interference.close"):
        out[f"{span}.repeat_ratio"] = ratio(f"{span}.repeats", f"{span}.calls")
    out["interference.stabilise_fix.iterations_per_call"] = ratio(
        "interference.stabilise.under", "interference.stabilise_fix.calls")
    out["oracle.explore.bounded_frac"] = ratio("oracle.explore.bounded", "oracle.explore.calls")
    out["trace.overhead_frac"] = (_median_of(traced, "analyse_s")
                                  / _median_of(untraced, "analyse_s") - 1)
    return out


def _outcomes(passes: list[Pass]) -> dict:
    return {(c.job, c.cell): (c.ops, c.verdict) for p in passes for c in p.calls}


# -- a run ------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
        out_dir) -> tuple[dict, list[str], int]:
    """Returns the metrics, the failures, and the number of checks attempted."""
    speed = Speed()
    if not trace:
        jobs, setup_s = timed_set_up(workload, seed, tiny, speed)
        passes, _ = measure(jobs, seed, seconds, speed)
        metrics = end_to_end(passes, setup_s)
        mismatches: list[str] = []
    else:
        passes_u, _ = measure(set_up(workload, seed, tiny), seed, seconds / 2, speed)
        tracer, traced_speed = Tracer(), Speed()
        with tracer:
            jobs = set_up(workload, seed, tiny)
            setup_snap = tracer.snapshot()
            passes_t, snapshots = measure(jobs, seed, seconds / 2, traced_speed, tracer)
        metrics = per_layer(setup_snap, snapshots, traced_speed.factor(), passes_t, passes_u)
        traced, untraced = _outcomes(passes_t), _outcomes(passes_u)
        mismatches = [f"{job} {'/'.join(cell)}: traced (ops, verdict) "
                      f"{traced.get((job, cell))} differ from untraced {untraced[(job, cell)]}"
                      for job, cell in untraced if traced.get((job, cell)) != untraced[(job, cell)]]
        out_dir.mkdir(parents=True, exist_ok=True)
        spans_path = out_dir / f"trace-{workload}-{seed}.jsonl"
        tracer.write_spans(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path}, "
              f"{tracer.dropped} beyond the cap dropped")
        cheaper, compared = nt_cheaper_cells(passes_u[0])
        print(f"engine.nt_cheaper_cells: {cheaper}/{compared} (program, domain) cells")
        passes = passes_u + passes_t
    failures = [f for p in passes for f in p.failures] + mismatches
    attempted = sum(p.attempted for p in passes) + len(mismatches)
    print(f"workload {workload}  seed {seed}  passes {len(passes)}")
    return metrics, failures, attempted


def report(metrics: dict, units: dict, failures: list[str], attempted: int) -> dict:
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<48} {len(failures) / max(attempted, 1):>14.6g} "
          f"({len(failures)}/{attempted} checks)")
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
