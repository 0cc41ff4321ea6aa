"""Per-layer tracing installed from outside the analyzer.

`Tracer.install` replaces the public functions of each layer (`lang`,
`engine`, `interference`, `domains`, `oracle`) with timing wrappers and
`Tracer.remove` puts the originals back; nothing under `src/` is edited.
Every wrapped call adds to flat per-name totals (`<name>.calls`,
`<name>.self_s`, where self time is span time minus child spans). Spans
(id, name, start, end, parent, analysis id) are kept in memory for every layer
but the domain primitives, whose calls number in the millions and are only
totalled.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from condwrites import domains, engine, interference, lang, oracle

ANALYSE = "engine.analyse"
MAX_SPANS = 200_000  # spans kept in memory; later ones are only counted
PRIMITIVES = ("join", "meet", "leq", "havoc", "filter", "post")


def _interference_key(self, i, *rest):
    # Interference maps are dicts; their values (ConstMap, PowElem) and the
    # remaining arguments are frozen, so a tuple of items is a faithful key.
    return (tuple(i.items()),) + rest


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []  # open spans: [id, name, child time]
        self._seen: dict[str, set] = defaultdict(set)  # inputs in this analysis
        self._analysis: int | None = None
        self._analyses = 0
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- wrapping --------------------------------------------------------------

    def wrap(self, name: str, fn, key=None, on_result=None, under=None,
             keep: bool = True):
        """Time `fn` as span `name`. `key` maps the arguments to a hashable
        input whose repeats within one analysis are counted; `on_result`
        adds counts read off the return value; calls made directly inside a
        span named `under` are counted as `<name>.under`."""
        clock = time.perf_counter
        totals, stack, spans = self.totals, self._stack, self.spans
        calls_k, self_k = f"{name}.calls", f"{name}.self_s"
        repeats_k, under_k = f"{name}.repeats", f"{name}.under"
        starts_analysis = name == ANALYSE

        def traced(*args, **kwargs):
            if key is not None:
                seen = self._seen[name]
                k = key(*args, **kwargs)
                if k in seen:
                    totals[repeats_k] += 1
                else:
                    seen.add(k)
            if starts_analysis:
                self._analyses += 1
                self._analysis = self._analyses
                self._seen.clear()
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            if parent is not None and parent[1] == under:
                totals[under_k] += 1
            frame = [span_id, name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                totals[calls_k] += 1
                totals[self_k] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if keep:
                    if len(spans) < MAX_SPANS:
                        spans.append((span_id, name, t0, t1,
                                      parent[0] if parent else None, self._analysis))
                    else:
                        self.dropped += 1
                if starts_analysis:
                    self._analysis = None
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, **kw) -> None:
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patched.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def install(self) -> None:
        def on_analyse(result):
            self.totals["engine.outer_rounds"] += result.metrics.outer_iterations
            tag = "const" if result.config.domain == "const" else "powerset"
            self.totals[f"domains.{tag}.ops"] += result.metrics.ops

        def on_explore(report):
            self.totals["oracle.explore.configs"] += sum(
                len(states) for states in report.reachable.values())
            self.totals["oracle.explore.bounded"] += report.bounded

        self._patch(lang, "parse_program", "lang.parse_program")
        self._patch(engine, "analyse", ANALYSE, on_result=on_analyse)
        for fn in ("rely", "collect", "check_post"):
            self._patch(engine, fn, f"engine.{fn}")
        cw = interference.CondWrites
        self._patch(cw, "stabilise", "interference.stabilise",
                    key=_interference_key, under="interference.stabilise_fix")
        self._patch(cw, "stabilise_fix", "interference.stabilise_fix")
        self._patch(cw, "close", "interference.close", key=_interference_key)
        self._patch(cw, "transitions", "interference.transitions")
        for cls, tag in ((domains.ConstDomain, "const"),
                         (domains.ConstPowersetDomain, "powerset")):
            extra = ("make",) if cls is domains.ConstPowersetDomain else ()
            for fn in PRIMITIVES + extra:
                self._patch(cls, fn, f"domains.{tag}.{fn}", keep=False)
        self._patch(oracle, "explore", "oracle.explore", on_result=on_explore)
        self._patch(oracle, "check_soundness", "oracle.check_soundness")

    def remove(self) -> None:
        for owner, attr, own, original in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # the method was inherited
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- output ----------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        return dict(self.totals)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span_id, name, t0, t1, parent, analysis in self.spans:
                f.write(json.dumps({"id": span_id, "name": name, "start": t0,
                                    "end": t1, "parent": parent,
                                    "analysis": analysis}) + "\n")
