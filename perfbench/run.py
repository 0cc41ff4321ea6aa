#!/usr/bin/env python3
"""Benchmark of the condwrites analyzer, run in-process on one core.

    python3 perfbench/run.py --workload corpus|chain|oracle --seed N \
        --seconds S --trace 0|1

Run from the repository root. The analyzer is imported from `src/`. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`. The exit code is 1 when any output
check fails and 2 when the analyzer's sources are missing.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "chain", "oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time to spend in timed passes (at least one pass runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few small programs per workload, for the self-tests")
    ap.add_argument("--out", type=Path, default=HERE / "out",
                    help="directory for the span file of a traced run")
    args = ap.parse_args(argv)

    if not (SRC / "condwrites" / "__init__.py").is_file():
        print(f"error: analyzer sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    metrics, failures, attempted = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, args.out)
    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    print(json.dumps(harness.report(metrics, units, failures, attempted)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
