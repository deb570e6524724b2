"""Command line: the full set, one driver-style run, or ``compare``."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from perfbench import compare, runner, suite
from perfbench.metrics import RUN_SECONDS
from perfbench.workloads import WORKLOADS

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 -m perfbench",
        description="Six pinned workloads over the BFT-BC reproduction. "
        "Without --trace, runs the full set in child processes; with "
        "--workload W --seconds S --trace 0|1, makes one run in this process. "
        "`python3 -m perfbench compare A.json B.json` compares two --out files.",
    )
    parser.add_argument("--seed", type=int, default=20060625,
                        help="workload seed; the program only ever sees generated inputs")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all six)")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"length of one run: fixed-size repetitions fill it "
                        f"(default {RUN_SECONDS}, as in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="make ONE run of ONE workload here: 0 prints the "
                        "end-to-end metrics, 1 the per-layer metrics of a traced rep")
    parser.add_argument("--trace-out", default=None,
                        help="with --trace 1: write the spans as JSON lines to this file")
    parser.add_argument("--reps", type=int, default=3,
                        help="full set: untraced runs per workload, interleaved")
    parser.add_argument("--no-trace", action="store_true",
                        help="full set: skip the traced runs")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 of the operations, one repetition: a wiring check")
    parser.add_argument("--out", default=None,
                        help="full set: write one JSON document with every metric")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    args = _parser().parse_args(argv)
    names = args.workload or list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else RUN_SECONDS
    if args.trace is None:
        return suite.run(
            names, seed=args.seed, reps=args.reps, trace=not args.no_trace,
            seconds=seconds, smoke=args.smoke, out=args.out,
        )
    if len(names) != 1:
        print("perfbench: --trace makes one run; name one --workload", file=sys.stderr)
        return 2
    result, detail = runner.run(
        names[0], args.seed, seconds, bool(args.trace),
        smoke=args.smoke, trace_out=args.trace_out,
    )
    for error in detail["errors"]:
        print(f"perfbench: {names[0]}: {error}", file=sys.stderr)
    print(runner.DETAIL_PREFIX + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0
