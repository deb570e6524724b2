"""``python3 -m perfbench compare A.json B.json``: B against baseline A.

Per workload and end-to-end metric: both medians, the relative difference,
the bound, and a verdict.  ``unresolved`` means either recording's own
run-to-run spread is wider than the bound, so the pair cannot show a change
of that size either way.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Sequence

from perfbench.metrics import REPORT, SETUP_ABS_BOUND_S, Metric

#: Workloads whose counts are exact on a simulated clock.
EXACT_COUNT_WORKLOADS = ("sim-base-write", "sim-fastpath-write")


def verdict(metric: Metric, a: dict[str, Any], b: dict[str, Any]) -> tuple[str, float, float]:
    """``(verdict, worsening, bound)``; worsening and bound are in the unit
    the bound is stated in (a share of A's median, or the metric's unit)."""
    bound = metric.bound or 0.0
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"])
    if metric.bound_kind == "rel":
        worse_by = worse_by / abs(a["median"]) if a["median"] else 0.0
        noise = max(a["spread"], b["spread"])
    else:
        noise = max(a["spread"] * abs(a["median"]), b["spread"] * abs(b["median"]))
    if metric.name == "setup_s":
        # max(0.25 relative, 0.1 s absolute): a 5 ms set-up may double.
        bound = max(bound, SETUP_ABS_BOUND_S / a["median"]) if a["median"] else bound
    if noise > bound:
        return "unresolved", worse_by, bound
    return ("worse" if worse_by > bound else "ok"), worse_by, bound


def compare(a: dict[str, Any], b: dict[str, Any]) -> tuple[list[str], bool]:
    """The report lines, and whether anything is worse."""
    lines, bad = [], False
    for setting in ("seed", "seconds", "runs_per_workload", "smoke"):
        if a.get(setting) != b.get(setting):
            lines.append(f"! {setting} differs: {a.get(setting)} vs {b.get(setting)}; "
                         "the two sides did not do the same work")
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            lines.append(f"== {name}: missing from B")
            bad = True
            continue
        lines.append(f"== {name}")
        for metric in REPORT:
            row_a = entry_a["end_to_end"].get(metric.name)
            row_b = entry_b["end_to_end"].get(metric.name)
            if row_a is None or row_b is None:
                continue
            what, worse_by, bound = verdict(metric, row_a, row_b)
            bad = bad or what == "worse"
            lines.append(
                f"   {metric.name:<26}{row_a['median']:>12.4f} -> {row_b['median']:>12.4f} "
                f"{metric.unit:<6} worse by {worse_by:+.4f} of {bound:.4f} "
                f"({metric.bound_kind})  {what}"
            )
        if not (entry_a["correct"] and entry_b["correct"]):
            lines.append("   outputs incorrect on one side: worse")
            bad = True
        if name in EXACT_COUNT_WORKLOADS and a.get("seed") == b.get("seed"):
            counts_a, counts_b = entry_a["counts_per_op"], entry_b["counts_per_op"]
            differing = sorted(k for k in counts_a if counts_a[k] != counts_b.get(k))
            if differing:
                bad = True
                for key in differing:
                    lines.append(f"   count {key}: {counts_a[key]} vs {counts_b.get(key)}  worse")
            else:
                lines.append(f"   {len(counts_a)} per-operation counts identical")
    return lines, bad


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 -m perfbench compare A.json B.json", file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    lines, bad = compare(*documents)
    print("\n".join(lines))
    print("worse" if bad else "no metric worse")
    return 1 if bad else 0
