"""Plain-text table rendering for the benchmark harness.

Every experiment prints its results as an aligned monospace table (the shape
of the paper's analytical claims), via :func:`format_table`.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

__all__ = [
    "format_table",
    "format_cell",
    "format_phase_breakdown",
    "format_campaign",
    "fit_power_law",
]


def format_cell(value: Any) -> str:
    """Render one table cell: floats sensibly rounded, big numbers grouped."""
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    *,
    title: str | None = None,
) -> str:
    """Render an aligned text table."""
    rendered = [[format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_phase_breakdown(
    source: Any, *, title: str | None = "per-phase latency breakdown"
) -> str:
    """Render the observability layer's latency series as an aligned table.

    ``source`` is either an :class:`~repro.obs.Instrumentation` handle or a
    plain ``{series: LatencyHistogram}`` mapping; series are the ``kind.name``
    histogram keys, so a strong write shows up as ``phase.READ-TS`` /
    ``phase.PREPARE`` / ``phase.WRITE`` rows — the paper's §3.3 per-phase
    cost model as measured.
    """
    histograms: Mapping[str, Any] = (
        source if isinstance(source, Mapping) else source.histograms
    )
    rows = [
        [
            series,
            hist.count,
            hist.mean,
            hist.quantile(0.5),
            hist.quantile(0.95),
            hist.maximum if hist.maximum is not None else 0.0,
        ]
        for series, hist in sorted(histograms.items())
    ]
    return format_table(
        ["series", "count", "mean", "p50", "p95", "max"], rows, title=title
    )


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares exponent ``k`` of ``y ~ c * x^k`` (log-log fit).

    Used by the complexity experiments to verify that messages grow ~ |Q|^1
    and bytes ~ |Q|^2.
    """
    import math

    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two matching points")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mean_x = sum(lx) / n
    mean_y = sum(ly) / n
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(lx, ly))
    var = sum((a - mean_x) ** 2 for a in lx)
    return cov / var


def format_campaign(summary: Mapping[str, Any]) -> str:
    """Render a chaos campaign summary (sim or TCP) as aligned tables.

    Accepts the deterministic dicts produced by
    :meth:`repro.chaos.engine.CampaignResult.summary` and
    :func:`repro.chaos.tcp.run_tcp_campaign`; the rendering introduces no
    wall-clock or path content, so identical summaries format identically.
    """
    if summary.get("format") == "repro-chaos-tcp/1":
        rows = [
            [
                ep["variant"],
                "ok" if ep["ok"] else ",".join(ep["violations"]),
                ep["operations"],
                ep["reconnects"],
                sum(s.get("chunks_dropped", 0) for s in ep["proxy"].values()),
                sum(s.get("chunks_truncated", 0) for s in ep["proxy"].values()),
                sum(s.get("garbage_injected", 0) for s in ep["proxy"].values()),
                sum(s.get("resets", 0) for s in ep["proxy"].values()),
            ]
            for ep in summary["episodes"]
        ]
        lines = [
            format_table(
                ["variant", "verdict", "ops", "redials", "dropped",
                 "truncated", "garbage", "resets"],
                rows,
                title=f"TCP chaos campaign (seed {summary['seed']})",
            )
        ]
        # A violating episode's evidence: the faults it fired and the
        # client history the oracles judged.
        for ep in summary["episodes"]:
            if ep["ok"]:
                continue
            lines.append(f"{ep['variant']} violates {','.join(ep['violations'])}")
            lines.extend(
                f"  fault {json.dumps(spec, sort_keys=True)}"
                for spec in ep["faults"]
            )
            lines.extend(
                f"  {event['time']:.6f} {event['client']} "
                + (
                    f"invoke {event['invoke']} {event['arg']!r}"
                    if "invoke" in event
                    else f"return {event['return']!r}"
                )
                for event in ep["history"]
            )
        return "\n".join(lines)

    rows = [
        [
            ep["episode"],
            ep["variant"],
            ep["store"],
            ep["attack"] or "-",
            ",".join(ep["byzantine"]) or "-",
            ep["faults"],
            ep["clients"],
            "ok" if ep["ok"] else ",".join(ep["violated"]),
            ep["operations"],
            ep["messages_dropped"],
            ep["messages_reordered"],
        ]
        for ep in summary["episodes_detail"]
    ]
    lines = [
        format_table(
            ["ep", "variant", "store", "attack", "byzantine", "faults",
             "clients", "verdict", "ops", "dropped", "reordered"],
            rows,
            title=(
                f"chaos campaign (seed {summary['seed']}, "
                f"{summary['episodes']} episodes)"
            ),
        )
    ]
    totals = summary["totals"]
    lines.append(
        f"totals: {totals['operations']} operations, "
        f"{totals['messages_sent']} messages "
        f"({totals['messages_dropped']} dropped, "
        f"{totals['messages_reordered']} reordered), "
        f"{totals['replica_crashes']} replica crashes"
    )
    if summary["violations"]:
        by_oracle = ", ".join(
            f"{name}={count}"
            for name, count in summary["violations_by_oracle"].items()
        )
        lines.append(
            f"VIOLATIONS: {summary['violations']} episodes ({by_oracle})"
        )
        for entry in summary["minimized"]:
            failed = [k for k, ok in entry["verdicts"].items() if not ok]
            lines.append(
                f"  minimized episode {entry['episode']}: "
                f"{entry['faults']} faults, violates {','.join(failed)}"
            )
    else:
        lines.append("violations: none")
    return "\n".join(lines)
