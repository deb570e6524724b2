"""Exporters: JSON-lines span dumps and Prometheus-style text rendering.

Both exporters read from an :class:`~repro.obs.Instrumentation` handle (or
raw span lists / histogram dicts) and produce plain text, so they work
identically for simulator runs (virtual-time spans) and asyncio
deployments (wall-clock spans).  The ``python -m repro trace`` and
``python -m repro metrics`` CLI commands are thin wrappers over these
functions.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Optional

from repro.obs.histograms import LatencyHistogram
from repro.obs.spans import Span

__all__ = [
    "spans_to_jsonl",
    "render_prometheus",
]


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """One JSON object per line, one line per finished span."""
    return "".join(
        json.dumps(span.to_dict(), sort_keys=True) + "\n" for span in spans
    )


def _metric_name(series: str) -> str:
    # "phase.READ-TS" -> "repro_phase_read_ts_seconds"
    slug = "".join(c if c.isalnum() else "_" for c in series).strip("_").lower()
    return f"repro_{slug}_seconds"


def render_prometheus(
    histograms: Mapping[str, LatencyHistogram],
    *,
    sources: Optional[Mapping[str, object]] = None,
) -> str:
    """Prometheus text exposition of every histogram (and source counters).

    Histograms render as the standard cumulative-``le`` triple
    (``_bucket``/``_sum``/``_count``); attached stats sources render their
    public integer/float attributes as gauges.
    """
    lines: list[str] = []
    for series in sorted(histograms):
        hist = histograms[series]
        name = _metric_name(series)
        lines.append(f"# HELP {name} Latency histogram for {series}")
        lines.append(f"# TYPE {name} histogram")
        for bound, cumulative in hist.cumulative_buckets():
            lines.append(f'{name}_bucket{{le="{bound:.9g}"}} {cumulative}')
        lines.append(f'{name}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{name}_sum {hist.total:.9g}")
        lines.append(f"{name}_count {hist.count}")
    for source_name, stats in sorted((sources or {}).items()):
        if isinstance(stats, Mapping):
            # Per-replica stats (storage): flatten to labelled gauges.
            for node_id, node_stats in sorted(stats.items()):
                lines.extend(
                    _render_gauges(source_name, node_stats, node=str(node_id))
                )
        else:
            lines.extend(_render_gauges(source_name, stats))
    return "\n".join(lines) + "\n" if lines else ""


def _render_gauges(source_name: str, stats: object, node: str = "") -> list[str]:
    lines: list[str] = []
    for attr in sorted(vars(type(stats)).get("__annotations__", ()) or _numeric_attrs(stats)):
        value = getattr(stats, attr, None)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        name = _metric_name(f"{source_name}.{attr}").removesuffix("_seconds")
        label = f'{{node="{node}"}}' if node else ""
        lines.append(f"{name}{label} {value}")
    return lines


def _numeric_attrs(stats: object) -> list[str]:
    return [
        attr
        for attr in dir(stats)
        if not attr.startswith("_")
        and isinstance(getattr(stats, attr, None), (int, float))
        and not isinstance(getattr(stats, attr, None), bool)
    ]
