"""`repro.obs` — the unified observability layer.

One :class:`Instrumentation` handle threads through
``ClusterOptions``, the client/replica constructors, and
:class:`~repro.net.asyncio_transport.ReplicaServer`; it produces
op/phase/handler :class:`Span` trees, bounded mergeable
:class:`LatencyHistogram` series, and feeds the exporters
(:func:`spans_to_jsonl`, :func:`render_prometheus`) behind the
``python -m repro metrics`` / ``trace`` CLI.  Layer 1: depends only on
:mod:`repro.errors`.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "Instrumentation": "repro.obs.instrumentation",
    "NULL_INSTRUMENTATION": "repro.obs.instrumentation",
    "ObservabilityError": "repro.obs.instrumentation",
    "Span": "repro.obs.spans",
    "SpanHandle": "repro.obs.spans",
    "NULL_SPAN": "repro.obs.spans",
    "SpanRecorder": "repro.obs.spans",
    "NullSpanRecorder": "repro.obs.spans",
    "InMemorySpanRecorder": "repro.obs.spans",
    "LatencyHistogram": "repro.obs.histograms",
    "DEFAULT_MIN_BOUND": "repro.obs.histograms",
    "DEFAULT_GROWTH": "repro.obs.histograms",
    "DEFAULT_BUCKETS": "repro.obs.histograms",
    "spans_to_jsonl": "repro.obs.export",
    "render_prometheus": "repro.obs.export",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
