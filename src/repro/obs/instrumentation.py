"""The single-entry instrumentation API.

One :class:`Instrumentation` handle is the only object a deployment threads
through its components (``ClusterOptions.instrumentation``, the client and
replica constructors, :class:`~repro.net.asyncio_transport.ReplicaServer`).
It owns four things:

* **spans** — op/phase/handler intervals recorded through a
  :class:`~repro.obs.spans.SpanRecorder`;
* **latency histograms** — one bounded log-spaced
  :class:`~repro.obs.histograms.LatencyHistogram` per span name plus any
  sub-timing series (``verify.statement``, ``store.append``, …);
* **a clock** — virtual time under the simulator, wall clock on asyncio;
  the cluster binds it, callers never care which;
* **stats sources** — the counter blocks that used to be attached through
  ``MetricsCollector.attach_*`` (verification, wire cache, batching,
  per-replica storage), now registered here exactly once; double attachment
  raises instead of silently overwriting.

The disabled handle (:func:`Instrumentation.off`, shared singleton
:data:`NULL_INSTRUMENTATION`) short-circuits every span call to the shared
:data:`~repro.obs.spans.NULL_SPAN`, so uninstrumented deployments pay one
``enabled`` check per call site and nothing else — benchmark E17 pins the
enabled overhead below 5% and the disabled overhead at ~0.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable, Optional

from repro.errors import ReproError
from repro.obs.histograms import LatencyHistogram
from repro.obs.spans import (
    NULL_SPAN,
    InMemorySpanRecorder,
    NullSpanRecorder,
    Span,
    SpanHandle,
    SpanRecorder,
)

__all__ = [
    "Instrumentation",
    "NULL_INSTRUMENTATION",
    "ObservabilityError",
]


class ObservabilityError(ReproError):
    """The instrumentation API was misused (e.g. a double attach)."""


class Instrumentation:
    """One handle for spans, histograms, clock, and stats sources.

    Args:
        enabled: when False, span and timing calls are no-ops (the null
            fast path); sources may still be attached so legacy metrics
            accessors keep working on uninstrumented deployments.
        recorder: where finished spans go; defaults to an in-memory
            recorder when enabled, a null recorder otherwise.
        clock: returns the current time; defaults to wall clock
            (:func:`time.perf_counter`).  The simulator rebinds it to
            virtual time via :meth:`bind_clock`.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        recorder: Optional[SpanRecorder] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.enabled = enabled
        if recorder is None:
            recorder = InMemorySpanRecorder() if enabled else NullSpanRecorder()
        self.recorder = recorder
        self._clock_bound = clock is not None
        self.clock: Callable[[], float] = clock or time.perf_counter
        self.histograms: dict[str, LatencyHistogram] = {}
        #: Attached stats sources by name ("verification", "wire_cache",
        #: "batching"); "storage" maps replica id -> StorageStats.
        self.sources: dict[str, Any] = {}
        self._span_ids = itertools.count(1)
        self._op_ids = itertools.count(1)

    def __repr__(self) -> str:
        return (
            f"Instrumentation(enabled={self.enabled}, "
            f"series={len(self.histograms)})"
        )

    @classmethod
    def off(cls) -> "Instrumentation":
        """A disabled handle (fresh instance: sources are not shared)."""
        return cls(enabled=False, recorder=NullSpanRecorder())

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Adopt ``clock`` unless the caller already chose one explicitly.

        The cluster harness calls this with virtual time; a user who passed
        ``clock=`` to the constructor keeps their choice.
        """
        if not self._clock_bound:
            self.clock = clock

    # -- spans -------------------------------------------------------------

    def _finish_span(self, handle: SpanHandle, start: float) -> None:
        # Hot path: one clock read, one histogram update, one raw append.
        # Span materialisation is deferred to the recorder's read side.
        end = self.clock()
        key = handle.kind + "." + handle.name
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = LatencyHistogram()
        hist.record(end - start)
        self.recorder.record_raw(handle, start, end)

    def _span(
        self, name: str, kind: str, trace_id: str, parent_id: Optional[int]
    ) -> SpanHandle:
        return SpanHandle(
            name,
            kind,
            trace_id,
            next(self._span_ids),
            parent_id,
            self.clock(),
            self._finish_span,
        )

    def op_span(self, name: str, *, client: str) -> SpanHandle:
        """Open the root span of one client operation (a fresh op id)."""
        if not self.enabled:
            return NULL_SPAN
        trace_id = f"{client}/{name}/{next(self._op_ids)}"
        return self._span(name, "op", trace_id, None)

    def phase_span(self, name: str, *, parent: SpanHandle) -> SpanHandle:
        """Open one protocol-phase span under an operation span."""
        if not self.enabled:
            return NULL_SPAN
        if parent is NULL_SPAN:
            return self._span(name, "phase", f"-/{name}/{next(self._op_ids)}", None)
        return self._span(name, "phase", parent.trace_id, parent.span_id)

    def handler_span(self, name: str, *, node: str) -> SpanHandle:
        """Open one replica-handler span (grouped per node, no parent)."""
        if not self.enabled:
            return NULL_SPAN
        return self._span(name, "handler", node, None)

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instantaneous annotation as a zero-duration span.

        The chaos engine uses this to mark fault injections ("chaos.crash
        replica:0", …) on the same timeline as the op/phase spans, so a
        trace dump shows exactly which operations straddled a fault.
        """
        if not self.enabled:
            return
        handle = self._span(name, "event", name, None)
        for key, value in attrs.items():
            handle.set(key, value)
        handle.end()

    def spans(self) -> list[Span]:
        """Every finished span the recorder retained (oldest first)."""
        return list(getattr(self.recorder, "spans", []))

    # -- histograms --------------------------------------------------------

    def histogram(self, name: str) -> LatencyHistogram:
        """The named histogram, created on first use."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = LatencyHistogram()
        return hist

    def observe(self, name: str, duration: float) -> None:
        """Record one duration into the named histogram (no-op if disabled)."""
        if not self.enabled:
            return
        self.histogram(name).record(duration)

    # -- sub-timing proxies ------------------------------------------------

    def wrap_verifier(self, verifier: Any) -> Any:
        """Time a verifier's checks into ``verify.*`` histograms.

        Returns ``verifier`` untouched when disabled, so the uninstrumented
        hot path keeps its direct calls.
        """
        if not self.enabled or verifier is None:
            return verifier
        if isinstance(verifier, _TimedVerifier):
            return verifier
        return _TimedVerifier(verifier, self)

    def wrap_store(self, store: Any) -> Any:
        """Time a replica store's appends/snapshots into ``store.*`` series.

        ``None`` (no store chosen: the caller's default applies) and the
        disabled case pass straight through; re-wrapping is idempotent.
        """
        if not self.enabled or store is None:
            return store
        if isinstance(store, _TimedStore):
            return store
        return _TimedStore(store, self)

    # -- stats sources -----------------------------------------------------

    def attach(self, name: str, stats: Any) -> None:
        """Register a stats source under ``name``; double attach raises."""
        if name in self.sources:
            raise ObservabilityError(
                f"stats source {name!r} is already attached; "
                "attaching twice would silently discard the first counters"
            )
        self.sources[name] = stats

    def source(self, name: str) -> Any:
        """The attached source, or None."""
        return self.sources.get(name)

    def attach_verification(self, stats: Any) -> None:
        """Expose the deployment's verification-pipeline counters (E4d)."""
        self.attach("verification", stats)

    def attach_wire_cache(self, stats: Any) -> None:
        """Expose the encode-once wire-cache counters (E15)."""
        self.attach("wire_cache", stats)

    def attach_batching(self, stats: Any) -> None:
        """Expose the cross-object batching counters (E15)."""
        self.attach("batching", stats)

    def attach_storage(self, stats_by_replica: dict[str, Any]) -> None:
        """Expose per-replica storage counters (E16); per-id double attach raises."""
        storage = self.sources.setdefault("storage", {})
        for node_id, stats in stats_by_replica.items():
            if node_id in storage:
                raise ObservabilityError(
                    f"storage stats for {node_id!r} are already attached"
                )
            storage[node_id] = stats

    def attach_stabilization(self, stats_by_replica: dict[str, Any]) -> None:
        """Expose per-replica self-stabilization counters (E23): quarantine
        transitions, completed repairs, and self-audit ticks; per-id double
        attach raises.  The full :class:`~repro.core.replica.ReplicaStats`
        is narrowed to just those counters so the exporter does not
        re-publish every protocol counter under this source's name."""
        table = self.sources.setdefault("stabilization", {})
        for node_id, stats in stats_by_replica.items():
            if node_id in table:
                raise ObservabilityError(
                    f"stabilization stats for {node_id!r} are already attached"
                )
            table[node_id] = _StabilizationView(stats)

    def attach_keys(self, stats: Any) -> None:
        """Expose the key registry's lazy-derivation cache counters (E21)."""
        self.attach("keys", stats)

    def attach_sessions(self, stats: Any) -> None:
        """Expose the MAC authenticator's session-key cache counters (E21)."""
        self.attach("sessions", stats)

    def attach_client_state(self, stats_by_replica: dict[str, Any]) -> None:
        """Expose per-replica client-state spill/rehydrate counters (E21)."""
        table = self.sources.setdefault("client_state", {})
        for node_id, stats in stats_by_replica.items():
            if node_id in table:
                raise ObservabilityError(
                    f"client-state stats for {node_id!r} are already attached"
                )
            table[node_id] = stats


class _StabilizationView:
    """Live read-only view of one replica's self-stabilization counters."""

    __slots__ = ("_stats",)

    def __init__(self, stats: Any) -> None:
        self._stats = stats

    @property
    def quarantines(self) -> int:
        return self._stats.quarantines

    @property
    def repairs(self) -> int:
        return self._stats.repairs

    @property
    def self_audits(self) -> int:
        return self._stats.self_audits


class _TimedVerifier:
    """Duck-typed verifier proxy timing each check into histograms.

    The two histograms are resolved once at wrap time — they are stable
    objects inside the instrumentation's registry — so each verify pays
    two clock reads and one bucket update, nothing else.
    """

    __slots__ = ("_inner", "_instr", "_statement_hist", "_certificate_hist")

    def __init__(self, inner: Any, instr: Instrumentation) -> None:
        self._inner = inner
        self._instr = instr
        self._statement_hist = instr.histogram("verify.statement")
        self._certificate_hist = instr.histogram("verify.certificate")

    def verify_statement(self, signature: Any, statement: Any) -> bool:
        clock = self._instr.clock
        started = clock()
        ok = self._inner.verify_statement(signature, statement)
        self._statement_hist.record(clock() - started)
        return ok

    def certificate_valid(self, cert: Any) -> bool:
        clock = self._instr.clock
        started = clock()
        ok = self._inner.certificate_valid(cert)
        self._certificate_hist.record(clock() - started)
        return ok

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class _TimedGroup:
    """The proxy's own group scope: times the barrier the exit issues.

    The inner store commits from inside its own scope exit, where the
    proxy's timed :meth:`_TimedStore.sync` never sees it; so the exit is
    timed here and recorded as a ``store.sync`` sample whenever the
    store's fsync counter shows that it issued a barrier.
    """

    __slots__ = ("_store", "_inner_scope")

    def __init__(self, store: "_TimedStore") -> None:
        self._store = store
        self._inner_scope = store._inner.group()

    def __enter__(self) -> None:
        self._inner_scope.__enter__()

    def __exit__(self, *exc_info: Any) -> None:
        store = self._store
        stats = store._inner.stats
        before = stats.fsyncs
        clock = store._instr.clock
        started = clock()
        self._inner_scope.__exit__(*exc_info)
        if stats.fsyncs != before:
            store._sync_hist.record(clock() - started)


class _TimedStore:
    """Duck-typed replica-store proxy timing the durability calls."""

    __slots__ = ("_inner", "_instr", "_append_hist", "_load_hist",
                 "_snapshot_hist", "_sync_hist")

    def __init__(self, inner: Any, instr: Instrumentation) -> None:
        self._inner = inner
        self._instr = instr
        self._append_hist = instr.histogram("store.append")
        self._load_hist = instr.histogram("store.load")
        self._snapshot_hist = instr.histogram("store.snapshot")
        self._sync_hist = instr.histogram("store.sync")

    def group(self) -> _TimedGroup:
        """The proxy's scope, so the barrier lands in ``store.sync``; made
        per call, like the inner store's, so neither is in a cycle."""
        return _TimedGroup(self)

    def append(self, record: Any) -> None:
        clock = self._instr.clock
        started = clock()
        self._inner.append(record)
        self._append_hist.record(clock() - started)

    def load(self) -> Any:
        clock = self._instr.clock
        started = clock()
        result = self._inner.load()
        self._load_hist.record(clock() - started)
        return result

    def write_snapshot(self, state: Any) -> None:
        clock = self._instr.clock
        started = clock()
        self._inner.write_snapshot(state)
        self._snapshot_hist.record(clock() - started)

    def sync(self) -> None:
        clock = self._instr.clock
        started = clock()
        self._inner.sync()
        self._sync_hist.record(clock() - started)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __setattr__(self, name: str, value: Any) -> None:
        # The state layer writes store attributes through the proxy
        # (``snapshot_source``, ``suspect``); forward anything that is not
        # one of our own slots so the proxy stays transparent both ways.
        if name in _TimedStore.__slots__:
            object.__setattr__(self, name, value)
        else:
            setattr(self._inner, name, value)


#: Shared disabled handle used as the default by clients, replicas, and
#: operations constructed without instrumentation.  Never attach sources to
#: it — deployments that need sources build their own handle (the cluster
#: harness always does).
NULL_INSTRUMENTATION = Instrumentation.off()
