"""The unified observability layer: spans, histograms, exporters, shims.

Covers the redesigned single-entry instrumentation API:

* span completeness — one full strong write produces exactly one op span
  and one span per protocol phase, correctly parented, on **both** the
  deterministic simulator and the asyncio TCP transport;
* latency histogram algebra — merge/percentile properties (hypothesis);
* exporters — JSON-lines spans and Prometheus-style text;
* the null fast path — disabled instrumentation allocates nothing;
* the ``Instrumentation.attach_*`` double-attach guard (previously a
  silent overwrite).
"""

from __future__ import annotations

import asyncio
import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    AsyncClient,
    BftBcReplica,
    DeploymentSpec,
    Instrumentation,
    StrongBftBcClient,
    build_cluster,
    make_system,
    read_script,
    write_script,
)
from repro.analysis import format_phase_breakdown
from repro.cluster import ReplicaGroup
from repro.errors import ReproError
from repro.obs import (
    NULL_SPAN,
    InMemorySpanRecorder,
    LatencyHistogram,
    ObservabilityError,
    render_prometheus,
    spans_to_jsonl,
)
from repro.sim import MetricsCollector

WRITE_PHASES = ("READ-TS", "PREPARE", "WRITE")


def spans_by_kind(spans):
    grouped = {}
    for span in spans:
        grouped.setdefault(span.kind, []).append(span)
    return grouped


class TestSpanCompletenessSim:
    def run_strong(self, writes=1, reads=0):
        instr = Instrumentation()
        cluster = build_cluster(
            f=1, variant="strong", seed=11, instrumentation=instr
        )
        node = cluster.add_client("w")
        node.run_script(write_script("client:w", writes) + read_script(reads))
        cluster.run(max_time=120)
        return instr

    def test_one_write_emits_every_phase_exactly_once(self):
        instr = self.run_strong(writes=1)
        grouped = spans_by_kind(instr.spans())
        ops = grouped["op"]
        assert [span.name for span in ops] == ["write"]
        phases = Counter(span.name for span in grouped["phase"])
        assert phases == Counter(WRITE_PHASES)

    def test_phase_spans_parent_to_the_op_span(self):
        instr = self.run_strong(writes=1)
        grouped = spans_by_kind(instr.spans())
        (op,) = grouped["op"]
        for phase in grouped["phase"]:
            assert phase.parent_id == op.span_id
            assert phase.trace_id == op.trace_id
            assert op.start <= phase.start <= phase.end <= op.end

    def test_read_emits_one_read_phase(self):
        instr = self.run_strong(writes=0, reads=1)
        grouped = spans_by_kind(instr.spans())
        assert [span.name for span in grouped["op"]] == ["read"]
        assert [span.name for span in grouped["phase"]] == ["READ"]

    def test_handler_spans_cover_every_request_kind(self):
        instr = self.run_strong(writes=1)
        grouped = spans_by_kind(instr.spans())
        handled = Counter(span.name for span in grouped["handler"])
        # 4 replicas (f=1) each handle every broadcast phase once: no
        # retransmits on the loss-free default profile.
        for kind in WRITE_PHASES:
            assert handled[kind] == 4, handled

    def test_histograms_record_virtual_time_series(self):
        instr = self.run_strong(writes=2, reads=1)
        assert instr.histograms["op.write"].count == 2
        assert instr.histograms["op.read"].count == 1
        for kind in WRITE_PHASES:
            assert instr.histograms[f"phase.{kind}"].count == 2
        # Virtual-time durations are positive and bounded by the run.
        assert 0 < instr.histograms["op.write"].mean < 120

    def test_op_span_records_phase_count(self):
        instr = self.run_strong(writes=1)
        (op,) = spans_by_kind(instr.spans())["op"]
        assert op.attrs["phases"] == 3


class TestSpanCompletenessAsyncio:
    def run_tcp_strong_write(self):
        async def main():
            config = make_system(f=1, seed=b"obs-tcp", strong=True)
            spec = DeploymentSpec(
                transport="tcp", variant="strong", instrumentation=True
            )
            group = await ReplicaGroup.start(spec, config)
            instr = group.instrumentation
            client = AsyncClient(
                StrongBftBcClient("client:w", config, instrumentation=instr),
                group.addrs,
            )
            await client.connect()
            await client.write(("client:w", 0, "tcp-payload"))
            await client.close()
            await group.stop()
            return instr

        return asyncio.run(main())

    def test_one_write_emits_every_phase_exactly_once(self):
        instr = self.run_tcp_strong_write()
        grouped = spans_by_kind(instr.spans())
        (op,) = grouped["op"]
        assert op.name == "write"
        phases = Counter(span.name for span in grouped["phase"])
        assert phases == Counter(WRITE_PHASES)
        for phase in grouped["phase"]:
            assert phase.parent_id == op.span_id
            assert phase.trace_id == op.trace_id

    def test_wall_clock_feeds_the_histograms(self):
        instr = self.run_tcp_strong_write()
        hist = instr.histograms["op.write"]
        assert hist.count == 1
        assert hist.mean > 0  # perf_counter durations, not virtual time


class TestHistogramProperties:
    durations = st.lists(
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False), max_size=60
    )

    @given(durations)
    @settings(max_examples=60, deadline=None)
    def test_count_total_and_bounds(self, values):
        hist = LatencyHistogram()
        hist.record_many(values)
        assert hist.count == len(values)
        assert hist.total == pytest.approx(sum(values))
        if values:
            assert hist.minimum == min(values)
            assert hist.maximum == max(values)
            assert hist.mean == pytest.approx(sum(values) / len(values))

    @given(durations)
    @settings(max_examples=60, deadline=None)
    def test_quantiles_are_monotone_and_bound_the_max(self, values):
        hist = LatencyHistogram()
        hist.record_many(values)
        qs = [hist.quantile(q) for q in (0.0, 0.5, 0.9, 0.99, 1.0)]
        assert qs == sorted(qs)
        if values:
            assert qs[-1] >= max(values) * (1 - 1e-9)

    @given(durations, durations)
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_recording_the_concatenation(self, a, b):
        merged = LatencyHistogram()
        merged.record_many(a)
        other = LatencyHistogram()
        other.record_many(b)
        merged.merge(other)

        combined = LatencyHistogram()
        combined.record_many(a + b)
        assert merged.counts == combined.counts
        assert merged.count == combined.count
        assert merged.total == pytest.approx(combined.total)
        for q in (0.5, 0.95, 1.0):
            assert merged.quantile(q) == combined.quantile(q)

    def test_merge_rejects_layout_mismatch(self):
        with pytest.raises(ReproError):
            LatencyHistogram().merge(LatencyHistogram(buckets=8))

    def test_overflow_is_counted_and_quantile_degrades_to_max(self):
        hist = LatencyHistogram(min_bound=1e-3, growth=2.0, buckets=4)
        hist.record(1e9)
        assert hist.overflow == 1
        assert hist.quantile(0.99) == 1e9


class TestExporters:
    def make_instr(self):
        instr = Instrumentation()
        cluster = build_cluster(f=1, variant="strong", seed=5,
                                instrumentation=instr)
        node = cluster.add_client("w")
        node.run_script(write_script("client:w", 1) + read_script(1))
        cluster.run(max_time=120)
        return instr

    def test_jsonl_round_trips_every_span(self):
        instr = self.make_instr()
        lines = spans_to_jsonl(instr.spans()).splitlines()
        assert len(lines) == len(instr.spans())
        decoded = [json.loads(line) for line in lines]
        names = {(d["kind"], d["name"]) for d in decoded}
        for kind in WRITE_PHASES:
            assert ("phase", kind) in names
        for record in decoded:
            assert record["end"] >= record["start"]

    def test_prometheus_rendering_shape(self):
        instr = self.make_instr()
        text = render_prometheus(instr.histograms, sources=instr.sources)
        assert "# TYPE repro_phase_read_ts_seconds histogram" in text
        assert 'repro_phase_read_ts_seconds_bucket{le="+Inf"}' in text
        assert "repro_op_write_seconds_count 1" in text
        assert text.endswith("\n")

    def test_phase_table_lists_series(self):
        instr = self.make_instr()
        table = format_phase_breakdown(instr.histograms)
        for series in ("phase.READ-TS", "phase.PREPARE", "phase.WRITE"):
            assert series in table


class TestNullFastPath:
    def test_disabled_handle_returns_the_null_singleton(self):
        instr = Instrumentation.off()
        assert instr.op_span("write", client="c") is NULL_SPAN
        assert instr.phase_span("WRITE", parent=NULL_SPAN) is NULL_SPAN
        assert instr.handler_span("WRITE", node="replica:0") is NULL_SPAN

    def test_disabled_wrappers_pass_through_untouched(self):
        instr = Instrumentation.off()
        sentinel = object()
        assert instr.wrap_verifier(sentinel) is sentinel
        assert instr.wrap_store(sentinel) is sentinel
        assert instr.wrap_store(None) is None

    def test_uninstrumented_cluster_records_nothing(self):
        cluster = build_cluster(f=1, seed=9)
        node = cluster.add_client("w")
        node.run_script(write_script("client:w", 1))
        cluster.run(max_time=120)
        assert cluster.instrumentation.spans() == []
        assert cluster.instrumentation.histograms == {}

    def test_null_span_is_inert(self):
        NULL_SPAN.set("k", 1)
        NULL_SPAN.incr("k")
        NULL_SPAN.end()
        assert NULL_SPAN.closed


class TestStoreBarrierTiming:
    """Group commit moves the barrier out of ``append`` and into the scope
    exit; the store proxy must still see it (it used to forward ``group()``
    to the inner store, whose exit called the inner, untimed ``sync``)."""

    def test_one_sync_sample_per_logging_message_and_none_in_append(
        self, tmp_path, monkeypatch
    ):
        import os

        from repro.storage import FileLogStore
        from tests.helpers import ProtocolKit

        now = [0.0]
        real_fsync = os.fsync

        def slow_fsync(fd):
            real_fsync(fd)
            now[0] += 1.0  # the only thing that takes time in this test

        monkeypatch.setattr(os, "fsync", slow_fsync)
        instr = Instrumentation(clock=lambda: now[0])
        config = make_system(f=1, seed=b"timed-store")
        replicas = [
            BftBcReplica(
                rid,
                config,
                store=FileLogStore(tmp_path / rid.replace(":", "_")),
                instrumentation=instr,
            )
            for rid in config.quorums.replica_ids
        ]
        ProtocolKit(config).full_write(replicas, ("v", 1))

        stats = [replica.store.stats for replica in replicas]
        # Per replica: PREPARE logs plist-set + spr, WRITE logs install +
        # swr, READ-TS logs nothing: four records under two barriers.
        assert [s.appends for s in stats] == [4] * 4
        assert [s.fsyncs for s in stats] == [2] * 4
        sync = instr.histograms["store.sync"]
        assert sync.count == 8
        assert sync.total == 8.0
        append = instr.histograms["store.append"]
        assert append.count == 16
        assert append.total == 0.0


class TestAttachGuards:
    """Stats sources attach through the Instrumentation handle only (the
    ``MetricsCollector.attach_*`` delegates are gone); a second attach
    raises instead of silently discarding the first source's counters."""

    def test_collector_reads_what_its_handle_attached(self):
        collector = MetricsCollector()
        stats = object()
        collector.instrumentation.attach_verification(stats)
        assert collector.verification is stats
        assert not hasattr(collector, "attach_verification")

    def test_double_attach_raises_instead_of_overwriting(self):
        collector = MetricsCollector()
        first = object()
        collector.instrumentation.attach_verification(first)
        with pytest.raises(ObservabilityError):
            collector.instrumentation.attach_verification(object())
        assert collector.verification is first

    def test_double_attach_guard_covers_every_source(self):
        instr = Instrumentation.off()
        attachers = [
            instr.attach_wire_cache,
            instr.attach_keys,
            instr.attach_sessions,
        ]
        for attach in attachers:
            attach(object())
            with pytest.raises(ObservabilityError):
                attach(object())

    def test_per_replica_attach_guards_per_replica(self):
        instr = Instrumentation.off()
        for attach in (instr.attach_storage, instr.attach_client_state):
            attach({"replica:0": object()})
            attach({"replica:1": object()})
            with pytest.raises(ObservabilityError):
                attach({"replica:0": object()})


class TestRecorderBounds:
    def test_recorder_drops_beyond_capacity(self):
        recorder = InMemorySpanRecorder(max_spans=2)
        instr = Instrumentation(recorder=recorder, clock=lambda: 0.0)
        for index in range(4):
            instr.op_span(f"op{index}", client="c").end()
        assert len(instr.spans()) == 2
        assert recorder.dropped == 2

    def test_drain_clears(self):
        recorder = InMemorySpanRecorder()
        instr = Instrumentation(recorder=recorder, clock=lambda: 0.0)
        instr.op_span("w", client="c").end()
        assert len(recorder.drain()) == 1
        assert instr.spans() == []
