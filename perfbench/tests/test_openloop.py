"""The open-loop driver times from the due time and counts a timeout as a miss."""

import asyncio
from types import SimpleNamespace

from perfbench.openloop import run_step


def _arrivals(*offsets):
    return [SimpleNamespace(index=i, at=at) for i, at in enumerate(offsets)]


def test_latency_runs_from_the_due_time_not_from_dispatch():
    # Three arrivals due together, one slot, 30 ms each: the third waited
    # 60 ms for its slot and that wait is part of what its caller saw.
    async def op(arrival):
        await asyncio.sleep(0.03)
        return arrival.index

    step = asyncio.run(run_step(
        _arrivals(0.0, 0.0, 0.0), op, rate=100, cap=1, timeout_s=1.0, slo_ms=50.0,
    ))
    latencies = sorted(step.latencies_ms)
    assert step.failed == 0 and step.arrivals == 3
    assert 25 <= latencies[0] < 55
    assert 55 <= latencies[1] < 85
    assert 85 <= latencies[2] < 130
    assert step.slot_waits == 2
    assert step.within_slo == 1          # only the first met 50 ms
    assert [result for _, result in step.results] == [0, 1, 2]


def test_a_timeout_is_a_failure_and_misses_the_limit():
    async def op(arrival):
        await asyncio.sleep(5.0 if arrival.index == 1 else 0.001)
        return "ok"

    step = asyncio.run(run_step(
        _arrivals(0.0, 0.01, 0.02), op, rate=100, cap=4, timeout_s=0.1, slo_ms=1000.0,
    ))
    assert step.arrivals == 3
    assert step.failed == 1
    assert step.within_slo == 2          # the timed-out arrival is a miss
    assert len(step.latencies_ms) == 3   # ... and still has a sample
    assert max(step.latencies_ms) >= 100
    assert not step.meets_slo(cap=4)     # 2 of 3 is under 95%


def test_an_operation_that_raises_is_counted_not_raised():
    async def op(arrival):
        raise ConnectionError("refused")

    step = asyncio.run(run_step(
        _arrivals(0.0), op, rate=1, cap=1, timeout_s=0.5, slo_ms=50.0,
    ))
    assert step.failed == 1 and step.within_slo == 0


def test_a_growing_backlog_marks_the_step_overloaded():
    async def op(arrival):
        await asyncio.sleep(0.02)

    # 40 arrivals in 40 ms against a 20 ms service time and one slot.
    step = asyncio.run(run_step(
        _arrivals(*[i * 0.001 for i in range(40)]), op,
        rate=1000, cap=1, timeout_s=5.0, slo_ms=50.0,
    ))
    assert step.backlog_end > step.backlog_mid > 0
    assert step.overloaded(cap=1)
    assert step.drain_s > 0.5
