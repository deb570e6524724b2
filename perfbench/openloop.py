"""An open-loop step: arrivals fire on schedule whether or not earlier ones
finished, and each is timed from when it was *due*, so a stall is charged
to every arrival it delays.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Sequence

from perfbench.stats import percentile

#: A step whose dispatcher ran later than this (p95) is not a valid measurement.
MAX_LATE_MS = 5.0


@dataclass
class StepResult:
    """One fixed-rate step, every time in milliseconds from the due time."""

    rate: float
    arrivals: int = 0
    #: ``(arrival, ms from its due time)`` for every arrival, failed ones too.
    timed: list[tuple[Any, float]] = field(default_factory=list)
    failed: int = 0
    within_slo: int = 0
    late_ms: list[float] = field(default_factory=list)
    slot_waits: int = 0
    drain_s: float = 0.0
    backlog_mid: int = 0
    backlog_end: int = 0
    results: list[tuple[Any, Any]] = field(default_factory=list)

    @property
    def latencies_ms(self) -> list[float]:
        return [ms for _, ms in self.timed]

    @property
    def late_ms_p95(self) -> float:
        return percentile(self.late_ms, 0.95) if self.late_ms else 0.0

    def overloaded(self, cap: int) -> bool:
        """The generator ran late, or the backlog was still growing at the end."""
        growing = self.backlog_end > 2 * cap and self.backlog_end > self.backlog_mid
        return self.late_ms_p95 > MAX_LATE_MS or growing

    def meets_slo(self, cap: int) -> bool:
        return (
            not self.overloaded(cap)
            and self.arrivals > 0
            and self.within_slo >= 0.95 * self.arrivals
        )


async def run_step(
    arrivals: Sequence[Any],
    op: Callable[[Any], Awaitable[Any]],
    *,
    rate: float,
    cap: int,
    timeout_s: float,
    slo_ms: float,
) -> StepResult:
    """Fire ``op(arrival)`` at ``arrival.at`` seconds from now, ``cap`` at a time.

    A wait for a slot counts in the latency.  An operation that raises, or
    is not answered within ``timeout_s`` of its due time, is a failure and
    misses the limit; its latency sample is the time until it was given up.
    The step returns once every arrival has finished (the drain).
    """
    step = StepResult(rate=rate, arrivals=len(arrivals))
    slots = asyncio.Semaphore(cap)
    clock = time.perf_counter
    started = clock()
    outstanding = 0

    async def run_one(arrival: Any, due: float) -> None:
        nonlocal outstanding
        try:
            if slots.locked():
                step.slot_waits += 1
            async with slots:
                remaining = due + timeout_s - clock()
                if remaining <= 0:
                    raise asyncio.TimeoutError
                result = await asyncio.wait_for(op(arrival), remaining)
        except Exception:  # a failed operation is counted, never raised
            step.failed += 1
        else:
            step.results.append((arrival, result))
            if (clock() - due) * 1e3 <= slo_ms:
                step.within_slo += 1
        finally:
            step.timed.append((arrival, (clock() - due) * 1e3))
            outstanding -= 1

    tasks = []
    middle = len(arrivals) // 2
    for position, arrival in enumerate(arrivals):
        due = started + arrival.at
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        step.late_ms.append(max(0.0, (clock() - due) * 1e3))
        if position == middle:
            step.backlog_mid = outstanding
        outstanding += 1
        tasks.append(asyncio.create_task(run_one(arrival, due)))
    step.backlog_end = outstanding
    last_due = started + arrivals[-1].at if arrivals else started
    if tasks:
        await asyncio.gather(*tasks)
    step.drain_s = max(0.0, clock() - last_due)
    return step
