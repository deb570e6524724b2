"""E13 (supplementary figure) — closed-loop throughput vs client count.

Virtual-time throughput of the replicated register as the number of
closed-loop clients grows.  Since replicas in the simulator have no
processing bottleneck (only network RTTs), throughput should scale ~linearly
with clients for all variants, with the optimized protocol ~50% above base
(2 phases vs 3) — the phase structure is the entire cost.
"""

from __future__ import annotations

from repro import LinkProfile, build_cluster
from repro.analysis import format_table
from repro.sim import write_script

from benchmarks.conftest import run_once

OPS_EACH = 10
DELAY = 0.005


def _throughput(variant: str, clients: int, seed: int = 1300) -> float:
    cluster = build_cluster(
        f=1,
        variant=variant,
        seed=seed,
        profile=LinkProfile(min_delay=DELAY, max_delay=DELAY),
    )
    scripts = {
        f"w{i}": write_script(f"client:w{i}", OPS_EACH) for i in range(clients)
    }
    cluster.run_scripts(scripts, max_time=600)
    return cluster.metrics.operations / cluster.scheduler.now


def test_e13_throughput_scaling(benchmark):
    def experiment():
        rows = []
        series: dict[str, dict[int, float]] = {"base": {}, "optimized": {}}
        for variant in ("base", "optimized"):
            for clients in (1, 2, 4, 8):
                tput = _throughput(variant, clients)
                series[variant][clients] = tput
                rows.append([variant, clients, tput])
        print()
        print(
            format_table(
                ["variant", "closed-loop clients", "writes/s (virtual)"],
                rows,
                title="E13: throughput scaling "
                "(network-bound simulator: phases are the whole cost)",
            )
        )
        return series

    series = run_once(benchmark, experiment)
    for variant, points in series.items():
        # More clients, more throughput (no server bottleneck modelled).
        assert points[8] > points[1] * 4, (variant, points)
    # The 3->2 phase reduction shows as ~1.5x at every scale.
    for clients in (1, 2, 4, 8):
        ratio = series["optimized"][clients] / series["base"][clients]
        assert 1.2 < ratio < 1.8, (clients, ratio)

