"""ChaosProxy byte-mangling and the TCP chaos campaign.

The proxy is chaos *infrastructure*, so it gets its own correctness tests
(a zero-rate profile must be a transparent TCP relay; a dead upstream must
refuse, not hang).  The campaign test is the ISSUE's acceptance bar: with
durable stores and a mid-episode server crash/recover, the full oracle
battery passes on every protocol variant through misbehaving proxies.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.chaos.oracles import ORACLES
from repro.chaos.tcp import TcpChaosConfig, run_tcp_campaign, run_tcp_episode
from repro.errors import SimulationError
from repro.net.chaos_proxy import ChaosProxy, ProxyProfile


def run(coro):
    return asyncio.run(coro)


async def _echo_server():
    async def handle(reader, writer):
        while True:
            chunk = await reader.read(65536)
            if not chunk:
                break
            writer.write(chunk)
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    return server, host, port


class TestProxyProfile:
    def test_rejects_negative_rates(self):
        with pytest.raises(SimulationError):
            ProxyProfile(drop_rate=-0.1)

    def test_rejects_rates_above_one(self):
        with pytest.raises(SimulationError):
            ProxyProfile(garbage_rate=1.5)

    def test_rejects_inverted_delay_window(self):
        with pytest.raises(SimulationError):
            ProxyProfile(min_delay=0.5, max_delay=0.1)


class TestChaosProxy:
    def test_zero_rate_profile_is_transparent(self):
        async def main():
            server, host, port = await _echo_server()
            proxy = ChaosProxy(host, port, profile=ProxyProfile(), seed=1)
            p_host, p_port = await proxy.start()

            reader, writer = await asyncio.open_connection(p_host, p_port)
            payload = bytes(range(256)) * 64
            writer.write(payload)
            await writer.drain()
            echoed = await reader.readexactly(len(payload))
            assert echoed == payload
            assert proxy.stats.connections == 1
            assert proxy.stats.chunks_forwarded >= 2  # both directions
            assert proxy.stats.chunks_dropped == 0
            assert proxy.stats.garbage_injected == 0

            writer.close()
            await proxy.stop()
            server.close()
            await server.wait_closed()

        run(main())

    def test_dead_upstream_refuses_by_closing(self):
        async def main():
            server, host, port = await _echo_server()
            server.close()
            await server.wait_closed()  # upstream is now gone

            proxy = ChaosProxy(host, port, seed=2)
            p_host, p_port = await proxy.start()
            reader, writer = await asyncio.open_connection(p_host, p_port)
            assert (await reader.read(64)) == b""  # closed, not hung
            assert proxy.stats.refused == 1
            writer.close()
            await proxy.stop()

        run(main())

    def test_drop_chunk_closes_connection(self):
        async def main():
            server, host, port = await _echo_server()
            proxy = ChaosProxy(
                host, port, profile=ProxyProfile(drop_rate=1.0), seed=3
            )
            p_host, p_port = await proxy.start()
            reader, writer = await asyncio.open_connection(p_host, p_port)
            writer.write(b"doomed bytes")
            await writer.drain()
            # The chunk is swallowed and the connection torn down — the
            # stream never silently desynchronises.
            assert (await reader.read(64)) == b""
            assert proxy.stats.chunks_dropped == 1
            writer.close()
            await proxy.stop()
            server.close()
            await server.wait_closed()

        run(main())


class TestTcpCampaignAcceptance:
    def test_all_variants_pass_oracles_through_chaos(self, tmp_path):
        """Durable servers + chaos proxies + a mid-episode crash_restart:
        every variant must pass the full battery."""
        summary = run_tcp_campaign(
            TcpChaosConfig(seed=4), data_dir=tmp_path
        )
        assert summary["ok"], [
            (ep["variant"], ep["violations"], ep["error"])
            for ep in summary["episodes"]
            if not ep["ok"]
        ]
        for ep in summary["episodes"]:
            assert ep["operations"] > 0
            # The proxies actually interfered, and the client recovered.
            meddling = sum(
                stats["chunks_dropped"]
                + stats["chunks_truncated"]
                + stats["garbage_injected"]
                + stats["resets"]
                for stats in ep["proxy"].values()
            )
            assert meddling > 0
            assert ep["reconnects"] > 0

    def test_crash_restart_is_a_catalogue_fault(self, tmp_path):
        """The mid-episode crash is recorded as a ``crash_restart`` spec the
        oracle battery reads and the summary lists; the verdicts are the
        same all-pass battery an unrecorded crash got."""
        result = run_tcp_episode(
            TcpChaosConfig(seed=9, corruption=False), "base", tmp_path
        )
        assert result.ok, (result.violations, result.error)
        assert set(result.verdicts) == set(ORACLES)
        [spec] = result.faults
        assert spec["op"] == "crash_restart"
        assert spec["down_for"] == TcpChaosConfig().down_for
        assert spec["node"] in result.proxy_stats
        assert result.to_summary()["faults"] == [spec]

    def test_single_episode_runner(self, tmp_path):
        result = run_tcp_episode(
            TcpChaosConfig(seed=9, crash_restart=False), "base", tmp_path
        )
        assert result.ok, (result.violations, result.error)
        assert set(result.verdicts) == set(ORACLES)
