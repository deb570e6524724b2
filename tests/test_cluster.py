"""The deployment API and the process cluster.

Fast tests cover the declarative :class:`DeploymentSpec` (validation, wire
round-trip, key-derivation seed), the worker data-directory layout rule,
the ``deploy()`` dispatcher over the sim transport, the worker command
line (spec in, the same spec parsed back out), the :class:`ReplicaGroup`
contract (crash / recover / stop), and that a deployment whose start fails
leaves nothing running.  The slow-marked tests spawn real OS processes: a
bare ``serve --port 0 --announce`` worker, the :class:`ProcessCluster`
lifecycle, the ``cluster up/status/down`` CLI, and the full
kill-and-recover smoke from ``tools/cluster_smoke.py``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main, spec_from_flags
from repro.cluster import (
    DeploymentSpec,
    ProcessCluster,
    ReplicaGroup,
    SimDeployment,
    deploy,
)
from repro.cluster.process import replica_data_dir, serve_command
from repro.core import BftBcClient
from repro.core.timestamp import Timestamp
from repro.errors import NetworkError, OperationFailedError, QuorumConfigError
from repro.net.asyncio_transport import AsyncClient
from repro.net.mux import PipelinedClient


class TestDeploymentSpec:
    def test_defaults_are_valid(self):
        spec = DeploymentSpec()
        assert spec.n == 4
        assert spec.transport == "sim"
        assert spec.master_seed == b"cluster-seed-0"

    def test_master_seed_tracks_seed(self):
        assert DeploymentSpec(seed=7).master_seed == b"cluster-seed-7"

    def test_with_returns_modified_copy(self):
        spec = DeploymentSpec(pipeline=2)
        wider = spec.with_(pipeline=8, transport="tcp")
        assert (wider.pipeline, wider.transport) == (8, "tcp")
        assert (spec.pipeline, spec.transport) == (2, "sim")

    def test_wire_round_trip(self):
        spec = DeploymentSpec(
            f=2,
            variant="optimized",
            seed=3,
            transport="process",
            store="file",
            fsync="never",
            pipeline=4,
            workers=5,
        )
        assert DeploymentSpec.from_wire(spec.to_wire()) == spec
        assert json.loads(json.dumps(spec.to_wire())) == spec.to_wire()

    def test_old_state_file_spec_still_loads(self):
        """A ``cluster.json`` written before the batching fields were
        removed still names a valid spec, so ``cluster status`` works on a
        fleet started by the older code."""
        spec = DeploymentSpec(
            f=2, variant="optimized", seed=3, transport="process", workers=5
        )
        old = {**spec.to_wire(), "batching": False, "batch_verify": True}
        assert DeploymentSpec.from_wire(old) == spec

    @pytest.mark.parametrize(
        "overrides",
        [
            {"transport": "udp"},
            {"store": "redis"},
            {"scheme": "ecdsa"},
            {"fsync": "sometimes"},
            {"f": 0},
            {"pipeline": 0},
            {"workers": 0},
            {"workers": 5},  # n = 4 at f=1
        ],
    )
    def test_invalid_fields_rejected(self, overrides):
        with pytest.raises(QuorumConfigError):
            DeploymentSpec(**overrides)


class TestReplicaDataDir:
    def test_single_replica_journals_in_the_worker_dir(self):
        assert replica_data_dir("/d/worker-0", ["replica:2"], "replica:2") == (
            "/d/worker-0"
        )

    def test_cohosted_replicas_get_subdirectories(self):
        path = replica_data_dir(
            "/d/worker-0", ["replica:0", "replica:3"], "replica:3"
        )
        assert path == str(Path("/d/worker-0") / "replica_3")


class TestDeploySim:
    def test_uniform_handle_over_sim(self):
        spec = DeploymentSpec(transport="sim", pipeline=2, seed=5)
        with deploy(spec) as dep:
            assert isinstance(dep, SimDeployment)
            records = dep.run_script([("write", f"v{i}") for i in range(6)])
            assert len(records) == 6
            assert all(isinstance(r.result, Timestamp) for r in records)
            ts = dep.write("last")
            assert ts == max(r.result for r in records).succ("client:pipe0")
            assert dep.read() == "last"
            prints = dep.fingerprints()
        assert len(prints) == spec.n
        assert len(set(prints.values())) == 1

    def test_unknown_transport_is_rejected_at_spec_time(self):
        with pytest.raises(QuorumConfigError, match="unknown transport"):
            DeploymentSpec(transport="carrier-pigeon")


class TestServeCommand:
    """``ProcessCluster`` spells a spec as a ``serve`` command line; the
    ``serve`` parser must read the same spec back out of it."""

    @pytest.mark.parametrize(
        "spec",
        [
            DeploymentSpec(f=1, variant="base", seed=0),
            DeploymentSpec(f=2, variant="optimized", scheme="rsa", seed=5),
            DeploymentSpec(
                f=1, variant="strong", fsync="never", host="127.0.0.2",
                workers=2, seed=9,
            ),
            DeploymentSpec(f=2, variant="fastpath", workers=2, seed=3),
        ],
        ids=["base-f1", "optimized-f2-rsa", "strong-fsync-never-host", "fastpath-f2"],
    )
    def test_worker_command_parses_back_to_the_spec(self, spec, tmp_path):
        spec = spec.with_(transport="process", data_dir=str(tmp_path))
        cluster = ProcessCluster(spec)
        assert len(cluster.workers) == (spec.workers or spec.n)
        master_seed = spec.make_config().registry.master_seed
        for worker in cluster.workers:
            command = serve_command(spec, worker)
            assert command[1:3] == ["-m", "repro"]
            args = build_parser().parse_args(command[3:])
            assert args.command == "serve"
            assert args.node_ids == list(worker.node_ids)
            parsed = spec_from_flags(args)
            for name in ("f", "variant", "scheme", "seed", "fsync", "host"):
                assert getattr(parsed, name) == getattr(spec, name), name
            assert parsed.data_dir == worker.data_dir
            assert parsed.make_config().registry.master_seed == master_seed
            assert args.peers_file == str(tmp_path / "cluster.json")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestFailedStartLeavesNothingRunning:
    def test_worker_that_never_announces_takes_the_fleet_down(
        self, tmp_path, monkeypatch
    ):
        spawned: list[int] = []
        announce = ProcessCluster._await_announcements

        def flaky(self, worker, deadline):
            spawned[:] = [w.pid for w in self.workers]
            if worker.index == 1:
                raise NetworkError("worker 1 never announced")
            announce(self, worker, deadline)

        monkeypatch.setattr(ProcessCluster, "_await_announcements", flaky)
        spec = DeploymentSpec(
            transport="process", workers=2, data_dir=str(tmp_path)
        )
        with pytest.raises(NetworkError, match="never announced"):
            deploy(spec)
        assert len(spawned) == 2 and all(spawned)
        assert not [pid for pid in spawned if _pid_alive(pid)]
        assert not (tmp_path / "cluster.json").exists()

    def test_tcp_deployment_that_cannot_connect_stops_its_group(
        self, monkeypatch
    ):
        groups: list[ReplicaGroup] = []
        start = ReplicaGroup.start.__func__

        async def recording_start(cls, *args, **kwargs):
            groups.append(await start(cls, *args, **kwargs))
            return groups[-1]

        async def refuse(self):
            raise NetworkError("no replica reachable")

        monkeypatch.setattr(ReplicaGroup, "start", classmethod(recording_start))
        monkeypatch.setattr(PipelinedClient, "connect", refuse)
        loops = sum(t.name == "deploy-loop" for t in threading.enumerate())
        with pytest.raises(NetworkError, match="no replica reachable"):
            deploy(DeploymentSpec(transport="tcp"))
        (group,) = groups
        assert all(server._server is None for server in group.servers.values())
        assert sum(t.name == "deploy-loop" for t in threading.enumerate()) == loops


class TestReplicaGroup:
    """The socket front door's contract: crash, recover, stop."""

    async def _write(self, group, value):
        """One write by a fresh client named after the value (a client that
        forgot its last certificate may not write again)."""
        client = AsyncClient(
            BftBcClient(f"client:{value[1]}", group.config), group.addrs,
            retransmit_interval=0.05,
        )
        await client.connect()
        try:
            return await client.write(value)
        finally:
            await client.close()

    def test_durable_crash_and_recover_restores_state_on_the_same_port(
        self, tmp_path
    ):
        spec = DeploymentSpec(
            transport="tcp", store="file", data_dir=str(tmp_path), seed=11
        )

        async def main():
            group = await ReplicaGroup.start(spec, spec.make_config())
            try:
                await self._write(group, ("v", 1))
                victim = "replica:2"
                addr, old = group.addrs[victim], group.servers[victim]
                await group.crash(victim)
                before = old.replica.state_fingerprint(include_signing_logs=True)
                reborn = await group.recover(victim)
                assert reborn is not old and group.servers[victim] is reborn
                assert group.addrs[victim] == addr
                assert (
                    reborn.replica.state_fingerprint(include_signing_logs=True)
                    == before
                )
                # The one layout rule: the replica journals where
                # replica_data_dir says.
                assert (tmp_path / "replica_2" / "wal.bin").exists()
                await self._write(group, ("v", 2))
            finally:
                await group.stop()

        asyncio.run(main())

    def test_memory_recover_keeps_the_state_machine(self):
        spec = DeploymentSpec(transport="tcp", seed=12)

        async def main():
            group = await ReplicaGroup.start(spec, spec.make_config())
            try:
                await self._write(group, ("v", 1))
                victim = "replica:1"
                addr, replica = group.addrs[victim], group.replicas[victim]
                await group.crash(victim)
                server = await group.recover(victim)
                assert server.replica is replica
                assert group.addrs[victim] == addr
                assert replica.data == ("v", 1)
                await self._write(group, ("v", 2))
            finally:
                await group.stop()

        asyncio.run(main())

    def test_crash_closes_the_store(self, tmp_path):
        spec = DeploymentSpec(
            transport="tcp", store="file", data_dir=str(tmp_path)
        )

        async def main():
            group = await ReplicaGroup.start(spec, spec.make_config())
            store = group.replicas["replica:0"].store
            assert not store._wal.closed
            await group.crash("replica:0")
            assert store._wal.closed
            assert not group.replicas["replica:1"].store._wal.closed
            await group.stop()

        asyncio.run(main())

    def test_stop_is_idempotent_even_after_a_crash(self, tmp_path):
        spec = DeploymentSpec(
            transport="tcp", store="file", data_dir=str(tmp_path)
        )

        async def main():
            group = await ReplicaGroup.start(spec, spec.make_config())
            await group.crash("replica:3")
            await group.stop()
            await group.stop()
            assert all(s._server is None for s in group.servers.values())
            assert all(r.store._wal.closed for r in group.replicas.values())

        asyncio.run(main())

    def test_failed_start_stops_what_it_started(self, monkeypatch):
        spec = DeploymentSpec(transport="tcp")
        busy = socket.socket()
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        taken = busy.getsockname()[1]
        seen: list[ReplicaGroup] = []
        build = ReplicaGroup._server

        def recording(group, node_id, port):
            seen[:] = [group]
            return build(group, node_id, port)

        monkeypatch.setattr(ReplicaGroup, "_server", recording)

        async def main():
            with pytest.raises(OSError):
                await ReplicaGroup.start(
                    spec, spec.make_config(), ports=[0, taken, 0, 0]
                )

        try:
            asyncio.run(main())
        finally:
            busy.close()
        (group,) = seen
        assert list(group.servers) == ["replica:0", "replica:1"]
        assert all(s._server is None for s in group.servers.values())


class TestRedeployOnAUsedDataDir:
    @pytest.mark.xfail(
        strict=True,
        raises=OperationFailedError,
        reason=(
            "known liveness hole: socket deployments always name their "
            "pipeline clients client:pipe{i}, so a second handle on a used "
            "data_dir starts those identities with no write certificate "
            "while the replicas still hold the first handle's prepared "
            "entry; every replica discards the new prepare as plist-conflict "
            "until op_timeout.  How a restarted correct client proves its "
            "last write is open."
        ),
    )
    def test_a_second_handle_on_the_same_data_dir_can_write(self, tmp_path):
        spec = DeploymentSpec(
            transport="tcp", store="file", seed=1, pipeline=1, data_dir=str(tmp_path)
        )
        with deploy(spec) as first:
            first.write("first")
        with deploy(spec) as second:
            # The hole stalls rather than errs: fail after one second, not 30.
            second._pipe.op_timeout = 1.0
            second.write("second")


def _wait(predicate, timeout: float = 30.0, interval: float = 0.05) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(interval)


@pytest.mark.slow
class TestServeAnnounce:
    def test_port_zero_announces_ephemeral_address(self, tmp_path):
        """``serve --port 0 --announce`` prints a JSON line per replica and
        accepts connections on the announced port."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "replica:0",
                "--data-dir", str(tmp_path), "--port", "0", "--announce",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            assert process.stdout is not None
            event = json.loads(process.stdout.readline())
            assert event["event"] == "listening"
            assert event["node_id"] == "replica:0"
            assert event["port"] > 0
            with socket.create_connection(
                (event["host"], event["port"]), timeout=5
            ):
                pass
        finally:
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=10)


@pytest.mark.slow
class TestProcessCluster:
    def test_lifecycle_and_restart(self, tmp_path):
        cluster = ProcessCluster(
            DeploymentSpec(f=1, seed=2, data_dir=str(tmp_path), workers=2),
            auto_restart=True,
        )
        with cluster:
            addrs = cluster.addrs
            assert len(addrs) == 4
            assert ProcessCluster.read_state(str(tmp_path)) is not None
            victim = cluster.worker_for("replica:0")
            before = dict(victim.addrs)
            cluster.kill("replica:0")
            _wait(lambda: victim.restarts >= 1 and victim.alive)
            # The supervisor re-requests the originally announced ports so
            # the other processes' address books stay valid.
            assert victim.addrs == before
            assert cluster.crashes >= 1
            statuses = cluster.status()
            assert all(row["alive"] for row in statuses)
        assert ProcessCluster.read_state(str(tmp_path)) is None
        for worker in cluster.workers:
            assert not worker.alive


@pytest.mark.slow
class TestClusterCli:
    def test_up_status_down(self, tmp_path, capsys):
        data_dir = str(tmp_path)
        assert main(["cluster", "up", "--data-dir", data_dir,
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "replica:0 listening on" in out
        assert "cluster.json" in out
        try:
            assert main(["cluster", "status", "--data-dir", data_dir,
                         "--json"]) == 0
            state = json.loads(capsys.readouterr().out)
            assert {w["index"] for w in state["workers"]} == {0, 1}
            # The state file records the spec `cluster up` started.
            assert DeploymentSpec.from_wire(state["spec"]) == DeploymentSpec(
                transport="process", store="file", data_dir=data_dir, workers=2
            )
            assert main(["cluster", "status", "--data-dir", data_dir]) == 0
            table = capsys.readouterr().out
            assert "replica:3" in table and "up" in table
        finally:
            assert main(["cluster", "down", "--data-dir", data_dir]) == 0
        out = capsys.readouterr().out
        assert "terminated 2 worker(s)" in out
        assert not (tmp_path / "cluster.json").exists()
        # A second down finds nothing to manage.
        assert main(["cluster", "down", "--data-dir", data_dir]) == 1

    def test_status_without_state_fails(self, tmp_path, capsys):
        assert main(["cluster", "status", "--data-dir", str(tmp_path)]) == 1
        assert "no cluster state" in capsys.readouterr().err


@pytest.mark.slow
class TestClusterSmoke:
    def test_kill_and_recover_smoke(self, tmp_path):
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
        try:
            from cluster_smoke import run_smoke
        finally:
            sys.path.pop(0)
        result = run_smoke(
            ops=60, data_dir=str(tmp_path), verbose=False
        )
        assert result["ops"] == 60
        # One restart from the stage-1 kill, one from the corrupt-data-dir
        # kill of stage 2 (which also exercised quarantine + repair).
        assert result["restarts"] >= 2
        assert result["fingerprint"]
