"""``deploy()``: one declarative spec, one uniform handle, three transports.

``deploy(DeploymentSpec(...))`` stands up one replica group on any of three
transports and returns the same handle for each:

* ``transport="sim"``      — the deterministic virtual-time simulator.
* ``transport="tcp"``      — in-process asyncio servers over loopback,
  one :class:`ReplicaGroup`.
* ``transport="process"``  — one OS process per worker via
  :class:`~repro.cluster.process.ProcessCluster`.

Every handle offers the same surface: ``run_script`` (a FIFO of operations
executed ``spec.pipeline`` at a time), ``write``/``read`` convenience
wrappers, ``fingerprints`` (per-replica durable-state digests, the
cross-transport equivalence oracle), ``verification_stats``, and ``close``.
The real transports drive their asyncio machinery on a private background
loop thread, so the handle itself is synchronous everywhere.

:class:`ReplicaGroup` is the socket front door underneath: every replica
group on real listeners in this package — ``TcpDeployment``, each
``repro serve`` worker, the TCP chaos campaign and the TCP load harness —
is built from a spec by it, and it alone constructs ``ReplicaServer``.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import threading
from itertools import repeat
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.cluster.process import ProcessCluster, replica_data_dir
from repro.cluster.spec import DeploymentSpec
from repro.core.config import SystemConfig, Variant
from repro.core.replica import BftBcReplica
from repro.core.verification import VerificationStats
from repro.errors import QuorumConfigError
from repro.net.asyncio_transport import ReplicaServer
from repro.net.mux import OpRecord, PipelinedClient
from repro.obs.instrumentation import Instrumentation

__all__ = [
    "ReplicaGroup",
    "Deployment",
    "SimDeployment",
    "TcpDeployment",
    "ProcessDeployment",
    "deploy",
]


class Deployment:
    """The uniform handle; concrete transports fill in the private hooks."""

    def __init__(self, spec: DeploymentSpec) -> None:
        self.spec = spec
        self._temp_dir: Optional[str] = None

    def _data_dir(self, prefix: str) -> str:
        """``spec.data_dir``, or a temporary one this handle owns."""
        if self.spec.data_dir is not None:
            return self.spec.data_dir
        self._temp_dir = tempfile.mkdtemp(prefix=prefix)
        return self._temp_dir

    def _remove_temp_dir(self) -> None:
        if self._temp_dir is not None:
            shutil.rmtree(self._temp_dir, ignore_errors=True)

    # -- uniform surface -----------------------------------------------------

    def run_script(
        self, script: Sequence[tuple[str, Any]]
    ) -> list[OpRecord]:
        """Run ``[(kind, value), ...]`` with up to ``spec.pipeline`` in flight.

        Returns one record per operation, in submission order.
        """
        raise NotImplementedError

    def write(self, value: Any) -> Any:
        """One write; returns the committed timestamp."""
        return self.run_script([("write", value)])[0].result

    def read(self) -> Any:
        """One read; returns the value."""
        return self.run_script([("read", None)])[0].result

    def fingerprints(self) -> dict[str, str]:
        """Per-replica durable-state digests (the equivalence oracle)."""
        raise NotImplementedError

    def verification_stats(self) -> Optional[VerificationStats]:
        """The shared verification counters, when observable in-process."""
        return None

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SimDeployment(Deployment):
    """The virtual-time simulator behind the uniform surface."""

    def __init__(self, spec: DeploymentSpec, **cluster_kwargs: Any) -> None:
        super().__init__(spec)
        from repro.sim.runner import build_cluster
        from repro.storage import FileLogStore

        options: dict[str, Any] = dict(
            f=spec.f,
            variant=str(spec.variant),
            scheme=spec.scheme,
            seed=spec.seed,
        )
        if spec.instrumentation:
            options["instrumentation"] = Instrumentation()
        if spec.store == "file":
            data_dir = self._data_dir("repro-sim-")
            options["store_factory"] = lambda node_id: FileLogStore(
                Path(data_dir) / node_id.replace(":", "_"), fsync=spec.fsync
            )
        options.update(spec.sim_options)
        options.update(cluster_kwargs)
        self.cluster = build_cluster(**options)
        self._client_ops: dict[str, int] = {}

    def run_script(
        self, script: Sequence[tuple[str, Any]]
    ) -> list[OpRecord]:
        window = min(self.spec.pipeline, len(script)) or 1
        names = [f"pipe{i}" for i in range(window)]
        # Static round-robin deal: op i runs on logical client i % window.
        scripts: dict[str, list[tuple[str, Any]]] = {name: [] for name in names}
        for index, step in enumerate(script):
            scripts[names[index % window]].append(tuple(step))
        offsets = {
            name: len(self._results_of(name)) for name in names
        }
        self.cluster.run_scripts(
            {name: steps for name, steps in scripts.items() if steps}
        )
        records = []
        for index, (kind, value) in enumerate(script):
            name = names[index % window]
            position = offsets[name] + index // window
            _, result = self._results_of(name)[position]
            records.append(
                OpRecord(
                    index=index,
                    kind=kind,
                    value=value,
                    client=f"client:{name}",
                    result=result,
                )
            )
        return records

    def _results_of(self, name: str) -> list[tuple[str, Any]]:
        node = self.cluster.clients.get(f"client:{name}")
        return [] if node is None else node.results

    def fingerprints(self) -> dict[str, str]:
        return {
            node_id: replica.state_fingerprint()
            for node_id, replica in self.cluster.replicas.items()
        }

    def verification_stats(self) -> Optional[VerificationStats]:
        verifier = self.cluster.config.verifier
        return None if verifier is None else verifier.stats

    def close(self) -> None:
        self._remove_temp_dir()


class _LoopThread:
    """A private asyncio loop on a daemon thread; the sync/async bridge."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="deploy-loop", daemon=True
        )
        self.thread.start()

    def run(self, coro: Any, timeout: Optional[float] = None) -> Any:
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


class ReplicaGroup:
    """The replicas of one spec on real listeners: the socket front door.

    The only code that builds a ``ReplicaServer``.  A file-store replica
    journals under :func:`~repro.cluster.process.replica_data_dir` of
    ``spec.data_dir``; a memory one keeps its state machine in the object.
    Loop-agnostic: every method is a coroutine on the caller's loop.
    """

    def __init__(
        self, spec: DeploymentSpec, config: SystemConfig, node_ids: Sequence[str]
    ) -> None:
        self.spec = spec
        self.config = config
        self.node_ids = tuple(node_ids)
        self.instrumentation = (
            Instrumentation() if spec.instrumentation else None
        )
        self.servers: dict[str, ReplicaServer] = {}

    @classmethod
    async def start(
        cls,
        spec: DeploymentSpec,
        config: SystemConfig,
        *,
        node_ids: Optional[Sequence[str]] = None,
        ports: Optional[Sequence[int]] = None,
    ) -> "ReplicaGroup":
        """Listen for ``node_ids`` (default: all ``3f+1``) on ``ports``
        (default: ephemeral); a failed start stops what it started."""
        group = cls(spec, config, node_ids or config.quorums.replica_ids)
        try:
            for node_id, port in zip(group.node_ids, ports or repeat(0)):
                group.servers[node_id] = group._server(node_id, port)
                await group.servers[node_id].start()
        except BaseException:
            await group.stop()
            raise
        return group

    def _server(self, node_id: str, port: int) -> ReplicaServer:
        spec = self.spec
        replica_cls = Variant.coerce(spec.variant).replica_cls
        if spec.store == "file":
            return ReplicaServer.durable(
                node_id,
                self.config,
                replica_data_dir(spec.data_dir, self.node_ids, node_id),
                host=spec.host,
                port=port,
                replica_cls=replica_cls,
                fsync=spec.fsync,
                instrumentation=self.instrumentation,
            )
        replica = replica_cls(
            node_id, self.config, instrumentation=self.instrumentation
        )
        return ReplicaServer(replica, host=spec.host, port=port)

    @property
    def addrs(self) -> dict[str, tuple[str, int]]:
        return {
            node_id: (server.host, server.port)
            for node_id, server in self.servers.items()
        }

    @property
    def replicas(self) -> dict[str, BftBcReplica]:
        return {
            node_id: server.replica for node_id, server in self.servers.items()
        }

    async def crash(self, node_id: str) -> None:
        """Stop the listener, drop its connections, close its store."""
        server = self.servers[node_id]
        await server.stop()
        server.replica.store.close()

    async def recover(self, node_id: str) -> ReplicaServer:
        """Listen again on the same port.  A file-store replica is rebuilt
        from snapshot + WAL; a memory one resumes its state machine."""
        server = self.servers[node_id]
        if self.spec.store == "file":
            server = self.servers[node_id] = self._server(node_id, server.port)
        await server.start()
        return server

    async def stop(self) -> None:
        """Stop every listener and close every store (idempotent)."""
        for node_id in self.servers:
            await self.crash(node_id)


class _SocketDeployment(Deployment):
    """What the real transports share: the spec's configuration, a loop
    thread, and one pipelined client over the replicas' addresses.  A
    constructor that fails stops everything it started."""

    _pipe: Optional[PipelinedClient] = None

    def __init__(self, spec: DeploymentSpec) -> None:
        super().__init__(spec)
        # Every party mirrors the same configuration — deterministic key
        # derivation from the shared master seed is what makes signatures
        # verify across process boundaries.
        self.config = spec.make_config()
        self._loop = _LoopThread()
        try:
            self.addrs = self._start_hosts()
            client_cls = Variant.coerce(spec.variant).client_cls
            self._pipe = PipelinedClient(
                [
                    client_cls(f"client:pipe{i}", self.config)
                    for i in range(spec.pipeline)
                ],
                self.addrs,
            )
            self._loop.run(self._pipe.connect())
        except BaseException:
            self.close()
            raise

    def run_script(
        self, script: Sequence[tuple[str, Any]]
    ) -> list[OpRecord]:
        assert self._pipe is not None
        records = self._loop.run(self._pipe.run_script(list(script)))
        return sorted(records, key=lambda record: record.index)

    def _start_hosts(self) -> dict[str, tuple[str, int]]:
        """Stand up the replicas (servers or workers); their addresses."""
        raise NotImplementedError

    def _stop_hosts(self) -> None:
        """Stop whatever :meth:`_start_hosts` got as far as starting."""
        raise NotImplementedError

    def close(self) -> None:
        if self._pipe is not None:
            self._loop.run(self._pipe.close())
        self._stop_hosts()
        self._loop.stop()
        self._remove_temp_dir()


class TcpDeployment(_SocketDeployment):
    """In-process asyncio servers over loopback: one :class:`ReplicaGroup`."""

    group: Optional[ReplicaGroup] = None

    def _start_hosts(self) -> dict[str, tuple[str, int]]:
        spec = self.spec
        if spec.store == "file":
            spec = spec.with_(data_dir=self._data_dir("repro-tcp-"))
        self.group = self._loop.run(ReplicaGroup.start(spec, self.config))
        self.instrumentation = self.group.instrumentation
        if self.instrumentation is not None:
            assert self.config.verifier is not None
            self.instrumentation.attach_verification(self.config.verifier.stats)
        return self.group.addrs

    @property
    def servers(self) -> list[ReplicaServer]:
        assert self.group is not None
        return list(self.group.servers.values())

    def fingerprints(self) -> dict[str, str]:
        return {
            server.replica.node_id: server.replica.state_fingerprint()
            for server in self.servers
        }

    def verification_stats(self) -> Optional[VerificationStats]:
        verifier = self.config.verifier
        return None if verifier is None else verifier.stats

    def _stop_hosts(self) -> None:
        if self.group is not None:
            self._loop.run(self.group.stop())


class ProcessDeployment(_SocketDeployment):
    """One OS process per worker: the real multi-core cluster."""

    cluster: Optional[ProcessCluster] = None

    def __init__(
        self, spec: DeploymentSpec, *, auto_restart: bool = False
    ) -> None:
        self._auto_restart = auto_restart
        super().__init__(spec)

    def _start_hosts(self) -> dict[str, tuple[str, int]]:
        self.cluster = ProcessCluster(
            self.spec.with_(data_dir=self._data_dir("repro-cluster-")),
            auto_restart=self._auto_restart,
        )
        return self.cluster.start()

    def stop_workers(self) -> None:
        """Terminate the worker fleet (idempotent); connections drop."""
        if self.cluster is not None:
            self.cluster.stop()

    _stop_hosts = stop_workers

    def fingerprints(self) -> dict[str, str]:
        """Recover each worker's journal offline and digest its state.

        Stops the fleet first: a fingerprint of a live, mid-operation
        replica is not meaningful.  The recovery pass replays snapshot +
        WAL under the configuration the workers ran, so the digest
        reflects precisely what durably survived.
        """
        self.stop_workers()
        from repro.storage import FileLogStore

        assert self.cluster is not None
        replica_cls = Variant.coerce(self.spec.variant).replica_cls
        config = self.spec.make_config()
        digests: dict[str, str] = {}
        for worker in self.cluster.workers:
            for node_id in worker.node_ids:
                store = FileLogStore(
                    replica_data_dir(
                        worker.data_dir, worker.node_ids, node_id
                    ),
                    fsync="never",
                )
                replica = replica_cls(node_id, config, store=store)
                replica.recover()
                digests[node_id] = replica.state_fingerprint()
        return digests


def deploy(spec: DeploymentSpec, **kwargs: Any) -> Deployment:
    """Stand up the deployment a spec describes; returns its handle.

    Extra keyword arguments pass through to the transport's constructor
    (e.g. ``auto_restart=True`` for the process transport).
    """
    if spec.transport == "sim":
        return SimDeployment(spec, **kwargs)
    if spec.transport == "tcp":
        return TcpDeployment(spec, **kwargs)
    if spec.transport == "process":
        return ProcessDeployment(spec, **kwargs)
    raise QuorumConfigError(f"unknown transport {spec.transport!r}")
