"""Asyncio TCP transport for sharded deployments.

The shard-layer roles are sans-I/O like the core protocol objects, so the
real-network story is the same as :mod:`repro.net.asyncio_transport` with
three additions:

* :class:`ShardReplicaServer` hosts one :class:`~repro.shard.replica.ShardReplica`
  — object traffic, directory fetches (``DIR-REQ``), endorsement signing,
  epoch installs, and state-transfer serving all arrive as ordinary frames
  on the same listener.
* :class:`AsyncShardRouter` drives a :class:`~repro.shard.router.ShardRouter`
  over sockets: ``await write(obj, v)`` / ``await read(obj)`` route through
  the ring, and an ``EPOCH-STALE`` answer triggers the directory fetch and
  in-place client migration transparently inside the operation loop.
* :func:`bootstrap_over_tcp` and :class:`AsyncReconfigurator` run the two
  operational flows — a joining replica's state transfer from 2f+1 old
  members, and the sign/install epoch change — against live servers.

Connection handling is inherited wholesale: each role is driven by the
shared :func:`~repro.net.mux.drive` loop under its own node id on a
:class:`~repro.net.mux.MuxEndpoint`, so frames to broken connections
are dropped and retransmission recovers, per the §2 fair-loss model.
"""

from __future__ import annotations

from typing import Any

from repro.core.messages import Message
from repro.core.operations import Send
from repro.errors import NetworkError, OperationFailedError
from repro.net.asyncio_transport import ReplicaServer
from repro.net.mux import MuxEndpoint, drive
from repro.shard.reconfig import Reconfigurator
from repro.shard.replica import ShardReplica
from repro.shard.router import ShardRouter

__all__ = [
    "ShardReplicaServer",
    "AsyncShardRouter",
    "AsyncReconfigurator",
    "bootstrap_over_tcp",
]

#: Wall-clock seconds between retransmissions, and one flow's budget
#: (an operation, an epoch change, or a joiner's state transfer).
RETRANSMIT_INTERVAL = 0.2
TIMEOUT = 30.0


class ShardReplicaServer(ReplicaServer):
    """Hosts one shard member behind a TCP listener.

    The base server's frame loop already does the right thing — decode,
    ``replica.handle``, write back the reply — because
    :class:`~repro.shard.replica.ShardReplica` exposes the same
    ``handle``/``node_id``/``instrumentation`` surface as a core replica.
    The subclass exists to make the hosted type explicit and to surface
    shard-specific introspection.
    """

    def __init__(
        self, replica: ShardReplica, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        super().__init__(replica, host=host, port=port)  # type: ignore[arg-type]

    @property
    def shard(self) -> str:
        return self.replica.shard  # type: ignore[attr-defined]

    @property
    def epoch(self) -> int:
        return self.replica.epoch  # type: ignore[attr-defined]


class AsyncShardRouter:
    """Async facade over a :class:`~repro.shard.router.ShardRouter`.

    ``addrs`` must cover every replica the router could contact — all
    members of every shard, including ones that might appear through a
    directory refresh (address discovery is out of scope here, as it is
    for the single-group transport).
    """

    def __init__(
        self, router: ShardRouter, addrs: dict[str, tuple[str, int]]
    ) -> None:
        self.router = router
        self._endpoint = MuxEndpoint(addrs)

    async def write(self, obj: str, value: Any) -> Any:
        """Perform one write on ``obj``; returns the committed timestamp."""
        return await self._run_op(obj, self.router.begin_write(obj, value))

    async def read(self, obj: str) -> Any:
        """Perform one read on ``obj``; returns the value."""
        return await self._run_op(obj, self.router.begin_read(obj))

    async def close(self) -> None:
        await self._endpoint.close()

    async def _run_op(self, obj: str, initial_sends: list[Send]) -> Any:
        # ``retransmit`` covers lost frames AND stalled refreshes: it
        # re-issues both protocol phases and directory fetches.
        await drive(
            self._endpoint,
            self.router.node_id,
            initial_sends,
            done=lambda: not self.router.busy(obj),
            deliver=self.router.deliver,
            retransmit=self.router.retransmit,
            interval=RETRANSMIT_INTERVAL,
            timeout=TIMEOUT,
        )
        return self.router.result(obj)


class AsyncReconfigurator:
    """Runs one epoch change against live TCP servers."""

    def __init__(
        self, reconfigurator: Reconfigurator, addrs: dict[str, tuple[str, int]]
    ) -> None:
        self.reconfigurator = reconfigurator
        self._endpoint = MuxEndpoint(addrs)

    async def replace(self, remove: str, add: str) -> None:
        """Drive the sign + install phases to completion (or time out)."""
        reconfigurator = self.reconfigurator
        try:
            await drive(
                self._endpoint,
                reconfigurator.node_id,
                reconfigurator.begin_replace(remove, add),
                done=lambda: reconfigurator.done,
                deliver=reconfigurator.deliver,
                retransmit=reconfigurator.retransmit,
                interval=RETRANSMIT_INTERVAL,
                timeout=TIMEOUT,
            )
        except OperationFailedError:
            raise OperationFailedError(
                f"reconfiguration stuck in phase "
                f"{reconfigurator.phase!r} after {TIMEOUT}s"
            ) from None
        finally:
            await self._endpoint.close()


async def bootstrap_over_tcp(
    replica: ShardReplica, addrs: dict[str, tuple[str, int]]
) -> None:
    """Run a joining replica's state transfer against live servers.

    Sends ``XFER-REQ`` to the previous members, feeds the validated
    ``XFER-REPLY`` frames back into the replica, and returns once a quorum
    of transfers made it :attr:`~repro.shard.replica.ShardReplica.ready`.
    The replica can then be hosted by a :class:`ShardReplicaServer`.
    """
    if replica.ready:
        return

    def deliver(src: str, message: Message) -> list[Send]:
        reply = replica.handle(src, message)
        return [] if reply is None else [Send(dest=src, message=reply)]

    endpoint = MuxEndpoint(addrs)
    try:
        await drive(
            endpoint,
            replica.node_id,
            replica.begin_bootstrap(),
            done=lambda: replica.ready,
            deliver=deliver,
            retransmit=replica.bootstrap_retransmit,
            interval=RETRANSMIT_INTERVAL,
            timeout=TIMEOUT,
        )
    except OperationFailedError:
        raise NetworkError(
            f"state transfer for {replica.node_id!r} incomplete "
            f"after {TIMEOUT}s"
        ) from None
    finally:
        await endpoint.close()
