"""Sharded scale-out for the BFT-BC register (ROADMAP item 1).

The paper (§3.2) generalises the single register to many objects; this
package generalises the single replica *group* to many.  Object ids map
onto shards through a consistent-hash ring (:mod:`repro.shard.ring`), each
shard is an independent 3f+1 replica group running the unchanged BFT-BC
state machines, and a versioned, quorum-signed :class:`ShardDirectory`
(:mod:`repro.shard.directory`) tells clients which replicas currently form
each group.

Online growth follows "Asynchronous Reconfiguration with Byzantine
Failures" (arXiv 2005.13499): there is no consensus on configurations —
a :class:`Reconfigurator` client collects a quorum of the *current*
members' signatures over the successor configuration and installs the
resulting directory entry at replicas and (lazily, via ``EPOCH-STALE``
replies) at clients.  New replicas bootstrap from 2f+1 peers with the
snapshot/WAL export of :mod:`repro.storage`, validated by recomputing
``DurableReplicaState.fingerprint()`` and the embedded prepare
certificate before any transferred state is adopted.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "HashRing": "repro.shard.ring",
    "ShardConfig": "repro.shard.directory",
    "DirectoryEntry": "repro.shard.directory",
    "ShardDirectory": "repro.shard.directory",
    "ShardReplica": "repro.shard.replica",
    "ShardRouter": "repro.shard.router",
    "Reconfigurator": "repro.shard.reconfig",
    "DirectoryRequest": "repro.shard.messages",
    "DirectoryReply": "repro.shard.messages",
    "ConfigSignRequest": "repro.shard.messages",
    "ConfigSignReply": "repro.shard.messages",
    "InstallEpochRequest": "repro.shard.messages",
    "InstallEpochAck": "repro.shard.messages",
    "StateTransferRequest": "repro.shard.messages",
    "StateTransferReply": "repro.shard.messages",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
