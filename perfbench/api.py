"""The one place perfbench touches ``repro``.

Everything a workload drives comes from the ``repro`` facade.  The facade
does not re-export the process-wide counter accessors, the cost model or
the functions the traced run wraps, and this benchmark may not edit
``src/``, so those few are reached by module path *here and nowhere else*:
the ``from repro.<module>`` lines below and the ``TRACE_TARGETS`` table.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

#: The checkout root: the directory that holds ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent

# The program under test is the tree beside this directory, never a copy
# of ``repro`` that happens to be installed.
if not (ROOT / "src" / "repro").is_dir():
    raise ImportError(f"no src/repro under {ROOT}")
sys.path.insert(0, str(ROOT / "src"))

_import_started = time.perf_counter()
import repro  # noqa: E402,F401

from repro import (  # noqa: E402
    AsyncClient,
    BftBcReplica,
    DeploymentSpec,
    FastBftBcReplica,
    FileLogStore,
    LinkProfile,
    LoadProfile,
    NamespaceWriters,
    OpenLoopGenerator,
    OptimizedBftBcClient,
    OptimizedBftBcReplica,
    ReplicaServer,
    deploy,
    make_system,
)
from repro.analysis import CostModel  # noqa: E402
from repro.core.messages import wire_cache_stats  # noqa: E402
from repro.encoding import encode_stats, intern_stats  # noqa: E402

#: Seconds this process spent importing ``repro``; part of ``setup_s``.
IMPORT_S = time.perf_counter() - _import_started

__all__ = [
    "ROOT",
    "IMPORT_S",
    "AsyncClient",
    "CostModel",
    "DeploymentSpec",
    "LinkProfile",
    "LoadProfile",
    "NamespaceWriters",
    "OpenLoopGenerator",
    "OptimizedBftBcClient",
    "OptimizedBftBcReplica",
    "ReplicaServer",
    "TRACE_TARGETS",
    "deploy",
    "encode_stats",
    "intern_stats",
    "make_system",
    "recover_offline",
    "replica_dir",
    "wire_cache_stats",
]

REPLICA_CLASSES = {
    "base": BftBcReplica,
    "optimized": OptimizedBftBcReplica,
    "fastpath": FastBftBcReplica,
}

#: What the traced run wraps: ``(layer, "module:attribute", kind)``.
#: ``sync`` spans nest; ``gen`` times each resumption of a generator;
#: ``async`` is a wall duration and never a parent.  A class attribute is
#: patched on the class and on every loaded subclass that overrides it.
TRACE_TARGETS = (
    ("encoding", "repro.encoding.canonical:canonical_encode", "sync"),
    ("encoding", "repro.encoding.canonical:canonical_decode", "sync"),
    ("encoding", "repro.encoding.interning:intern_encode", "sync"),
    ("encoding", "repro.encoding.codec:encode_frame", "sync"),
    ("encoding", "repro.encoding.codec:decode_frame", "sync"),
    ("encoding", "repro.encoding.codec:FrameDecoder.feed", "gen"),
    ("encoding", "repro.core.messages:message_wire_bytes", "sync"),
    ("encoding", "repro.core.messages:message_from_wire", "sync"),
    ("crypto", "repro.crypto.signatures:SignatureScheme.sign", "sync"),
    ("crypto", "repro.crypto.signatures:SignatureScheme.verify", "sync"),
    ("crypto", "repro.crypto.authenticators:MacAuthenticator.mac", "sync"),
    ("crypto", "repro.crypto.authenticators:MacAuthenticator.check", "sync"),
    ("crypto", "repro.crypto.commitments:make_opening", "sync"),
    ("crypto", "repro.crypto.commitments:make_commitment", "sync"),
    ("crypto", "repro.crypto.commitments:verify_opening", "sync"),
    ("crypto", "repro.crypto.commitments:make_mac_row", "sync"),
    ("crypto", "repro.crypto.commitments:row_mac_for", "sync"),
    ("crypto", "repro.crypto.hashing:digest_bytes", "sync"),
    ("crypto", "repro.crypto.hashing:digest", "sync"),
    ("crypto", "repro.crypto.hashing:hash_value", "sync"),
    ("core.verification", "repro.core.verification:Verifier.verify", "sync"),
    ("core.verification", "repro.core.verification:Verifier.verify_statement", "sync"),
    ("core.verification", "repro.core.verification:Verifier.verify_batch", "sync"),
    ("core.verification", "repro.core.verification:Verifier.validate_certificate", "sync"),
    ("core.replica", "repro.core.replica:BftBcReplica.handle", "sync"),
    ("core.client", "repro.core.client:BftBcClient.begin_write", "sync"),
    ("core.client", "repro.core.client:BftBcClient.begin_read", "sync"),
    ("core.client", "repro.core.client:BftBcClient.deliver", "sync"),
    ("core.client", "repro.core.client:BftBcClient.retransmit", "sync"),
    ("storage", "repro.storage.filelog:FileLogStore.append", "sync"),
    ("storage", "repro.storage.filelog:FileLogStore.sync", "sync"),
    ("storage", "repro.storage.filelog:FileLogStore.write_snapshot", "sync"),
    # filelog calls ``os.fsync`` through the module, so the barrier itself
    # is timed by wrapping the ``os`` attribute for the traced rep.
    ("storage", "os:fsync", "sync"),
    ("net", "repro.net.asyncio_transport:AsyncClient.connect", "async"),
    ("net", "repro.net.asyncio_transport:AsyncClient.close", "async"),
    ("net", "repro.net.mux:MuxEndpoint.send", "async"),
    ("sim", "repro.sim.scheduler:Scheduler.run", "sync"),
    ("sim", "repro.net.simnet:SimNetwork.send", "sync"),
)


def replica_dir(data_dir: "str | Path", node_id: str) -> Path:
    """Where ``node_id`` journals under a tcp data dir or a process worker
    that hosts several replicas (both name it ``replica_<i>``)."""
    return Path(data_dir) / node_id.replace(":", "_")


def recover_offline(variant: str, seed: int, directory: "str | Path", node_id: str):
    """Reopen one replica's data directory with nothing running and replay
    snapshot + WAL; returns the recovered replica (its store is closed)."""
    config = make_system(1, scheme="hmac", seed=b"cluster-seed-%d" % seed)
    config.registry.open_namespace("client:")
    store = FileLogStore(directory, fsync="never")
    try:
        replica = REPLICA_CLASSES[variant](node_id, config, store=store)
        replica.recover()
    finally:
        store.close()
    return replica
