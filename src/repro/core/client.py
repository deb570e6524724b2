"""Client front-ends for the four protocol variants.

A client owns at most one in-flight operation (the model of §4.1 makes client
histories sequential), its last write certificate (needed in the next
PREPARE), and a nonce source.  It is sans-I/O like the replicas: callers
feed replies in via :meth:`BftBcClient.deliver` and pump retransmissions via
:meth:`BftBcClient.retransmit`.

Variants:

* :class:`BftBcClient` — base protocol (3-phase writes, Figure 1).
* :class:`OptimizedBftBcClient` — §6 (2-phase fast-path writes, hash
  tie-breaking reads).
* :class:`StrongBftBcClient` — §7 (justify certificates; requires a
  configuration with ``strong=True``).
* :class:`FastBftBcClient` — signature-free proofs of writing with a
  verified fallback to the signed protocol.

The BQS and Phalanx baselines' clients subclass :class:`BftBcClient` too and
override only the two hooks that build an operation, ``_write_op`` and
``_read_op``: one front-end drives every protocol here.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.config import SystemConfig
from repro.core.fast_operations import FastReadOperation, FastWriteOperation
from repro.core.operations import Operation, ReadOperation, Send, WriteOperation
from repro.core.optimized_operations import OptimizedWriteOperation
from repro.core.strong_operations import StrongWriteOperation
from repro.core.certificates import WriteCertificate
from repro.core.messages import Message
from repro.crypto.nonces import NonceSource
from repro.errors import ProtocolError
from repro.obs.instrumentation import Instrumentation

__all__ = [
    "BftBcClient",
    "OptimizedBftBcClient",
    "StrongBftBcClient",
    "FastBftBcClient",
]


class BftBcClient:
    """Base-protocol client: sequential writes and reads on one object."""

    write_op_cls: type[WriteOperation] = WriteOperation
    read_op_cls: type[ReadOperation] = ReadOperation
    hash_tie_break = False

    def __init__(
        self,
        node_id: str,
        config: SystemConfig,
        *,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        #: Observability handle; ``None`` keeps every span a no-op.
        self.instrumentation = instrumentation
        credential = config.registry.register(node_id)
        self._nonces = NonceSource(node_id, secret=credential.secret)
        #: The write certificate of this client's last completed write,
        #: submitted with the next PREPARE so replicas can clear its
        #: prepare-list entry (Figure 1, phase 2).
        self.write_cert: Optional[WriteCertificate] = None
        self.op: Optional[Operation] = None
        self.completed_ops: int = 0

    # -- starting operations ------------------------------------------------

    def begin_write(self, value: Any) -> list[Send]:
        """Start a write; returns the first batch of requests to send."""
        return self._begin(self._write_op(value, self._nonces.next()))

    def begin_read(self) -> list[Send]:
        """Start a read; returns the first batch of requests to send."""
        return self._begin(self._read_op(self._nonces.next()))

    def _write_op(self, value: Any, nonce: bytes) -> Operation:
        """The write operation this client's protocol runs."""
        return self.write_op_cls(
            self.node_id, self.config, value, nonce, self.write_cert
        )

    def _read_op(self, nonce: bytes) -> Operation:
        """The read operation this client's protocol runs."""
        return self.read_op_cls(
            self.node_id,
            self.config,
            nonce,
            hash_tie_break=self.hash_tie_break,
            write_cert=self.write_cert,
        )

    def _begin(self, op: Operation) -> list[Send]:
        if self.op is not None and not self.op.done:
            raise ProtocolError(
                f"client {self.node_id} already has an operation in flight"
            )
        self.op = op
        op.instrument(self.instrumentation)
        return op.start()

    # -- driving ------------------------------------------------------------

    def deliver(self, sender: str, message: Message) -> list[Send]:
        """Feed one incoming message to the in-flight operation."""
        if self.op is None or self.op.done:
            return []
        sends = self.op.on_message(sender, message)
        if self.op.done:
            self._on_op_complete(self.op)
        return sends

    def retransmit(self) -> list[Send]:
        """Periodic tick: retransmit the current phase to non-responders."""
        if self.op is None or self.op.done:
            return []
        return self.op.on_retransmit()

    def _on_op_complete(self, op: Operation) -> None:
        self.completed_ops += 1
        if isinstance(op, WriteOperation) and op.new_write_cert is not None:
            self.write_cert = op.new_write_cert

    # -- inspection -----------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self.op is not None and not self.op.done

    @property
    def last_result(self) -> Any:
        return None if self.op is None else self.op.result

    @property
    def last_phases(self) -> int:
        """Phases used by the most recent operation (experiment E1)."""
        return 0 if self.op is None else self.op.phases

    @property
    def verification_stats(self):
        """Hit/miss counters of the shared verification pipeline (E4d)."""
        return self.config.verifier.stats


class OptimizedBftBcClient(BftBcClient):
    """§6 client: merged phase-1/2 writes, hash tie-breaking reads."""

    write_op_cls = OptimizedWriteOperation
    hash_tie_break = True

    @property
    def last_write_fast_path(self) -> bool:
        """True if the most recent write skipped the explicit phase 2."""
        return isinstance(self.op, OptimizedWriteOperation) and self.op.fast_path


class FastBftBcClient(OptimizedBftBcClient):
    """Fast-path client: MAC-only writes, proof-aware reads.

    Inherits the §6 read tie-break; ``last_write_fell_back`` reports whether
    the most recent write abandoned the fast rounds for the signed protocol.
    """

    write_op_cls = FastWriteOperation
    read_op_cls = FastReadOperation

    @property
    def last_write_fast_path(self) -> bool:
        """True if the most recent write completed signature-free."""
        return isinstance(self.op, FastWriteOperation) and self.op.fast_path

    @property
    def last_write_fell_back(self) -> bool:
        """True if the most recent write fell back to the signed path."""
        return isinstance(self.op, FastWriteOperation) and self.op.fell_back


class StrongBftBcClient(BftBcClient):
    """§7 client: writes carry a justify certificate."""

    write_op_cls = StrongWriteOperation

    def __init__(
        self,
        node_id: str,
        config: SystemConfig,
        *,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        if not config.strong:
            raise ProtocolError(
                "StrongBftBcClient requires a configuration with strong=True"
            )
        super().__init__(node_id, config, instrumentation=instrumentation)
