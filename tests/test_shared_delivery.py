"""Receivers of one frame share one decoded message; none may mutate it.

The simulated network decodes a frame once and hands every copy's receiver
the same object, which is safe only while no node changes a message in
place.  Messages are frozen dataclasses of tuples and bytes, but application
values can decode to dicts, so this records every delivery of seeded runs
of all four variants (dict and nested-tuple values among the writes) and
re-encodes each message at the end, bypassing the wire-bytes stash: any
in-place change would show as bytes that differ from the frame delivered.
"""

from __future__ import annotations

import pytest

from repro import LinkProfile, build_cluster
from repro.core.messages import message_to_wire
from repro.encoding import canonical_encode
from repro.net.simnet import SimNetwork


@pytest.fixture
def deliveries(monkeypatch):
    """``(frame bytes, message)`` for every delivery on any ``SimNetwork``."""
    log: list[tuple[bytes, object]] = []
    frame = [b""]
    deliver, register = SimNetwork._deliver, SimNetwork.register

    def recording_deliver(self, src, dst, encoded, kind):
        frame[0] = encoded
        deliver(self, src, dst, encoded, kind)

    def recording_register(self, node_id, handler):
        def recording(src, message):
            log.append((frame[0], message))
            handler(src, message)

        register(self, node_id, recording)

    monkeypatch.setattr(SimNetwork, "_deliver", recording_deliver)
    monkeypatch.setattr(SimNetwork, "register", recording_register)
    return log


def _script(client: int) -> list:
    steps: list = []
    for seq in range(4):
        steps.append(("write", {"client": client, "seq": seq, "tags": ("a", b"b")}))
        steps.append(("write", (client, (seq, ("nested", b"\x00")), "end")))
        steps.append(("read", None))
    return steps


@pytest.mark.parametrize("variant", ["base", "optimized", "strong", "fastpath"])
def test_shared_messages_are_never_mutated(variant, deliveries):
    cluster = build_cluster(
        f=1,
        variant=variant,
        seed=7,
        profile=LinkProfile(min_delay=0.002, max_delay=0.008),
    )
    cluster.run_scripts({f"c{i}": _script(i) for i in range(3)}, max_time=600)
    assert cluster.metrics.operations == 36
    shared = len(deliveries) - len({id(message) for _, message in deliveries})
    assert shared > 0
    for frame, message in deliveries:
        assert canonical_encode(message_to_wire(message)) == frame
