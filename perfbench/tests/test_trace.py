"""Self-time arithmetic, and shims that leave no trace of themselves."""

import sys

import pytest

from perfbench import api
from perfbench.trace import Tracer, layer_self_seconds, self_times, total_seconds


def test_self_time_subtracts_direct_children_only():
    spans = [
        # id, layer, name, start, end, parent
        (0, "core.replica", "handle", 0.0, 10.0, -1),
        (1, "crypto", "verify", 1.0, 4.0, 0),
        (2, "encoding", "canonical_encode", 2.0, 3.0, 1),   # grandchild of 0
        (3, "storage", "append", 5.0, 9.0, 0),
        (4, "storage", "fsync", 6.0, 8.5, 3),
        (5, "encoding", "canonical_encode", 20.0, 21.0, -1),  # another root
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(4.0 - 2.5)
    layers = layer_self_seconds(spans)
    assert layers["encoding"] == pytest.approx(2.0)
    assert layers["storage"] == pytest.approx(4.0)
    # The parts sum to the roots' wall: nothing is counted twice.
    assert sum(layers.values()) == pytest.approx(10.0 + 1.0)
    assert total_seconds(spans, "storage", "fsync") == pytest.approx(2.5)


def _namespaces():
    """Every repro.* module and class dictionary, plus ``os.fsync``."""
    import os

    state = {("os", "fsync"): os.fsync}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in vars(module).items():
            state[(name, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    state[(name, key, attr)] = member
    return state


def test_install_and_uninstall_leave_every_namespace_identical():
    before = _namespaces()
    tracer = Tracer(api.TRACE_TARGETS)
    tracer.install()
    during = _namespaces()
    changed = [key for key in before if during[key] is not before[key]]
    assert len(changed) >= len(api.TRACE_TARGETS)
    # ``from repro.encoding import canonical_encode`` sites are rebound too.
    assert ("repro.encoding.interning", "canonical_encode") in changed
    assert ("repro.encoding", "canonical_encode") in changed
    with pytest.raises(RuntimeError):
        tracer.install()
    tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_spans_nest_and_generators_are_timed_per_resumption():
    from repro import encoding

    tracer = Tracer(api.TRACE_TARGETS)
    tracer.install()
    try:
        encoding.intern_encode(("perfbench-test", 1, b"never interned before"))
        frames = encoding.encode_frame(b"a") + encoding.encode_frame(b"b")
        assert list(encoding.FrameDecoder().feed(frames)) == [b"a", b"b"]
    finally:
        tracer.uninstall()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[2], []).append(span)
    outer = by_name["intern_encode"][0]
    inner = by_name["canonical_encode"][0]
    assert inner[5] == outer[0]                      # parent is the interning span
    assert outer[3] <= inner[3] <= inner[4] <= outer[4]
    assert len(by_name["FrameDecoder.feed"]) == 3    # two payloads and the stop
