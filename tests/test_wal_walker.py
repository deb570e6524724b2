"""``scrub()`` and ``load()`` read the WAL through one walker.

They used to spell the same frame loop twice; this pins that they cannot
disagree about what a given file means — clean, torn or corrupt, and how
many records are good — at every truncation offset and every byte flip.
"""

from __future__ import annotations

import pytest

from repro.storage import FileLogStore

RECORDS = [
    ("plist-set", "client:a", (1, "client:a"), b"\x01" * 32),
    ("swr", (1, "client:a")),
    ("install", {"k": [1, 2, 3]}, b""),
]


def _wal_bytes(tmp_path) -> bytes:
    store = FileLogStore(tmp_path / "seed")
    for record in RECORDS:
        store.append(record)
    store.close()
    return store.wal_path.read_bytes()


def _verdicts(directory, raw):
    """``(scrub's reading, load's reading)`` of the same WAL bytes."""
    directory.mkdir()
    (directory / "wal.bin").write_bytes(raw)
    store = FileLogStore(directory)
    report = store.scrub()
    _, records = store.load()
    stats = store.stats
    store.close()
    scrubbed = tuple(
        report[key]
        for key in ("records_verified", "torn_records", "corrupt_records")
    )
    loaded = (len(records), stats.torn_records_dropped, stats.corrupt_records)
    return scrubbed, loaded


def test_scrub_and_load_agree_at_every_truncation(tmp_path):
    raw = _wal_bytes(tmp_path)
    seen = set()
    for cut in range(len(raw) + 1):
        scrubbed, loaded = _verdicts(tmp_path / f"cut-{cut}", raw[:cut])
        assert scrubbed == loaded, cut
        assert scrubbed[2] == 0  # a truncation is never corruption
        seen.add(scrubbed[1])
    assert seen == {0, 1}  # both clean cuts (frame boundaries) and torn ones


@pytest.mark.parametrize("flip", [0x01, 0x80])
def test_scrub_and_load_agree_at_every_byte_flip(tmp_path, flip):
    raw = _wal_bytes(tmp_path)
    kinds = set()
    for offset in range(len(raw)):
        damaged = bytearray(raw)
        damaged[offset] ^= flip
        scrubbed, loaded = _verdicts(tmp_path / f"flip-{offset}", bytes(damaged))
        assert scrubbed == loaded, offset
        assert scrubbed[0] < len(RECORDS)  # the seal catches every flip
        kinds.add(scrubbed[1:])
    # A flipped length byte can masquerade as a torn tail; everything else
    # is corruption.  Never both, never neither.
    assert kinds <= {(1, 0), (0, 1)} and (0, 1) in kinds
