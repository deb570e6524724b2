"""Pluggable durable storage for replica state.

BFT-BC's safety argument (Lemma 1, Theorems 1-2) hinges on replicas never
forgetting ``plist``/``optlist`` entries, prepare certificates, or
``write_ts``.  This package provides the persistence layer those guarantees
stand on: a :class:`ReplicaStore` interface over an append-only log of
state-change records plus a snapshot, with two backends:

* :class:`MemoryStore` — records kept as live Python objects, zero-copy;
  the default for the simulator.  Models volatile RAM: a simulated crash
  wipes it.
* :class:`FileLogStore` — a length-prefixed canonical-codec write-ahead
  log with periodic snapshot compaction and configurable fsync policy.
  Every record and snapshot carries a domain-separated SHA-256 seal
  (:mod:`repro.storage.integrity`), so recovery distinguishes a *torn*
  final record (crash mid-append: truncate) from mid-file *corruption*
  (bit rot or hostile bytes: quarantine, count, and flag the store
  ``suspect`` so the replica repairs from peers).

The layer sits *below* ``repro.core`` (enforced by
``tools/check_layering.py``): stores traffic only in canonically encodable
wire values and never import protocol types.  The mapping between replica
state and wire records lives in :mod:`repro.core.persistence`.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "ReplicaStore": "repro.storage.base",
    "StorageStats": "repro.storage.base",
    "MemoryStore": "repro.storage.base",
    "FileLogStore": "repro.storage.filelog",
    "TAG_SIZE": "repro.storage.integrity",
    "WAL_RECORD_DOMAIN": "repro.storage.integrity",
    "SNAPSHOT_DOMAIN": "repro.storage.integrity",
    "integrity_tag": "repro.storage.integrity",
    "seal": "repro.storage.integrity",
    "unseal": "repro.storage.integrity",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
