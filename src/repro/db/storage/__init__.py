"""Durable storage with crash recovery.

Durability & recovery
---------------------
Sealed and tail shards persist as memmapped, per-block-CRC32-checksummed
column segment files (:mod:`repro.db.storage.segments`), committed under a
versioned, checksummed JSON manifest (:mod:`repro.db.storage.manifest`)
that is the *single* commit point of a checkpoint.  A checkpoint writes
what changed: a shard already durable in the directory and not appended to
since keeps its files, which the new manifest references.  Between checkpoints,
appends go through a fsynced write-ahead journal
(:mod:`repro.db.storage.journal`) whose records replay idempotently on
open.  Every write is atomic (temp file → fsync → rename), so a crash at
any injected point — ``manifest_write``, ``segment_write``,
``journal_append``, ``segment_read`` — leaves either the previous durable
generation fully intact or the new one fully committed, never a torn
hybrid.  Corrupt or torn artifacts fail with typed errors
(:class:`~repro.db.errors.CorruptSegmentError`,
:class:`~repro.db.errors.ManifestVersionError`), are quarantined rather
than deleted, and degrade gracefully to rebuild-from-source; everything is
counted in :func:`storage_counters` and surfaced through
``QueryService.stats().storage``.

Typical use::

    store = TableStore("/data/lending_club")
    store.save(table)                       # checkpoint (writes what changed)
    store.append(table, delta_columns)      # durable churn (WAL first)
    table, report = store.open(rebuild=build_from_source)
"""

from repro.db.storage.journal import JOURNAL_MAGIC, append_record, read_records
from repro.db.storage.manifest import MANIFEST_VERSION, read_manifest, write_manifest
from repro.db.storage.segments import (
    DEFAULT_BLOCK_BYTES,
    SEGMENT_MAGIC,
    atomic_write_bytes,
    live_memmap_count,
    read_segment,
    write_segment,
)
from repro.db.storage.store import (
    CatalogStore,
    RecoveryReport,
    TableStore,
    reset_storage_counters,
    storage_counters,
)

__all__ = [
    "CatalogStore",
    "DEFAULT_BLOCK_BYTES",
    "JOURNAL_MAGIC",
    "MANIFEST_VERSION",
    "RecoveryReport",
    "SEGMENT_MAGIC",
    "TableStore",
    "append_record",
    "atomic_write_bytes",
    "live_memmap_count",
    "read_manifest",
    "read_records",
    "read_segment",
    "reset_storage_counters",
    "storage_counters",
    "write_manifest",
    "write_segment",
]
