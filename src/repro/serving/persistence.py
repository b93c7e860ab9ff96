"""Warm-state persistence: what makes a restart *warm*, saved with the data.

Durable segments (:mod:`repro.db.storage`) make a restarted service
*correct*; this module makes it *fast*.  Alongside each table's checkpoint
it persists the state a long-running service accretes:

* **plan-cache entries** — solved :class:`~repro.serving.plan_cache.CachedPlan`
  values keyed by canonical plan signature, so the first repeated query
  after a restart replays the solved plan instead of re-running column
  selection, sampling and the convex solve,
* **statistics reservoirs** — labelled samples and merged sample outcomes
  from the :class:`~repro.serving.stats_cache.StatisticsCache`: each one
  :class:`~repro.sampling.sampler.Evidence` array pair, pickled with its
  row ids narrowed to the smallest unsigned dtype that holds them,
* **group-index codes** — the factorised ``(values, codes)`` parts of every
  built :class:`~repro.db.index.GroupIndex` — one record per (table,
  column), sharded or not — restored without counting index builds,
* **UDF memo caches** — the paid-for ``row_id → bool`` evaluations, which is
  what lets a restored plan re-execute with **zero** fresh UDF calls.

Row ids and group codes are written in the narrowest unsigned dtype that
holds them (:func:`~repro.db.table.narrowed_ids` — one byte a row for codes
of up to 256 groups, where the live index holds eight) and widened to
``intp`` by whoever reads them, so the format version does not move: a blob
holding ``intp`` arrays restores through the same lines.

Everything is stamped with the owning table's
:meth:`~repro.db.table.Table.shard_signature` and restored only on an exact
match — warm state is an optimisation, never an alternative source of
truth, so a blob that is stale, torn or checksum-failing is quarantined and
skipped (counted, surfaced in ``stats().storage``), and the service simply
starts cold for that table.  So is a blob of another format version
(:data:`WARM_MAGIC`): ``RPWRM01`` blobs pickled evidence as per-group python
lists, and nothing of them is read.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from dataclasses import replace as _dc_replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

import numpy as np

from repro.db.errors import CorruptSegmentError
from repro.db.index import GroupIndex, MergedGroupIndex
from repro.db.sharding import ShardedTable
from repro.db.storage.segments import atomic_write_bytes
from repro.db.storage.store import CatalogStore, RecoveryReport, _count
from repro.db.table import Table, narrowed_ids

#: Warm-state blob magic (8 bytes, versioned).
WARM_MAGIC = b"RPWRM02\x00"

#: Basename of the per-table warm-state blob under ``<table>/warm/``.
WARM_STATE_FILE = "state.blob"

_CRC = struct.Struct("<I")

_T = TypeVar("_T")


def _write_blob(
    path: str, payload: _T, probed: Optional[Callable[[], _T]] = None
) -> _T:
    """Atomically write a CRC-wrapped pickle blob; returns what was written.

    ``payload`` is pickled once.  Only when that raises is ``probed()``
    asked for the payload again, with the records that cannot be pickled
    left out — the common, fully picklable state never pays for a probe.
    """
    try:
        data = pickle.dumps(payload, protocol=4)
    except Exception:
        if probed is None:
            raise
        payload = probed()
        data = pickle.dumps(payload, protocol=4)
    atomic_write_bytes(path, WARM_MAGIC + _CRC.pack(zlib.crc32(data)) + data)
    return payload


def _read_blob(path: str) -> Optional[object]:
    """Read a warm blob; ``None`` when absent, typed error when corrupt."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return None
    if len(raw) < len(WARM_MAGIC) + _CRC.size or raw[: len(WARM_MAGIC)] != WARM_MAGIC:
        raise CorruptSegmentError(path, "bad warm-state magic")
    (crc,) = _CRC.unpack_from(raw, len(WARM_MAGIC))
    data = raw[len(WARM_MAGIC) + _CRC.size :]
    if zlib.crc32(data) != crc:
        raise CorruptSegmentError(path, "warm-state checksum mismatch")
    try:
        return pickle.loads(data)
    except Exception as exc:
        raise CorruptSegmentError(path, f"unpicklable warm state: {exc}") from None


def _picklable(value: object) -> bool:
    try:
        pickle.dumps(value, protocol=4)
        return True
    except Exception:
        return False


# -- capture -----------------------------------------------------------------------
def _capture_plans(service, table: Table, probe: bool) -> List[Dict[str, Any]]:
    """Cached plans over ``table``, with table references stripped.

    Virtual-column plans are skipped: their working table is a derived copy
    whose bucketing depends on the training sample, so they cannot be
    rebound to the reopened base table.  Under ``probe`` (the blob did not
    pickle whole — see :func:`_write_blob`), entries that fail a pickle
    probe (e.g. a plan closed over an unpicklable strategy) are skipped too
    — persistence must never make :meth:`save_warm_state` fail.
    """
    captured: List[Dict[str, Any]] = []
    for signature, entry in service.plan_cache._cache.items():
        if entry.base_table is not table or entry.working_table is not table:
            continue
        if entry.used_virtual_column:
            continue
        stripped = _dc_replace(entry, working_table=None, base_table=None, restored=True)
        if probe and not _picklable((signature, stripped)):
            continue
        captured.append({"signature": signature, "entry": stripped})
    return captured


def _capture_stats(service, table: Table, probe: bool) -> List[Dict[str, Any]]:
    """Statistics-cache entries for ``table`` (labelled samples + outcomes).

    The cache keys on ``(id(table), tail)``; only the tail is persisted —
    restore re-keys against the reopened table object's identity.
    """
    captured: List[Dict[str, Any]] = []
    for cache_name, cache in (
        ("labeled", service.stats_cache.labeled_samples),
        ("outcome", service.stats_cache.sample_outcomes),
    ):
        for key, value in cache.items():
            stored_table, signature, rows, payload = value
            if stored_table is not table:
                continue
            if probe and not _picklable(payload):
                continue
            captured.append(
                {
                    "cache": cache_name,
                    "key_tail": key[1],
                    "signature": signature,
                    "rows": rows,
                    "payload": payload,
                }
            )
    return captured


def _capture_indexes(table: Table, probe: bool) -> List[Dict[str, Any]]:
    """The factorised ``(values, codes)`` of every group index built on
    ``table``; codes lie in ``[0, num_groups)``, so they pickle at one or two
    bytes a row where the live index holds eight."""
    captured: List[Dict[str, Any]] = []
    for (allow_hidden, column), index in table._group_indexes.items():
        record: Dict[str, Any] = {
            "column": column,
            "allow_hidden": allow_hidden,
            "values": list(index._values),
            "codes": narrowed_ids(index._codes),
        }
        if probe and not _picklable(record):
            continue
        captured.append(record)
    return captured


def _capture_udf_memos(service) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Every registered UDF's memo cache as sorted (row_ids, values) arrays."""
    memos: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for udf in service.catalog.udfs:
        if not udf.memoize:
            continue
        ids, values = udf.memo_arrays()
        if ids.size:
            memos[udf.name] = (narrowed_ids(ids), values)
    return memos


def _table_state(
    service, table: Table, memos: Dict[str, Any], probe: bool
) -> Dict[str, Any]:
    """One table's warm blob payload (``probe``: leave out what cannot pickle)."""
    return {
        "table": table.name,
        "signature": table.shard_signature(),
        "plans": _capture_plans(service, table, probe),
        "stats": _capture_stats(service, table, probe),
        "indexes": _capture_indexes(table, probe),
        "udf_memos": memos,
    }


def save_warm_state(service, store: CatalogStore) -> Dict[str, int]:
    """Checkpoint the catalog, then persist the service's warm state.

    The two are written together so every warm blob's signature stamp
    matches the durable generation it sits next to; a crash between the
    two leaves data durable and warm state stale — restore then skips the
    stale blob and starts cold, which is safe.
    """
    store.save(service.catalog)
    counts = {"plans": 0, "stats_entries": 0, "group_indexes": 0, "udf_memos": 0}
    memos = _capture_udf_memos(service)
    counts["udf_memos"] = len(memos)
    for name in service.catalog.table_names():
        state = partial(_table_state, service, service.catalog.table(name), memos)
        table_store = store.table_store(name)
        os.makedirs(table_store.warm_dir, exist_ok=True)
        written = _write_blob(
            os.path.join(table_store.warm_dir, WARM_STATE_FILE),
            state(probe=False),
            probed=partial(state, probe=True),
        )
        counts["plans"] += len(written["plans"])
        counts["stats_entries"] += len(written["stats"])
        counts["group_indexes"] += len(written["indexes"])
    return counts


# -- restore -----------------------------------------------------------------------
def _restore_index(table: Table, record: Dict[str, Any]) -> bool:
    """Reinstall a persisted group index, counting no index build; whether
    it was installed (a table that already holds the index keeps its own).

    One path for both table kinds: a sharded table's index is the same parts
    plus the table's shard boundaries.  Blobs written before 1.11 nest the
    parts under ``"merged"``, beside per-shard copies nothing reads.  Codes
    are widened to ``intp`` from whatever dtype the blob holds.
    """
    key = (record["allow_hidden"], record["column"])
    if key in table._group_indexes:
        return False
    parts = record.get("merged", record)
    sharded = isinstance(table, ShardedTable)
    index_class = MergedGroupIndex if sharded else GroupIndex
    index = index_class.__new__(index_class)
    index.table = table
    index.column = record["column"]
    if sharded:
        index._offsets = tuple(table.shard_offsets)
    index._install(
        list(parts["values"]), np.asarray(parts["codes"], dtype=np.intp), count_build=False
    )
    table._group_indexes[key] = index
    return True


def _restore_udf_memos(service, memos: Dict[str, Tuple[np.ndarray, np.ndarray]]) -> int:
    restored = 0
    for name, (ids, values) in memos.items():
        if name not in service.catalog.udfs:
            continue
        udf = service.catalog.udf(name)
        if not udf.memoize:
            continue
        udf.absorb_memo(ids, values)
        restored += 1
    return restored


def restore_warm_state(service, store: CatalogStore) -> Dict[str, int]:
    """Load persisted warm state into a freshly constructed service.

    Per-table blobs are validated (magic + CRC), signature-gated against the
    *reopened* table, and restored independently: one corrupt or stale blob
    is quarantined/skipped and counted in ``restore_errors`` without
    touching any other table's warm state — a failed restore can only ever
    cost warmth, never correctness.
    """
    counts = {
        "restored_plans": 0,
        "restored_stats_entries": 0,
        "restored_group_indexes": 0,
        "restored_udf_memos": 0,
        "restore_errors": 0,
    }
    memos_restored = False
    for name in service.catalog.table_names():
        table_store = store.table_store(name)
        path = os.path.join(table_store.warm_dir, WARM_STATE_FILE)
        try:
            payload = _read_blob(path)
        except CorruptSegmentError:
            _count("checksum_failures")
            table_store._quarantine(path, RecoveryReport())
            counts["restore_errors"] += 1
            continue
        if payload is None:
            continue
        try:
            table = service.catalog.table(name)
            if payload["signature"] != table.shard_signature():
                # Stale warm state (data reopened at a different durable
                # generation): starting cold is the safe answer.
                counts["restore_errors"] += 1
                continue
            for record in payload["indexes"]:
                counts["restored_group_indexes"] += _restore_index(table, record)
            for record in payload["stats"]:
                cache = (
                    service.stats_cache.labeled_samples
                    if record["cache"] == "labeled"
                    else service.stats_cache.sample_outcomes
                )
                if cache.enabled:
                    cache.put(
                        (id(table), record["key_tail"]),
                        (table, record["signature"], record["rows"], record["payload"]),
                    )
                    counts["restored_stats_entries"] += 1
            for record in payload["plans"]:
                entry = _dc_replace(
                    record["entry"], working_table=table, base_table=table
                )
                if service.plan_cache.enabled:
                    service.plan_cache.put(record["signature"], entry)
                    counts["restored_plans"] += 1
            if not memos_restored:
                counts["restored_udf_memos"] += _restore_udf_memos(
                    service, payload.get("udf_memos", {})
                )
                memos_restored = True
        except Exception:
            # Structurally unexpected payloads degrade to a cold start for
            # this table; never fail service construction over warmth.
            counts["restore_errors"] += 1
    return counts
