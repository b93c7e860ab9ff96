"""Warm-state persistence: what makes a restart *warm*, saved with the data.

Durable segments (:mod:`repro.db.storage`) make a restarted service
*correct*; this module makes it *fast*.  Beside the checkpoint it persists
what a long-running service accretes: every built group index's ``(values,
codes)``, restored without counting an index build; every UDF memo, which
lets a restored plan re-execute with **zero** fresh UDF calls; each
distinct :class:`~repro.sampling.sampler.Evidence` the caches hold; the
statistics-cache keys; and the plan-cache entries, so the first repeated
query replays its solved plan instead of re-planning.

It is written with the storage layer's own encoders, as one record per
warm directory — each table's ``<table>/warm/``, and the catalog's
``<storage_dir>/warm/`` beside ``CATALOG.json``::

    WARM.json                  the record (a CRC'd, versioned JSON manifest)
    w<serial>-<n>-<kind>.seg   one checksummed segment per array

The catalog's record holds every UDF memo, written once per save, and is
stamped with each table's shard signature.  A table's record holds that
table's indexes, evidence, statistics keys and plans.  Row ids and codes
are segments in the narrowest unsigned dtype that holds them
(:func:`~repro.db.table.narrowed_ids`; readers widen to ``intp``), flags
and memo values ``bool``, an index's values coerced the way a column's
cells are (:func:`~repro.db.table.coerce_cells_to_array`: mixed types take
the segment's object path).  The record holds the rest — the table's shard
signature, the statistics keys, the plans and their models, which name
groups by index code — and names every file with its checksum entry.  A
plan whose signature or group keys do not survive a JSON round trip is
left out, and so is a plan over a virtual column (its working table cannot
be rebound to the reopened one).  An evidence object is written once, so
what shared it before the save shares it after the restore.

Commit order is the crash argument: a save's files carry a serial new to
their directory, so they never replace a file the previous record names;
each file is fsynced before its rename, and the directory is fsynced once,
after the last rename (group commit, :func:`_write_warm`); each record
commits last, atomically; only then is every file it does not name removed
(a pre-1.19 ``state.blob`` too).  A crash before a commit leaves that
directory's previous warm state whole.

Restore runs at service construction, record by record, and installs
nothing of a record until every file of it is verified.  A table record
whose signature is not the reopened table's is skipped; a corrupt or torn
file is quarantined.  Either is counted in ``restore_errors`` and that
table (or, for the catalog's record, every memo) starts cold.  The memos
are restored when some reopened table still has the signature they were
stamped with; the ``memos`` entry a 1.19 table record carries is not read.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.column_selection import LabeledSample
from repro.core.groups import GroupStatistics, SelectivityModel
from repro.core.plan import ExecutionPlan, GroupDecision
from repro.db.errors import CorruptSegmentError, ManifestVersionError
from repro.db.index import GroupIndex, MergedGroupIndex
from repro.db.sharding import ShardedTable
from repro.db.storage.manifest import read_manifest, write_manifest
from repro.db.storage.segments import read_segment, sync_directory, write_segment
from repro.db.storage.store import CatalogStore, RecoveryReport, TableStore, _count
from repro.db.table import Table, coerce_cells_to_array, narrowed_ids
from repro.sampling.sampler import SampleOutcome
from repro.serving.plan_cache import CachedPlan

#: Basename of the record that commits a table's warm state.
WARM_RECORD = "WARM.json"

_EVIDENCE_KINDS = {cls.__name__: cls for cls in (LabeledSample, SampleOutcome)}

#: The :class:`CachedPlan` fields a plan record holds as they are.
_PLAN_FIELDS = (
    "column", "expected_execution_cost", "used_fallback", "solver_version",
    "data_generation", "table_rows",
)


def _stats_caches(service) -> Dict[str, Any]:
    stats = service.stats_cache
    return {"labeled": stats.labeled_samples, "outcome": stats.sample_outcomes}


def _tuples(value: Any) -> Any:
    """Decoded JSON with its arrays back as the tuples they were written from."""
    if isinstance(value, list):
        return tuple(_tuples(item) for item in value)
    if isinstance(value, dict):
        return {key: _tuples(item) for key, item in value.items()}
    return value


def _as_json(value: Any) -> Any:
    """``value`` as decoded JSON when it survives the round trip (numpy
    scalars as their python values), else ``None``."""
    try:
        decoded = json.loads(json.dumps(value, default=lambda item: item.item()))
    except (TypeError, ValueError, AttributeError):
        return None
    return decoded if _tuples(decoded) == value else None


# -- save ----------------------------------------------------------------------
def _plan_record(signature, entry: CachedPlan, codes: Optional[Dict[Any, int]]):
    """A cached plan as JSON, its groups named by index code — ``None`` when
    its signature or a group key cannot be written that way."""
    try:
        decisions = tuple((codes[key], d.retrieve, d.evaluate) for key, d in entry.plan)
        model = tuple(
            (codes[g.key], g.size, g.selectivity, g.variance, g.sampled,
             g.sampled_positives, g.correct_count, g.incorrect_count)
            for g in entry.model
        )
    except (KeyError, TypeError):  # a key the index lacks, or no index at all
        return None
    fields = {name: getattr(entry, name) for name in _PLAN_FIELDS}
    return _as_json({"signature": signature, "decisions": decisions, "model": model,
                     "fields": fields})


def _catalog_warm(store: CatalogStore) -> TableStore:
    """Where the catalog's own warm record lives: ``<storage_dir>/warm/``,
    beside ``CATALOG.json``, kept (swept, quarantined) exactly as a table's."""
    return TableStore(store.directory)


def _write_warm(table_store: TableStore, fill, *args) -> Dict[str, Any]:
    """One save of ``table_store``'s warm directory: ``fill(*args, segment)``
    writes the arrays and returns the record.  The directory is synced once
    after the last array, the record commits last, then every file it does
    not name is dropped.  Returns the record."""
    warm_dir = table_store.warm_dir
    os.makedirs(warm_dir, exist_ok=True)
    names = os.listdir(warm_dir)  # the next serial: no file there carries it yet
    serial = max((int(n[1:7]) for n in names if n[1:7].isdigit()), default=-1) + 1
    files = [WARM_RECORD]

    def segment(kind: str, array: np.ndarray) -> Dict[str, Any]:
        files.append(f"w{serial:06d}-{len(files)}-{kind}.seg")
        return write_segment(os.path.join(warm_dir, files[-1]), kind, array)

    body = fill(*args, segment)
    if len(files) > 1:
        sync_directory(warm_dir)
    write_manifest(os.path.join(warm_dir, WARM_RECORD), body)
    table_store._drop_unreferenced(warm_dir, files)
    return body


def _table_record(service, table: Table, segment) -> Dict[str, Any]:
    """One table's warm record, its arrays written through ``segment``."""
    evidence: List[Dict[str, Any]] = []
    numbers: Dict[int, int] = {}  # id(evidence object) -> its record number

    def evidence_number(outcome) -> int:
        """The record's number for ``outcome``, written at its first use."""
        if id(outcome) not in numbers:
            numbers[id(outcome)] = len(evidence)
            ids = segment("ids", narrowed_ids(outcome.row_ids))
            flags = segment("flags", outcome.flags)
            evidence.append({"kind": type(outcome).__name__, "ids": ids, "flags": flags})
        return numbers[id(outcome)]

    indexes, codes_of = [], {}
    for (allow_hidden, column), index in table._group_indexes.items():
        values = segment("values", coerce_cells_to_array(index._values))
        codes = segment("codes", narrowed_ids(index._codes))
        indexes.append({"column": column, "allow_hidden": allow_hidden,
                        "values": values, "codes": codes})
        if not allow_hidden:
            codes_of[column] = {value: code for code, value in enumerate(index._values)}
    stats = []
    for cache_name, cache in _stats_caches(service).items():
        for key, (stored_table, signature, rows, payload) in cache.items():
            record = {"key": key[1], "signature": signature, "rows": rows}
            record = _as_json(record) if stored_table is table else None
            if record is not None:
                stats.append({**record, "cache": cache_name, "evidence": evidence_number(payload)})
    plans = []
    for signature, entry in service.plan_cache._cache.items():
        if entry.base_table is table and entry.working_table is table:
            record = _plan_record(signature, entry, codes_of.get(entry.column))
            outcome = entry.sample_outcome
            if record is not None:
                number = None if outcome is None else evidence_number(outcome)
                plans.append({**record, "evidence": number})
    return {"signature": _as_json(table.shard_signature()), "indexes": indexes,
            "evidence": evidence, "stats": stats, "plans": plans}


def _memo_record(service, segment) -> Dict[str, Any]:
    """The catalog's warm record: every UDF memo, written once, stamped with
    each table's shard signature."""
    catalog = service.catalog
    memos = []
    for udf in catalog.udfs:
        ids, values = udf.memo_arrays()
        if len(ids):
            memos.append({"udf": udf.name, "ids": segment("ids", narrowed_ids(ids)),
                          "values": segment("memo", values)})
    signatures = {name: _as_json(catalog.table(name).shard_signature())
                  for name in catalog.table_names()}
    return {"signatures": signatures, "memos": memos}


def save_warm_state(service, store: CatalogStore) -> Dict[str, int]:
    """Checkpoint the catalog, then persist the service's warm state.

    The two are written together so every record's signature stamp matches
    the durable generation it sits next to; a crash between the two leaves
    data durable and warm state stale — restore then skips it and starts
    cold, which is safe.  The memos go first: a crash after them leaves
    every table's previous record beside memos that know more rows, which
    costs nothing (a memo holds only values the UDF really has).
    """
    store.save(service.catalog)
    memos = _write_warm(_catalog_warm(store), _memo_record, service)
    counts = {"plans": 0, "stats_entries": 0, "group_indexes": 0,
              "udf_memos": len(memos["memos"])}
    for name in service.catalog.table_names():
        body = _write_warm(
            store.table_store(name), _table_record, service, service.catalog.table(name)
        )
        counts["plans"] += len(body["plans"])
        counts["stats_entries"] += len(body["stats"])
        counts["group_indexes"] += len(body["indexes"])
    return counts


# -- restore -------------------------------------------------------------------
def _read(warm_dir: str, entry: Dict[str, Any]) -> np.ndarray:
    """The warm segment a record's ``entry`` names, verified against it."""
    return read_segment(os.path.join(warm_dir, entry["file"]), expected=entry, mmap=False)


def _install_index(table: Table, column: str, allow_hidden: bool, values, codes) -> bool:
    """Reinstall a persisted group index, counting no index build; whether
    it was installed (a table that already holds the index keeps its own).
    A sharded table's index is the same parts plus its shard boundaries."""
    key = (allow_hidden, column)
    if key in table._group_indexes:
        return False
    sharded = isinstance(table, ShardedTable)
    index_class = MergedGroupIndex if sharded else GroupIndex
    index = index_class.__new__(index_class)
    index.table = table
    index.column = column
    if sharded:
        index._offsets = tuple(table.shard_offsets)
    index._install(values, codes.astype(np.intp), count_build=False)
    table._group_indexes[key] = index
    return True


def _restore_table(service, table: Table, warm_dir: str, counts: Dict[str, int]) -> None:
    """Read and verify one table's warm state, then install it, adding to
    ``counts``.  Raises :class:`CorruptSegmentError` /
    :class:`ManifestVersionError` for a bad file, :class:`LookupError` for a
    record stamped with another signature."""
    body = read_manifest(os.path.join(warm_dir, WARM_RECORD))
    if body is None:
        return
    if _tuples(body["signature"]) != table.shard_signature():
        raise LookupError("stale warm state")
    indexes = [
        (record, _read(warm_dir, record["values"]).tolist(), _read(warm_dir, record["codes"]))
        for record in body["indexes"]
    ]
    evidence = [
        _EVIDENCE_KINDS[record["kind"]](
            _read(warm_dir, record["ids"]), _read(warm_dir, record["flags"])
        )
        for record in body["evidence"]
    ]
    values_of: Dict[str, List[Any]] = {}
    for record, values, codes in indexes:
        counts["restored_group_indexes"] += _install_index(
            table, record["column"], record["allow_hidden"], values, codes
        )
        if not record["allow_hidden"]:
            values_of[record["column"]] = values
    caches = _stats_caches(service)
    for record in body["stats"]:
        cache = caches[record["cache"]]
        if cache.enabled:
            stored = (table, _tuples(record["signature"]), record["rows"])
            cache.put((id(table), _tuples(record["key"])), (*stored, evidence[record["evidence"]]))
            counts["restored_stats_entries"] += 1
    for record in body["plans"] if service.plan_cache.enabled else ():
        values = values_of[record["fields"]["column"]]
        number = record["evidence"]
        entry = CachedPlan(
            plan=ExecutionPlan(
                {values[code]: GroupDecision(r, e) for code, r, e in record["decisions"]}
            ),
            model=SelectivityModel(
                GroupStatistics(values[code], *rest) for code, *rest in record["model"]
            ),
            sample_outcome=None if number is None else evidence[number],
            working_table=table,
            base_table=table,
            restored=True,
            **record["fields"],
        )
        service.plan_cache.put(_tuples(record["signature"]), entry)
        counts["restored_plans"] += 1


def _restore_memos(service, warm_dir: str, counts: Dict[str, int]) -> None:
    """Read and verify the catalog's memo record, then absorb every memo —
    when some reopened table still has the shard signature it was stamped
    with.  Raises like :func:`_restore_table` for a bad file."""
    TableStore(warm_dir)._sweep_temp_files()  # a table's open sweeps its own
    body = read_manifest(os.path.join(warm_dir, WARM_RECORD))
    catalog = service.catalog
    if body is None or not any(
        name in catalog.table_names()
        and _tuples(signature) == catalog.table(name).shard_signature()
        for name, signature in body["signatures"].items()
    ):
        return
    memos = [(record["udf"], _read(warm_dir, record["ids"]), _read(warm_dir, record["values"]))
             for record in body["memos"]]
    for name, ids, values in memos:
        if name in catalog.udfs:
            catalog.udf(name).absorb_memo(ids, values)
            counts["restored_udf_memos"] += 1


def restore_warm_state(service, store: CatalogStore) -> Dict[str, int]:
    """Load persisted warm state into a freshly constructed service.

    Each record and its segments are verified, signature-gated against the
    *reopened* tables and restored independently: a corrupt file is
    quarantined and a stale table record skipped, each counted once in
    ``restore_errors``, without touching any other record's warm state — a
    failed restore can only ever cost warmth, never correctness.
    """
    counts = dict.fromkeys(
        ("restored_plans", "restored_stats_entries", "restored_group_indexes",
         "restored_udf_memos", "restore_errors"), 0,
    )
    records = [(_catalog_warm(store), _restore_memos, ())]
    records += [
        (store.table_store(name), _restore_table, (service.catalog.table(name),))
        for name in service.catalog.table_names()
    ]
    for table_store, restore, args in records:
        try:
            restore(service, *args, table_store.warm_dir, counts)
        except (CorruptSegmentError, ManifestVersionError) as exc:
            if isinstance(exc, CorruptSegmentError):
                _count("checksum_failures")
            table_store._quarantine(exc.path, RecoveryReport())
            counts["restore_errors"] += 1
        except Exception:
            # A stale record, or one this build cannot make sense of: it
            # starts cold; never fail service construction over warmth.
            counts["restore_errors"] += 1
    return counts
