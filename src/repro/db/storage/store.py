"""Durable table stores: checkpoint, journal, recover.

:class:`TableStore` owns one directory per table::

    <dir>/MANIFEST.json      the single commit point (see ``manifest.py``)
    <dir>/segments/*.seg     checksummed column segments, one per (shard, column)
    <dir>/journal.wal        tail-append write-ahead journal
    <dir>/warm/              serving-layer warm state: segments under one record
                             (repro.serving.persistence)
    <dir>/quarantine/        corrupt artifacts moved aside, never deleted

:meth:`TableStore.save` is the checkpoint, and it writes what changed:
segments of shards that are already durable in this directory and have not
been appended to since are referenced by the new manifest as they are
(after an O(header) re-validation), everything else — the mutable tail,
freshly sealed shards, all of a table the directory has not seen — is
written crash-safely under generation-qualified names; then the manifest
commits the generation, the journal resets, and the files the manifest no
longer names are removed.  What a shard has on disk is recorded on the
shard itself (:meth:`~repro.db.table.Table.mark_durable`) by the open that
loaded it, eagerly or lazily, and by the checkpoint that wrote it; an
append makes the record stale by itself.
:meth:`TableStore.append` is the durable churn path — journal first
(fsynced), then apply in memory.  :meth:`TableStore.open` is recovery —
sweep torn temp files, validate the manifest and every segment checksum,
rebuild the table over memmapped arrays, replay the journal's valid
record prefix past the manifest generation.  Corruption anywhere raises a
typed error (:class:`~repro.db.errors.CorruptSegmentError` /
:class:`~repro.db.errors.ManifestVersionError`), quarantines the offending
file, and — when the caller supplies ``rebuild`` — degrades gracefully to
rebuild-from-source.  Every outcome is counted in the module counters
(surfaced through ``repro.obs`` and ``QueryService.stats().storage``).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.residency import ResidencyManager

from repro.db.catalog import Catalog
from repro.db.column import Column, ColumnType
from repro.db.errors import CorruptSegmentError, ManifestVersionError, StorageError
from repro.db.schema import Schema
from repro.db.sharding import ShardedTable
from repro.db.storage import journal as _journal
from repro.db.storage.manifest import read_manifest, write_manifest
from repro.db.storage.segments import read_segment, validate_segment_header, write_segment
from repro.db.table import Table
from repro.obs import metrics as _metrics

#: Process-wide storage event counters (always on — they count I/O-path
#: events, never query work, so they cannot perturb the bitwise parity
#: gates).  An installed :mod:`repro.obs` registry reads them by pull, as
#: the ``repro_storage`` collector.
_COUNTERS: Dict[str, int] = {
    "segments_written": 0,
    "segments_retained": 0,
    "segments_loaded": 0,
    "headers_validated": 0,
    "checksum_failures": 0,
    "quarantines": 0,
    "journal_replays": 0,
    "journal_records_replayed": 0,
    "journal_truncations": 0,
    "manifest_commits": 0,
    "rebuilds": 0,
    "temp_files_cleaned": 0,
}
_COUNTERS_LOCK = threading.Lock()


def _count(name: str, amount: int = 1) -> None:
    with _COUNTERS_LOCK:
        _COUNTERS[name] += amount


def storage_counters() -> Dict[str, int]:
    """A snapshot of the process-wide storage counters."""
    with _COUNTERS_LOCK:
        return dict(_COUNTERS)


_metrics.PROCESS_COLLECTORS["repro_storage"] = storage_counters


def reset_storage_counters() -> None:
    """Zero the storage counters (test isolation)."""
    with _COUNTERS_LOCK:
        for name in _COUNTERS:
            _COUNTERS[name] = 0


@dataclass
class RecoveryReport:
    """What one :meth:`TableStore.open` found and did."""

    segments_loaded: int = 0
    segments_deferred: int = 0
    journal_records_replayed: int = 0
    journal_tail_truncated: bool = False
    temp_files_cleaned: int = 0
    quarantined: List[str] = field(default_factory=list)
    rebuilt_from_source: bool = False
    rebuild_reason: Optional[str] = None
    generation: int = 0

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict view (stats surfaces, benchmark artifacts)."""
        return {
            "segments_loaded": self.segments_loaded,
            "segments_deferred": self.segments_deferred,
            "journal_records_replayed": self.journal_records_replayed,
            "journal_tail_truncated": self.journal_tail_truncated,
            "temp_files_cleaned": self.temp_files_cleaned,
            "quarantined": list(self.quarantined),
            "rebuilt_from_source": self.rebuilt_from_source,
            "rebuild_reason": self.rebuild_reason,
            "generation": self.generation,
        }


def _segment_files(segments: Mapping[str, Mapping[str, Any]]) -> List[str]:
    """The file of every ``{shard: {column: entry}}`` entry of a manifest."""
    return [entry["file"] for per_shard in segments.values() for entry in per_shard.values()]


def _safe_dirname(name: str) -> str:
    """A filesystem-safe directory name for a table name."""
    return "".join(
        ch if ch.isalnum() or ch in ("-", "_", ".") else f"_{ord(ch):02x}_"
        for ch in name
    )


class TableStore:
    """Durable storage for one table in one directory."""

    MANIFEST_FILE = "MANIFEST.json"
    JOURNAL_FILE = "journal.wal"
    SEGMENTS_DIR = "segments"
    WARM_DIR = "warm"
    QUARANTINE_DIR = "quarantine"

    def __init__(self, directory: str):
        self.directory = str(directory)

    # -- paths -----------------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, self.MANIFEST_FILE)

    @property
    def journal_path(self) -> str:
        return os.path.join(self.directory, self.JOURNAL_FILE)

    @property
    def segments_dir(self) -> str:
        return os.path.join(self.directory, self.SEGMENTS_DIR)

    @property
    def warm_dir(self) -> str:
        return os.path.join(self.directory, self.WARM_DIR)

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.directory, self.QUARANTINE_DIR)

    def exists(self) -> bool:
        """Whether a committed manifest is present."""
        return os.path.exists(self.manifest_path)

    # -- checkpoint ------------------------------------------------------------
    def save(self, table: Table) -> None:
        """Checkpoint: write what changed, commit the manifest, reset the journal.

        A ``(shard, column)`` already durable in this store's segments
        directory, on a shard that has not changed since
        (:meth:`~repro.db.table.Table.durable_segments` — recorded by the
        open that loaded the shard or the checkpoint that last wrote it,
        stale by itself once the shard is appended to), keeps its file: the
        existing manifest entry goes into the new manifest after an
        O(header) re-validation, and a lazily opened shard is not mapped
        for it.  Everything else is written from memory — the mutable
        tail, the shards a tail seal created, a column whose file is gone
        or fails that validation (never referenced blind), and every
        column of a table this directory has not seen, which is what a
        first checkpoint into a fresh directory is.

        Ordering is the crash-safety argument.  A retained file is never
        touched, and a new file is one atomic write under a name made of
        the table's generation and the file's slot — a name the previous
        manifest can only hold if the table is still at that manifest's
        generation, where the rows under the name, and so the bytes the
        rename puts there, are the same.  So nothing the previous manifest
        names changes before the commit; the manifest — the single commit
        point — only ever references segments that are already durable;
        the journal resets only after the manifest committed, and only
        then are the files the new manifest does not name removed
        (retained files of older generations are named, so they stay).  A
        crash at *any* point leaves the previous manifest describing the
        previous (fully intact) generation, plus a journal whose
        generations the new open skips or replays exactly.
        """
        os.makedirs(self.segments_dir, exist_ok=True)
        sharded = isinstance(table, ShardedTable)
        shards: Sequence[Table] = table.shards if sharded else [table]
        column_names = table.schema.column_names
        segments: Dict[str, Dict[str, Any]] = {}
        generation = table.data_generation
        record_key = self._record_key
        for position, shard in enumerate(shards):
            durable = shard.durable_segments(record_key)
            entries: Dict[str, Any] = {}
            for column_index, column in enumerate(column_names):
                slot = f"-{position:04d}-c{column_index:03d}.seg"
                entry = durable.get(column)
                if entry is not None and self._still_durable(entry, slot):
                    _count("segments_retained")
                else:
                    # Generation-qualified names: a checkpoint never writes
                    # over an earlier generation's files, so a crash
                    # before the manifest commit leaves the old manifest
                    # pointing at old segments that are still bit-perfect.
                    entry = write_segment(
                        os.path.join(
                            self.segments_dir, f"seg-g{generation:08d}{slot}"
                        ),
                        column,
                        shard.column_array(column, allow_hidden=True),
                    )
                    _count("segments_written")
                entries[column] = entry
            segments[str(position)] = entries
        body: Dict[str, Any] = {
            "table": table.name,
            "layout": "sharded" if sharded else "monolithic",
            "schema": [
                [column.name, column.column_type.value, bool(column.hidden)]
                for column in table.schema.columns
            ],
            "data_generation": table.data_generation,
            "num_rows": table.num_rows,
            "segments": segments,
        }
        if sharded:
            body["offsets"] = [int(offset) for offset in table.shard_offsets]
            body["tail_shard_rows"] = int(table.tail_shard_rows)
        write_manifest(self.manifest_path, body)
        _count("manifest_commits")
        for shard, entries in zip(shards, segments.values()):
            shard.mark_durable(record_key, entries)
        _journal.truncate(self.journal_path)
        self._drop_unreferenced(self.segments_dir, _segment_files(segments))

    @property
    def _record_key(self) -> str:
        """The segments directory as shards record it (see ``mark_durable``)."""
        return os.path.abspath(self.segments_dir)

    def _still_durable(self, entry: Mapping[str, Any], slot: str) -> bool:
        """Whether a recorded segment may go into the next manifest as it is.

        Its header must still validate against the recorded entry (the file
        exists, is whole, and holds that many rows of that type), and it
        must be named for the ``(shard, column)`` slot it fills — a new
        file's name is its generation and slot, so it can then never be the
        name of a retained file.  The payload is not read: a bit flip under
        an intact header surfaces at the next open or map, exactly as it
        does for a file no checkpoint has revisited.
        """
        if not entry["file"].endswith(slot):
            return False
        try:
            validate_segment_header(
                os.path.join(self.segments_dir, entry["file"]), expected=entry
            )
        except CorruptSegmentError:
            return False
        return True

    def _drop_unreferenced(self, directory: str, referenced: Iterable[str]) -> None:
        """Remove the files of ``directory`` a committed record does not name.

        Safe only *after* the commit of the record naming ``referenced`` (a
        manifest, a warm-state record) or a fully validated open: the files
        a commit replaced, and orphans from one that tore before its
        commit, would otherwise leak forever.  Files of older generations
        that a checkpoint retained are named like any other, so they stay.
        Torn ``.tmp`` files are left to :meth:`_sweep_temp_files`, which
        counts them.
        """
        keep = set(referenced)
        try:
            present = os.listdir(directory)
        except FileNotFoundError:  # pragma: no cover - the caller just wrote there
            return
        for filename in present:
            if filename not in keep and not filename.endswith(".tmp"):
                os.remove(os.path.join(directory, filename))

    # -- durable append ----------------------------------------------------------
    def append(self, table: Table, columns: Mapping[str, Sequence[Any]]) -> int:
        """Write-ahead append: journal the delta durably, then apply it.

        The journal record carries the generation the append will produce
        (``table.data_generation + 1``); recovery replays it through the
        same :meth:`~repro.db.table.Table.append_columns` path, so a crash
        any time after the fsync loses nothing and a crash before it loses
        the whole (unapplied) delta — never half of one.
        """
        # Validate against the schema before journalling, so the journal
        # never holds a record that cannot replay.
        table._check_delta(columns)
        os.makedirs(self.directory, exist_ok=True)
        _journal.append_record(self.journal_path, table.data_generation + 1, columns)
        return table.append_columns(columns)

    # -- recovery ----------------------------------------------------------------
    def open(
        self,
        rebuild: Optional[Callable[[], Table]] = None,
        residency: Optional["ResidencyManager"] = None,
    ) -> Tuple[Table, RecoveryReport]:
        """Open the last durable generation, replaying the journal tail.

        Torn ``.tmp`` files from interrupted writes are swept first.  Any
        checksum or format failure quarantines the offending file and
        either degrades to ``rebuild()`` (re-checkpointing the fresh table)
        or re-raises the typed error.  The returned report says exactly
        what happened; the module counters aggregate across opens.

        With a :class:`~repro.db.residency.ResidencyManager` the open is
        *lazy*: every segment gets header-only validation (magic + header
        CRC + manifest identity, O(header) not O(payload)) and the table
        comes back as residency-managed stubs whose segments map — with the
        full per-block CRC pass — on first touch.  Without one, the eager
        path validates and maps everything up front, as before.
        """
        report = RecoveryReport()
        report.temp_files_cleaned = self._sweep_temp_files()
        try:
            body = read_manifest(self.manifest_path)
            if body is None:
                if rebuild is None:
                    raise StorageError(
                        f"no manifest at {self.manifest_path}; nothing to open"
                    )
                return self._rebuild(rebuild, report, "missing manifest")
            table = self._load_table(body, report, residency)
            self._replay_journal(table, report)
            report.generation = table.data_generation
            # Everything validated against the committed manifest: orphan
            # segments from a checkpoint that crashed before its manifest
            # commit are now provably garbage.
            self._drop_unreferenced(self.segments_dir, _segment_files(body["segments"]))
            return table, report
        except (CorruptSegmentError, ManifestVersionError) as exc:
            if isinstance(exc, CorruptSegmentError):
                _count("checksum_failures")
            self._quarantine(exc.path, report)
            if rebuild is None:
                raise
            return self._rebuild(rebuild, report, str(exc))

    def _rebuild(
        self,
        rebuild: Callable[[], Table],
        report: RecoveryReport,
        reason: str,
    ) -> Tuple[Table, RecoveryReport]:
        table = rebuild()
        report.rebuilt_from_source = True
        report.rebuild_reason = reason
        report.generation = table.data_generation
        _count("rebuilds")
        self.save(table)
        return table, report

    def _load_table(
        self,
        body: Dict[str, Any],
        report: RecoveryReport,
        residency: Optional["ResidencyManager"],
    ) -> Table:
        """Rebuild the table a committed manifest describes, cross-checked.

        One walk over the manifest's shards and one set of cross-checks
        serve both kinds of open; ``residency is None`` selects only *how
        one segment loads* and *which table class holds it*:

        * eager — :func:`read_segment` validates and maps every payload now
          into plain :class:`Table` / :class:`ShardedTable` objects;
        * lazy — O(headers), not O(payload): each segment's magic, header
          CRC and manifest identity are checked now and it becomes a
          :class:`~repro.db.residency.SegmentHandle` whose per-block CRC
          pass runs at first-touch map time, inside residency-managed
          stubs.  One map circuit breaker is shared by the whole table, so
          repeated map failures on any shard degrade the table as a unit.

        Either way each shard is marked durable in this directory with its
        manifest entries, which is what lets the next :meth:`save`
        reference its files instead of rewriting (or, lazily, mapping) them.
        """
        if residency is not None:
            from repro.db.residency import (
                LazySegmentTable,
                LazyShardedTable,
                SegmentHandle,
            )
            from repro.resilience.breaker import CircuitBreaker

            breaker = CircuitBreaker(failure_threshold=3, recovery_time_s=60.0)

        name = body["table"]
        schema = Schema(
            [
                Column(name=column, column_type=ColumnType(ctype), hidden=bool(hidden))
                for column, ctype, hidden in body["schema"]
            ]
        )
        generation = int(body["data_generation"])
        segments: Mapping[str, Mapping[str, Any]] = body["segments"]
        monolithic = body["layout"] == "monolithic"
        record_key = self._record_key
        shards: List[Table] = []
        for position, key in enumerate(sorted(segments, key=int)):
            columns: Dict[str, Any] = {}
            for column, entry in segments[key].items():
                path = os.path.join(self.segments_dir, entry["file"])
                if residency is None:
                    columns[column] = read_segment(path, expected=entry)
                    report.segments_loaded += 1
                    _count("segments_loaded")
                else:
                    header, payload_offset = validate_segment_header(
                        path, expected=entry
                    )
                    columns[column] = SegmentHandle(
                        path,
                        entry,
                        residency,
                        column=column,
                        header=header,
                        payload_offset=payload_offset,
                        breaker=breaker,
                    )
                    report.segments_deferred += 1
                    _count("headers_validated")
            # A sharded table carries the generation itself; its shards are
            # anonymous parts at generation 0.
            shard_name = name if monolithic else f"{name}#shard{position}"
            shard_generation = generation if monolithic else 0
            if residency is None:
                shards.append(
                    Table.from_arrays(
                        shard_name, schema, columns, data_generation=shard_generation
                    )
                )
            else:
                shards.append(
                    LazySegmentTable.from_segments(
                        shard_name,
                        schema,
                        columns,
                        num_rows=max((h.rows for h in columns.values()), default=0),
                        data_generation=shard_generation,
                        map_breaker=breaker,
                    )
                )
            # Journal replay (next, in open()) appends to the tail, which
            # makes the tail's mark stale by itself.
            shards[-1].mark_durable(record_key, segments[key])
        if monolithic:
            if len(shards) != 1:
                raise CorruptSegmentError(
                    self.manifest_path,
                    f"monolithic layout with {len(shards)} shard entries",
                )
            table = shards[0]
        else:
            table = (ShardedTable if residency is None else LazyShardedTable)(
                name,
                schema,
                shards,
                tail_shard_rows=body.get("tail_shard_rows"),
            )
            table._data_generation = generation
            offsets = [int(offset) for offset in body["offsets"]]
            if list(table.shard_offsets) != offsets:
                raise CorruptSegmentError(
                    self.manifest_path,
                    f"segment rows give offsets {list(table.shard_offsets)}, "
                    f"manifest committed {offsets}",
                )
        if table.num_rows != int(body["num_rows"]):
            raise CorruptSegmentError(
                self.manifest_path,
                f"segments hold {table.num_rows} rows, manifest committed "
                f"{body['num_rows']}",
            )
        return table

    def _replay_journal(self, table: Table, report: RecoveryReport) -> None:
        records, truncated = _journal.read_records(self.journal_path)
        if truncated:
            report.journal_tail_truncated = True
            _count("journal_truncations")
        for record in records:
            generation = int(record["generation"])
            if generation <= table.data_generation:
                # Written before a checkpoint whose truncation did not land
                # (crash between manifest commit and journal reset).
                continue
            if generation != table.data_generation + 1:
                # A generation gap means the record cannot re-apply exactly;
                # everything from here on is discarded tail.
                report.journal_tail_truncated = True
                _count("journal_truncations")
                break
            table.append_columns(record["columns"])
            report.journal_records_replayed += 1
        if report.journal_records_replayed:
            _count("journal_replays")
            _count("journal_records_replayed", report.journal_records_replayed)

    # -- hygiene -----------------------------------------------------------------
    def _sweep_temp_files(self) -> int:
        """Remove torn ``.tmp`` files left by interrupted atomic writes."""
        cleaned = 0
        for root, _dirs, files in os.walk(self.directory):
            for filename in files:
                if filename.endswith(".tmp"):
                    os.remove(os.path.join(root, filename))
                    cleaned += 1
        if cleaned:
            _count("temp_files_cleaned", cleaned)
        return cleaned

    def _quarantine(self, path: str, report: RecoveryReport) -> None:
        """Move a corrupt artifact aside (numbered, never overwritten)."""
        if not os.path.exists(path):
            return
        os.makedirs(self.quarantine_dir, exist_ok=True)
        base = os.path.basename(path)
        target = os.path.join(self.quarantine_dir, base)
        suffix = 0
        while os.path.exists(target):
            suffix += 1
            target = os.path.join(self.quarantine_dir, f"{base}.{suffix}")
        os.replace(path, target)
        report.quarantined.append(os.path.basename(target))
        _count("quarantines")


class CatalogStore:
    """Durable storage for a whole catalog: one :class:`TableStore` per table
    under ``<dir>/tables/``, committed under an atomic catalog manifest.

    UDFs are code, not data — they are never persisted; re-register them on
    the reopened catalog.
    """

    CATALOG_FILE = "CATALOG.json"
    TABLES_DIR = "tables"

    def __init__(self, directory: str):
        self.directory = str(directory)

    @property
    def catalog_path(self) -> str:
        return os.path.join(self.directory, self.CATALOG_FILE)

    def table_store(self, name: str) -> TableStore:
        """The per-table store for ``name`` (directory name sanitised)."""
        return TableStore(
            os.path.join(self.directory, self.TABLES_DIR, _safe_dirname(name))
        )

    def save(self, catalog: Catalog) -> None:
        """Checkpoint every table, then atomically commit the catalog manifest."""
        os.makedirs(self.directory, exist_ok=True)
        names = catalog.table_names()
        for name in names:
            self.table_store(name).save(catalog.table(name))
        write_manifest(self.catalog_path, {"tables": list(names)})
        _count("manifest_commits")

    def table_names(self) -> List[str]:
        """The tables the committed catalog manifest names (empty when absent)."""
        body = read_manifest(self.catalog_path)
        return [] if body is None else list(body["tables"])

    def open(
        self,
        rebuilders: Optional[Mapping[str, Callable[[], Table]]] = None,
        residency: Optional["ResidencyManager"] = None,
    ) -> Tuple[Catalog, Dict[str, RecoveryReport]]:
        """Open every committed table into a fresh :class:`Catalog`.

        ``rebuilders`` maps table names to rebuild-from-source callables
        used when that table's artifacts are corrupt; tables without one
        re-raise the typed error.  A ``residency`` manager makes every
        table's open lazy (header-only validation, map on first touch)
        under one shared byte budget — see :meth:`TableStore.open`.
        """
        catalog = Catalog()
        reports: Dict[str, RecoveryReport] = {}
        for name in self.table_names():
            rebuild = None if rebuilders is None else rebuilders.get(name)
            table, report = self.table_store(name).open(
                rebuild=rebuild, residency=residency
            )
            catalog.register_table(table)
            reports[name] = report
        return catalog, reports
