"""Bounded-memory residency for durable column segments.

PR 9 made storage durable; this module makes memory a first-class,
*enforced* budget on top of it.  A :class:`ResidencyManager` tracks every
mapped column segment (charging actual ``nbytes``), serves columns through
lazy per-shard :class:`SegmentHandle` objects — ``TableStore.open`` with a
manager returns stubs whose segments map on first touch, full block-CRC
verified once per map — and evicts clean mappings LRU when the byte budget
is exceeded.  Pin counting keeps an in-flight span's columns resident for
the duration of the pass; because results are assembled by global row id
(never by visit order), eviction order is bitwise-invisible to answers.

The memory-safety model is deliberately simple: "eviction" means the
manager drops *its* reference to the mapped array.  Any array a caller
already holds stays valid (the memmap lives while referenced); pinning
exists for budget honesty (a pinned segment is never double-faulted
mid-gather) and churn control, not to keep pointers alive.  Peak resident
bytes therefore never exceed ``budget + the pinned columns of one shard``
— the acceptance envelope for out-of-core serving.

Degradation order under pressure (wired by the serving layer):

1. **caches** — a ``high`` watermark callback shrinks the service's plan /
   statistics caches;
2. **shedding** — ``critical`` (pins holding residency over budget) sheds
   new admissions through the existing typed ``Overloaded`` path;
3. **breaker** — repeated ``segment_map`` failures trip a per-table
   circuit breaker and the table degrades to rebuilt-in-memory operation
   (:meth:`LazySegmentTable._materialise`), trading memory for liveness.

Fault sites (:mod:`repro.resilience.faults`): ``segment_map`` fires before
each first-touch map (one retry, then a typed
:class:`~repro.db.errors.SegmentMapError`), ``segment_evict`` fires inside
eviction (the logical drop still completes, so an injected evict fault can
never leak a mapping).  Every count lives on the manager
(:meth:`ResidencyManager.snapshot`): map latency as ``maps`` and
``map_seconds_total``; the process-wide totals are
:func:`resident_bytes_total` and :func:`pinned_segments_total`.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.db.column import Column
from repro.db.errors import (
    ColumnNotFoundError,
    CorruptSegmentError,
    SchemaMismatchError,
    SegmentMapError,
)
from repro.db.schema import Schema
from repro.db.sharding import ShardedTable
from repro.db.shm import ColumnBlock
from repro.db.storage.segments import read_segment
from repro.db.table import Table
from repro.resilience import faults as _faults
from repro.resilience.breaker import CLOSED, CircuitBreaker

#: Pressure levels reported to watermark callbacks, in escalation order.
PRESSURE_LEVELS = ("ok", "high", "critical")

#: Every live manager, weakly held: the test-suite leak gate sums resident
#: and pinned state across managers and asserts zero once owners are gone.
_MANAGERS: "weakref.WeakSet[ResidencyManager]" = weakref.WeakSet()


def resident_bytes_total() -> int:
    """Resident mapped bytes summed over every live manager (leak gate)."""
    return sum(manager.resident_bytes for manager in list(_MANAGERS))


def pinned_segments_total() -> int:
    """Pinned segments summed over every live manager (leak gate)."""
    return sum(manager.pinned_segments for manager in list(_MANAGERS))


class ResidencyManager:
    """LRU residency tracking for mapped column segments under a byte budget.

    ``budget_bytes=None`` means unbounded (track, never evict).  The
    ``watermark`` fraction marks the ``high`` pressure level; residency
    held *over* budget by pins is ``critical``.  Pressure callbacks are
    edge-triggered — called once per level change, outside the lock — so a
    service can shrink caches on ``high`` and shed load on ``critical``
    without polling.

    Thread safe.  All eviction is *clean*: segments are read-only maps of
    committed files, so dropping one never loses data — the next touch
    refaults it (full CRC re-verified by :func:`read_segment`).
    """

    def __init__(
        self,
        budget_bytes: Optional[int] = None,
        watermark: float = 0.9,
    ):
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        if not 0.0 < watermark <= 1.0:
            raise ValueError(f"watermark must be in (0, 1], got {watermark}")
        self.watermark = float(watermark)
        self._budget = budget_bytes
        self._lock = threading.RLock()
        self._lru: "OrderedDict[SegmentHandle, bool]" = OrderedDict()
        self._resident_bytes = 0
        self._peak_resident_bytes = 0
        self._maps = 0
        self._evictions = 0
        self._refaults = 0
        self._map_faults = 0
        self._evict_faults = 0
        self._map_seconds = 0.0
        self._tables_materialised = 0
        self._tables_degraded = 0
        self._level = "ok"
        self._callbacks: List[Callable[[str], None]] = []
        _MANAGERS.add(self)

    # -- observation -----------------------------------------------------------
    @property
    def budget_bytes(self) -> Optional[int]:
        return self._budget

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._resident_bytes

    @property
    def peak_resident_bytes(self) -> int:
        with self._lock:
            return self._peak_resident_bytes

    @property
    def mapped_segments(self) -> int:
        with self._lock:
            return len(self._lru)

    @property
    def pinned_segments(self) -> int:
        with self._lock:
            return sum(1 for handle in self._lru if handle.pin_count > 0)

    @property
    def pressure_level(self) -> str:
        with self._lock:
            return self._level

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict view for ``stats().storage["residency"]``."""
        with self._lock:
            return {
                "budget_bytes": self._budget,
                "resident_bytes": self._resident_bytes,
                "peak_resident_bytes": self._peak_resident_bytes,
                "mapped_segments": len(self._lru),
                "pinned_segments": sum(
                    1 for handle in self._lru if handle.pin_count > 0
                ),
                "pressure_level": self._level,
                "maps": self._maps,
                "evictions": self._evictions,
                "refaults": self._refaults,
                "map_faults": self._map_faults,
                "evict_faults": self._evict_faults,
                "map_seconds_total": self._map_seconds,
                "tables_materialised": self._tables_materialised,
                "tables_degraded": self._tables_degraded,
            }

    # -- configuration ---------------------------------------------------------
    def set_budget(self, budget_bytes: Optional[int]) -> None:
        """Change the byte budget; shrinking evicts immediately."""
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        with self._lock:
            self._budget = budget_bytes
        self._enforce()

    def add_pressure_callback(self, callback: Callable[[str], None]) -> None:
        """Register an edge-triggered watermark callback ``fn(level)``."""
        with self._lock:
            self._callbacks.append(callback)

    def remove_pressure_callback(self, callback: Callable[[str], None]) -> None:
        """Unregister ``callback`` (a no-op when it is not registered)."""
        with self._lock:
            if callback in self._callbacks:
                self._callbacks.remove(callback)

    # -- residency bookkeeping (called by SegmentHandle) -----------------------
    def _register(self, handle: "SegmentHandle", map_seconds: float) -> None:
        """Charge a freshly mapped handle and enforce the budget."""
        with self._lock:
            refault = handle.ever_mapped
            handle.ever_mapped = True
            if handle not in self._lru:
                self._lru[handle] = True
                self._resident_bytes += handle.nbytes
            self._lru.move_to_end(handle)
            if self._resident_bytes > self._peak_resident_bytes:
                self._peak_resident_bytes = self._resident_bytes
            self._maps += 1
            self._map_seconds += map_seconds
            if refault:
                self._refaults += 1
        self._enforce()

    def _touch(self, handle: "SegmentHandle") -> None:
        with self._lock:
            if handle in self._lru:
                self._lru.move_to_end(handle)

    def _pin(self, handle: "SegmentHandle") -> None:
        with self._lock:
            handle.pin_count += 1

    def _unpin(self, handle: "SegmentHandle") -> None:
        with self._lock:
            handle.pin_count = max(0, handle.pin_count - 1)
        # A pin may have been the only thing holding residency over budget.
        self._enforce()

    def _record_map_fault(self) -> None:
        with self._lock:
            self._map_faults += 1

    def _record_materialised(self, degraded: bool) -> None:
        with self._lock:
            self._tables_materialised += 1
            self._tables_degraded += int(degraded)

    # -- eviction --------------------------------------------------------------
    def _enforce(self) -> None:
        """Evict unpinned LRU mappings until residency fits the budget."""
        with self._lock:
            if self._budget is not None:
                while self._resident_bytes > self._budget:
                    victim = next(
                        (h for h in self._lru if h.pin_count == 0), None
                    )
                    if victim is None:
                        break  # only pins remain: over budget, 'critical'
                    self._evict_locked(victim)
        self._notify()

    def _evict_locked(self, handle: "SegmentHandle") -> None:
        try:
            _faults.maybe_fire(_faults.active_plan(), "segment_evict")
        except _faults.InjectedFault:
            # An injected evict fault models bookkeeping trouble; the
            # invariant under test is *zero leaked mappings*, so the
            # logical drop still completes below and results are
            # untouched (the mapping was clean and read-only).
            self._evict_faults += 1
        self._lru.pop(handle, None)
        self._resident_bytes -= handle.nbytes
        handle._array = None
        self._evictions += 1

    def evict_all(self) -> int:
        """Drop every unpinned mapping (service ``close()``); returns count."""
        dropped = 0
        with self._lock:
            for handle in list(self._lru):
                if handle.pin_count == 0:
                    self._evict_locked(handle)
                    dropped += 1
        self._notify()
        return dropped

    def discard(self, handle: "SegmentHandle") -> None:
        """Forget a handle entirely (its table materialised or closed).

        Unlike eviction this ignores pins and does not fire the
        ``segment_evict`` site: the handle is leaving the residency domain,
        not being pressured out of it.
        """
        with self._lock:
            if handle in self._lru:
                self._lru.pop(handle)
                self._resident_bytes -= handle.nbytes
            handle._array = None
        self._notify()

    # -- pressure --------------------------------------------------------------
    def _compute_level(self) -> str:
        if self._budget is None:
            return "ok"
        if self._resident_bytes > self._budget:
            return "critical"
        if self._resident_bytes >= self.watermark * self._budget:
            return "high"
        return "ok"

    def _notify(self) -> None:
        with self._lock:
            level = self._compute_level()
            if level == self._level:
                return
            self._level = level
            callbacks = list(self._callbacks)
        for callback in callbacks:
            try:
                callback(level)
            except Exception:  # pragma: no cover - callbacks must not break serving
                pass


class SegmentHandle:
    """One durable column segment, mapped on first touch and LRU-evictable.

    Created by the lazy ``TableStore.open`` path after *header-only*
    validation (magic + header CRC + manifest identity) from what
    :func:`~repro.db.storage.segments.validate_segment_header` returned;
    the payload's full per-block CRC pass runs at map time, once per map,
    inside :func:`~repro.db.storage.segments.read_segment`.  ``pin_count``
    and ``ever_mapped`` are guarded by the owning manager's lock.
    """

    def __init__(
        self,
        path: str,
        entry: Mapping[str, Any],
        manager: ResidencyManager,
        *,
        column: str,
        header: Mapping[str, Any],
        payload_offset: int,
        breaker: Optional[CircuitBreaker] = None,
    ):
        self.path = str(path)
        self.entry = dict(entry)
        self.manager = manager
        self.column = column
        self.kind: str = header["kind"]
        self.dtype: Optional[str] = header.get("dtype")
        self.rows = int(header["rows"])
        self.payload_offset = int(payload_offset)
        self.payload_bytes = int(header["payload_bytes"])
        self.breaker = breaker
        self.pin_count = 0
        self.ever_mapped = False
        self.nbytes = 0
        self._array: Optional[np.ndarray] = None

    @property
    def is_resident(self) -> bool:
        return self._array is not None

    def array(self) -> np.ndarray:
        """The column array, faulting the segment in if it is not resident."""
        array = self._array
        if array is not None:
            self.manager._touch(self)
            return array
        return self._map()

    def _map(self) -> np.ndarray:
        plan = _faults.active_plan()
        last_error: Optional[BaseException] = None
        for _attempt in range(2):
            try:
                _faults.maybe_fire(plan, "segment_map")
                started = time.perf_counter()
                array = read_segment(
                    self.path, expected=self.entry, mmap=self.kind == "numpy"
                )
                elapsed = time.perf_counter() - started
            except CorruptSegmentError:
                # Bytes present but wrong: not a mapping problem, and not
                # retryable — surface typed, untouched by the breaker.  The
                # block-CRC pass that would have run at eager open time ran
                # here instead, so the storage counter still advances.
                from repro.db.storage.store import _count as _store_count

                _store_count("checksum_failures")
                raise
            except (_faults.InjectedFault, OSError) as exc:
                last_error = exc
                self.manager._record_map_fault()
                continue
            return self._install(array, elapsed)
        if self.breaker is not None:
            self.breaker.record_failure("segment_map")
        raise SegmentMapError(self.path, f"map failed after retry: {last_error}")

    def _install(self, array: np.ndarray, elapsed: float) -> np.ndarray:
        with self.manager._lock:
            if self._array is not None:
                # Lost a concurrent map race; serve the winner's array (the
                # duplicate map is garbage-collected, never charged).
                return self._array
            self._array = array
            # Object (pickled) columns report pointer bytes only; charge the
            # serialized payload size as the closer heap approximation.
            self.nbytes = (
                int(array.nbytes) if self.kind == "numpy" else self.payload_bytes
            )
        self.manager._register(self, elapsed)
        if self.breaker is not None:
            self.breaker.record_success()
        from repro.db.storage.store import _count as _store_count

        _store_count("segments_loaded")
        return array

    @contextmanager
    def pinned(self):
        """Hold the segment un-evictable for the duration of a span pass."""
        self.manager._pin(self)
        try:
            yield self
        finally:
            self.manager._unpin(self)

    def ensure_verified(self) -> None:
        """Map (and thereby full-CRC verify) the segment at least once."""
        if not self.ever_mapped:
            with self.pinned():
                self.array()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "resident" if self.is_resident else "cold"
        return f"SegmentHandle({self.column!r}, {state}, path={self.path!r})"


class LazySegmentTable(Table):
    """A :class:`Table` whose columns live in durable segments, mapped lazily.

    Built by the lazy ``TableStore.open`` path: construction validates
    headers only; the first touch of each column maps (and CRC-verifies)
    its segment through the :class:`ResidencyManager`.  Mapped arrays are
    *not* cached in ``_arrays`` — the handle owns residency, so eviction
    works — and nothing else of a column is kept beside its segment: cell
    reads (:meth:`~repro.db.table.Table.row`, ``value``, ``column_values``)
    read the mapped array, and bulk row reads gather it pinned.  Appends
    (journal replay, live ingest) first materialise the table in memory,
    as do repeated map failures once the per-table map breaker opens
    (graceful degradation: memory for liveness).  A checkpoint maps
    nothing: while the table is lazy its segment files are referenced by
    the new manifest as they are (``TableStore.save``), which is also what
    keeps them on disk under its handles; once materialised it is written
    from memory like any other table.
    """

    @classmethod
    def from_segments(
        cls,
        name: str,
        schema: Schema,
        handles: Mapping[str, SegmentHandle],
        num_rows: int,
        data_generation: int = 0,
        map_breaker: Optional[CircuitBreaker] = None,
        arrays: Optional[Mapping[str, np.ndarray]] = None,
    ) -> "LazySegmentTable":
        """A table over ``handles``, plus in-memory ``arrays`` for the rest.

        Every schema column needs a handle or an array: a table opened from
        disk has only handles, one derived by :meth:`with_column` holds its
        new column in memory beside its base's handles.
        """
        arrays = dict(arrays or {})
        missing = [c for c in schema.column_names if c not in handles and c not in arrays]
        if missing:
            raise SchemaMismatchError(f"missing segment handles for {missing}")
        for column, handle in handles.items():
            if handle.rows != int(num_rows):
                raise SchemaMismatchError(
                    f"column {column!r} segment holds {handle.rows} rows for a "
                    f"table of {num_rows} rows"
                )
        table = cls.__new__(cls)
        table.name = name
        table.schema = schema
        table._pending = {}
        table._num_rows = int(num_rows)
        table._data_generation = int(data_generation)
        table._arrays = arrays
        table._group_indexes = {}
        table._group_index_lock = threading.Lock()
        table._handles = dict(handles)
        table._materialise_lock = threading.Lock()
        table._map_breaker = map_breaker
        return table

    # -- residency surface -----------------------------------------------------
    @property
    def is_lazy(self) -> bool:
        """Whether any column is still served from a durable segment."""
        return bool(self._handles)

    @property
    def residency_manager(self) -> Optional[ResidencyManager]:
        for handle in self._handles.values():
            return handle.manager
        return None

    def segment_handle(self, column: str) -> Optional[SegmentHandle]:
        return self._handles.get(column)

    def durable_block(self, column: str) -> Optional[ColumnBlock]:
        """The committed segment of ``column`` for workers to map, or None.

        None unless the column is still served from a fixed-width
        (``numpy``-kind) segment.  The segment is full-CRC verified once
        (:meth:`SegmentHandle.ensure_verified`) before its coordinates are
        handed out; a map failure raises
        :class:`~repro.db.errors.SegmentMapError`.
        """
        handle = self._handles.get(column)
        if handle is None or column in self._arrays or handle.kind != "numpy":
            return None
        handle.ensure_verified()
        return ColumnBlock(
            path=os.path.abspath(handle.path),
            offset=handle.payload_offset,
            dtype=str(handle.dtype),
            length=handle.rows,
        )

    def _materialise(self, reason: str) -> None:
        """Copy every column into memory and leave the residency domain.

        Reads go through :func:`read_segment` directly (``mmap=False``, no
        ``segment_map`` site), so a persistent injected map fault cannot
        block the degrade path; the bytes are still full-CRC verified.
        """
        with self._materialise_lock:
            if not self._handles:
                return
            for column, handle in list(self._handles.items()):
                if column in self._arrays:
                    continue
                mapped = handle._array
                if mapped is not None:
                    array = np.array(mapped)  # own the bytes, drop the map
                else:
                    array = read_segment(
                        handle.path, expected=handle.entry, mmap=False
                    )
                array.setflags(write=False)
                self._arrays[column] = array
            manager = self.residency_manager
            for handle in self._handles.values():
                handle.manager.discard(handle)
            self._handles = {}
            # The table no longer stands for its files (it may be here
            # because they would not map): the next checkpoint writes it
            # from memory instead of referencing them.
            self._durable = None
        manager._record_materialised(degraded=reason == "map_breaker_open")

    # -- Table overrides -------------------------------------------------------
    def column_array(self, column: str, allow_hidden: bool = False) -> np.ndarray:
        column_def = self.schema.column(column)
        if column_def.hidden and not allow_hidden:
            raise ColumnNotFoundError(column, self.schema.visible_column_names)
        array = self._arrays.get(column)
        if array is not None:
            return array
        handle = self._handles.get(column)
        if handle is None:
            return super().column_array(column, allow_hidden=allow_hidden)
        try:
            return handle.array()
        except SegmentMapError:
            if (
                self._map_breaker is not None
                and self._map_breaker.state != CLOSED
            ):
                # Repeated map failures tripped the breaker: degrade the
                # whole table to rebuilt-in-memory operation and retry.
                self._materialise("map_breaker_open")
                return super().column_array(column, allow_hidden=allow_hidden)
            raise

    def gather_column(
        self,
        column: str,
        row_ids: Sequence[int],
        allow_hidden: bool = False,
    ) -> np.ndarray:
        handle = self._handles.get(column)
        if handle is None or column in self._arrays:
            return super().gather_column(column, row_ids, allow_hidden=allow_hidden)
        ids = np.asarray(row_ids, dtype=np.intp)
        with handle.pinned():
            array = self.column_array(column, allow_hidden=allow_hidden)
            return array[ids]  # fancy indexing copies: safe past eviction

    def with_column(
        self,
        column: Column,
        values: Sequence[Any],
        name: Optional[str] = None,
    ) -> Table:
        """A new table with one extra (or replaced) column, still lazy.

        The kept columns stay behind this table's segment handles — mapped
        on touch and evictable under the residency budget, for both tables
        — and only the new column is held in memory.  A table no longer
        lazy derives a plain :class:`~repro.db.table.Table`.
        """
        if not self._handles:
            return super().with_column(column, values, name)
        handles = {c: h for c, h in self._handles.items() if c != column.name}
        arrays = {
            c: a for c, a in self._arrays.items() if c != column.name and c not in handles
        }
        arrays[column.name] = self._new_column_array(column, values)
        return LazySegmentTable.from_segments(
            name or self.name,
            Schema([c for c in self.schema.columns if c.name != column.name] + [column]),
            handles,
            self._num_rows,
            map_breaker=self._map_breaker,
            arrays=arrays,
        )

    def _apply_append(self, delta: Dict[str, np.ndarray]) -> int:
        # Appends mutate; segments are immutable. Materialise first (journal
        # replay hits this; checkpointed tables have empty journals, so warm
        # restarts stay lazy).
        if self._handles:
            self._materialise("append")
        return super()._apply_append(delta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LazySegmentTable({self.name!r}, rows={self._num_rows}, "
            f"lazy_columns={len(self._handles)})"
        )


class LazyShardedTable(ShardedTable):
    """A :class:`ShardedTable` over :class:`LazySegmentTable` shards.

    Inherits the full sharded contract; the one override that matters is
    :meth:`gather_column`, which serves point gathers shard-at-a-time in
    *residency order* — resident shards first, then cold shards faulted in
    one at a time with their segment pinned for the duration of that
    shard's slice.  Results are scattered back by global row position, so
    the visit order (and therefore eviction history) is bitwise-invisible.
    """

    @property
    def residency_manager(self) -> Optional[ResidencyManager]:
        for shard in self._shards:
            manager = getattr(shard, "residency_manager", None)
            if manager is not None:
                return manager
        return None

    @property
    def is_lazy(self) -> bool:
        return any(getattr(shard, "is_lazy", False) for shard in self._shards)

    def _shard_resident(self, position: int, column: str) -> bool:
        shard = self._shards[position]
        handle = (
            shard.segment_handle(column)
            if isinstance(shard, LazySegmentTable)
            else None
        )
        return handle is None or handle.is_resident

    def gather_column(
        self,
        column: str,
        row_ids: Sequence[int],
        allow_hidden: bool = False,
    ) -> np.ndarray:
        column_def = self.schema.column(column)
        if column_def.hidden and not allow_hidden:
            raise ColumnNotFoundError(column, self.schema.visible_column_names)
        if column in self._arrays:
            return self._arrays[column][np.asarray(row_ids, dtype=np.intp)]
        ids = np.asarray(row_ids, dtype=np.intp)
        if ids.size == 0:
            return self._shards[0].gather_column(
                column, ids, allow_hidden=allow_hidden
            )
        positions = (
            np.searchsorted(self._offset_array, ids, side="right") - 1
        )
        # Spill-aware visit order: shards whose segment is already resident
        # first, then cold shards one at a time (each pinned by the shard's
        # own gather while its slice is read).
        order = sorted(
            np.unique(positions).tolist(),
            key=lambda p: (0 if self._shard_resident(p, column) else 1, p),
        )
        parts: Dict[int, np.ndarray] = {}
        for position in order:
            local = ids[positions == position] - self._offsets[position]
            parts[position] = self._shards[position].gather_column(
                column, local, allow_hidden=allow_hidden
            )
        if len(parts) == 1:
            return next(iter(parts.values()))
        try:
            dtype = np.result_type(*(part.dtype for part in parts.values()))
        except TypeError:
            # Mixed kinds across shard boundaries: preserve values as
            # objects, matching the sharded concatenation fallback.
            dtype = np.dtype(object)
        gathered = np.empty(ids.size, dtype=dtype)
        for position, part in parts.items():
            gathered[positions == position] = part
        return gathered

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LazyShardedTable({self.name!r}, rows={self._num_rows}, "
            f"columns={self.num_columns}, shards={self.num_shards})"
        )


def iter_column_spans(
    table: Table, column: str, allow_hidden: bool = False
):
    """Yield ``(start, stop, array)`` per shard, resident shards first.

    The shard-at-a-time replacement for whole-column scans
    (``column_array``) in order-independent reductions — per-span partial
    sums, distinct-value unions.  For a lazy sharded table each cold
    shard's segment faults in only while its span is being consumed and is
    evictable again as soon as the caller moves on; for monolithic or
    fully-resident tables this degenerates to one span.  Callers must be
    order-insensitive: spans arrive in residency order, not row order.
    """
    shards = getattr(table, "shards", None)
    if not shards:
        yield 0, table.num_rows, table.column_array(column, allow_hidden=allow_hidden)
        return
    spans = table.shard_spans()
    order = range(len(shards))
    if isinstance(table, LazyShardedTable):
        order = sorted(
            order, key=lambda p: (0 if table._shard_resident(p, column) else 1, p)
        )
    for position in order:
        start, stop = spans[position]
        yield start, stop, shards[position].column_array(
            column, allow_hidden=allow_hidden
        )
