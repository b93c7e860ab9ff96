"""Segment files as the one way process-pool workers read table columns.

Shipping column arrays through pickle per task would erase the parallel win
of :mod:`repro.core.procpool`, so every column a worker reads is a segment
file (:mod:`repro.db.storage.segments`) that the worker ``np.memmap``\\ s once
and reuses for every later task.

*Parent side* — :func:`export_table_spans` chooses per ``(shard, column)``:
a shard served from a committed fixed-width segment
(:meth:`~repro.db.residency.LazySegmentTable.durable_block`) hands out that
file; every other one is written once with
:func:`~repro.db.storage.segments.write_segment` into this process's export
directory (on ``/dev/shm`` where it exists) and cached by the shard's
``data_generation``.  A written file goes away when its shard is collected,
when the shard's generation advances, at :func:`release_exports`, and with
the whole directory at exit.  A SIGKILLed process runs no exit hook, so
creating an export directory first removes every ``repro-exports-*``
directory that no live process holds locked.  Each process holds an
exclusive ``flock`` on its own directory for as long as the directory
exists; that judges liveness across PID namespaces sharing ``/dev/shm``
(containers of one pod) and across PID reuse, which a pid check cannot.

*Worker side* — :func:`attach_array` caches maps by path.  File names are
never reused within a process and committed segments are immutable at a
given path, so a cached map never goes stale; but a map holds its file's
pages after the parent removes the file (an append rewrites the tail
shard's exports), so a map miss first drops the cached maps whose file is
gone.  Workers remove no file.
"""

from __future__ import annotations

import atexit
import fcntl
import itertools
import os
import shutil
import tempfile
import threading
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.db.errors import DatabaseError, SegmentMapError
from repro.db.storage.segments import fixed_width, write_segment
from repro.db.table import Table
from repro.resilience import faults as _faults

#: Where export directories live: tmpfs where the platform has one.
EXPORT_ROOT = "/dev/shm" if os.access("/dev/shm", os.W_OK) else tempfile.gettempdir()
EXPORT_PREFIX = "repro-exports-"


class UnshareableColumnError(DatabaseError):
    """A column's dtype has no fixed-width buffer a worker could map."""

    def __init__(self, column: str, dtype: object):
        self.column = column
        self.dtype = dtype
        super().__init__(f"column {column!r} has dtype {dtype}: no fixed-width buffer to map")


@dataclass(frozen=True)
class ColumnBlock:
    """One column of one row span: the payload of a segment file.

    ``path`` is a durable table's committed segment or a file this process
    wrote into its export directory; the payload starts at byte ``offset``.
    """

    path: str
    offset: int
    #: ``numpy.dtype.str`` — fixed-width, endianness included.
    dtype: str
    length: int


@dataclass(frozen=True)
class SpanExport:
    """Column blocks for the row span ``[start, stop)``, by column name.

    Row ``row_id`` lives at position ``row_id - start`` of every block.  It
    pickles into worker task payloads by path, never by array bytes.
    """

    start: int
    stop: int
    columns: Dict[str, ColumnBlock]


@dataclass
class _OwnerExports:
    """The files written for one table/shard object at one generation."""

    generation: int
    finalizer: weakref.finalize
    blocks: Dict[str, ColumnBlock] = field(default_factory=dict)


#: id(owner) → its written files.  Identity keys are safe: the finalizer
#: removes the entry when the owner dies, before its id can be reused.  The
#: lock is re-entrant because a finalizer may run inside a locked section.
_EXPORTS: Dict[int, _OwnerExports] = {}
_LOCK = threading.RLock()
_FILE_NUMBERS = itertools.count()
_directory: Optional[str] = None
#: An open descriptor of ``_directory`` holding its ``flock``.
_directory_fd: Optional[int] = None


def _remove(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _release_owner(owner_id: int) -> int:
    with _LOCK:
        entry = _EXPORTS.pop(owner_id, None)
    if entry is None:
        return 0
    entry.finalizer.detach()
    for block in entry.blocks.values():
        _remove(block.path)
    return len(entry.blocks)


def release_exports(table: Optional[Table] = None) -> int:
    """Remove written files (one table's shards', or all of them).

    Returns the number of files removed.  Without ``table`` the export
    directory goes too, and the next export creates a fresh one; registered
    with ``atexit``.
    """
    global _directory, _directory_fd
    with _LOCK:
        if table is not None:
            shards = getattr(table, "shards", None) or [table]
            return sum(_release_owner(id(shard)) for shard in shards)
        released = sum(_release_owner(owner_id) for owner_id in list(_EXPORTS))
        if _directory is not None:
            shutil.rmtree(_directory, ignore_errors=True)
            os.close(_directory_fd)  # drops the lock
            _directory = _directory_fd = None
    return released


atexit.register(release_exports)


def _lock(path: str) -> int:
    """An open descriptor of directory ``path`` holding its ``flock``.

    Raises :class:`OSError` (``BlockingIOError`` when a live process holds
    the lock).
    """
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        os.close(fd)
        raise
    return fd


def _create_directory() -> Tuple[str, int]:
    """Sweep dead processes' export directories, then create this one's.

    The directory is locked under a hidden name and only then renamed to
    its ``repro-exports-`` name, so a concurrent sweep never sees it
    unlocked.  The lock lives on the directory's inode and survives the
    rename.
    """
    for name in os.listdir(EXPORT_ROOT):
        if name.startswith(EXPORT_PREFIX):
            path = os.path.join(EXPORT_ROOT, name)
            try:
                fd = _lock(path)
            except OSError:  # held by a live process, or already gone
                continue
            shutil.rmtree(path, ignore_errors=True)
            os.close(fd)
    hidden = tempfile.mkdtemp(prefix=f".{EXPORT_PREFIX}{os.getpid()}-", dir=EXPORT_ROOT)
    fd = _lock(hidden)
    path = os.path.join(EXPORT_ROOT, os.path.basename(hidden)[1:])
    os.rename(hidden, path)
    return path, fd


def _write_column(owner: Table, column: str) -> ColumnBlock:
    """Write one column of ``owner`` into a new file in the export directory."""
    global _directory, _directory_fd
    array = owner.column_array(column, allow_hidden=True)
    if not fixed_width(array.dtype):
        raise UnshareableColumnError(column, array.dtype)
    with _LOCK:
        if _directory is None:
            _directory, _directory_fd = _create_directory()
        path = os.path.join(_directory, f"{next(_FILE_NUMBERS)}.seg")
    try:
        write_segment(path, column, array)
    except BaseException:
        _remove(f"{path}.tmp")  # a torn write leaves its temp file behind
        raise
    # The raw payload ends the file: its offset is what precedes it.
    offset = os.path.getsize(path) - array.nbytes
    return ColumnBlock(path=path, offset=offset, dtype=array.dtype.str, length=len(array))


def _export_column(owner: Table, column: str) -> ColumnBlock:
    durable_block = getattr(owner, "durable_block", None)  # lazy durable shards
    block = None if durable_block is None else durable_block(column)
    if block is not None:
        return block
    with _LOCK:
        entry = _EXPORTS.get(id(owner))
        if entry is not None and entry.generation != owner.data_generation:
            _release_owner(id(owner))  # the owner mutated: its files are stale
            entry = None
        if entry is None:
            finalizer = weakref.finalize(owner, _release_owner, id(owner))
            entry = _EXPORTS[id(owner)] = _OwnerExports(owner.data_generation, finalizer)
        block = entry.blocks.get(column)
    if block is not None:
        return block
    written = _write_column(owner, column)  # outside the lock: one file write
    with _LOCK:
        current = _EXPORTS.get(id(owner)) is entry
        block = entry.blocks.setdefault(column, written) if current else None
    if block is not written:  # lost a race with another export or a release
        _remove(written.path)
    if block is None:
        raise SegmentMapError(written.path, "released while being written")
    return block


def export_table_spans(table: Table, columns: Sequence[str]) -> Tuple[SpanExport, ...]:
    """A :class:`SpanExport` of ``columns`` per shard span of ``table``.

    A monolithic table is one span ``[0, num_rows)``.  Raises
    :class:`UnshareableColumnError` for an object-dtype column,
    :class:`~repro.db.errors.SegmentMapError` for a committed segment that
    will not map, and whatever writing a file raises.
    """
    shards: Optional[List[Table]] = getattr(table, "shards", None)
    if shards:
        spans = table.shard_spans()  # type: ignore[attr-defined]
    else:
        shards = [table]
        spans = [(0, table.num_rows)]
    return tuple(
        SpanExport(start, stop, {column: _export_column(shard, column) for column in columns})
        for shard, (start, stop) in zip(shards, spans)
    )


def exported_paths() -> List[str]:
    """Every file this process has written for workers and not removed."""
    with _LOCK:
        return [block.path for entry in _EXPORTS.values() for block in entry.blocks.values()]


def exported_segment_count() -> int:
    """How many files this process has written for workers and not removed."""
    return len(exported_paths())


#: Worker side: path → read-only memmap of that file's payload.
_ATTACHED: Dict[str, np.ndarray] = {}


def _forget_removed_files() -> None:
    """Drop the cached maps of files that no longer exist: one ``stat`` per
    cached path, so removed files' pages are freed and the cache stays
    bounded by the live files under churn."""
    for path in list(_ATTACHED):
        if not os.path.exists(path):
            _ATTACHED.pop(path, None)


def attach_array(block: ColumnBlock) -> np.ndarray:
    """Map ``block`` (once per process) and return its read-only array.

    The ``segment_map`` fault site fires before each map; any failure is
    raised as :class:`~repro.db.errors.SegmentMapError`, which the executor
    retries once and then serves in-process.
    """
    mapped = _ATTACHED.get(block.path)
    if mapped is None:
        _forget_removed_files()
        try:
            _faults.maybe_fire(_faults.active_plan(), "segment_map")
            mapped = np.memmap(
                block.path, dtype=block.dtype, mode="r", offset=block.offset, shape=(block.length,)
            )
        except Exception as exc:
            raise SegmentMapError(block.path, str(exc)) from None
        _ATTACHED[block.path] = mapped
    return mapped
