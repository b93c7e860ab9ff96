"""Checksummed columnar segment files with crash-safe atomic writes.

One segment file holds one column of one (sealed or tail) shard.  The
layout is::

    MAGIC (8 bytes) | header length (uint64 LE) | JSON header | payload

The header carries the column name, row count, payload codec and the
**per-block CRC32 table** (one checksum per ``block_bytes`` slice of the
payload), so a bit flip anywhere in the payload is localised to a block and
surfaces as a typed :class:`~repro.db.errors.CorruptSegmentError` instead
of silently corrupted query answers.  Fixed-width columns (numeric,
boolean, fixed-width strings) are stored as raw array bytes and read back
as **read-only memmaps** — opening a 1M-row table touches headers and
checksums, not python lists.  Object-dtype columns (mixed-type or ragged
cells) are pickled whole; they have no fixed-width buffer to map.

Every write is crash-safe: bytes go to ``<file>.tmp``, are flushed and
fsynced, and only then atomically renamed over the final name.  A rename is
durable once its directory is fsynced: a record (:func:`atomic_write_bytes`)
syncs its directory itself; segments are group-committed — the caller syncs
the directory once (:func:`sync_directory`) after a commit's last segment
and before the record that names them.  A crash —
injected through the ``segment_write``/``manifest_write``/
``journal_append`` fault sites, which fire *mid-write*, after a partial
prefix — leaves at worst a torn ``.tmp`` file that recovery sweeps; the
committed file is never half-written.
"""

from __future__ import annotations

import json
import mmap as mmap_module
import os
import pickle
import struct
import weakref
import zlib
from typing import Any, Dict, Optional

import numpy as np

from repro.db.errors import CorruptSegmentError
from repro.resilience import faults as _faults

#: Segment file magic (8 bytes, versioned).
SEGMENT_MAGIC = b"RPSEG01\x00"

#: Default checksum block size (1 MiB).
DEFAULT_BLOCK_BYTES = 1 << 20

#: Dtype kinds stored as raw fixed-width bytes (memmappable).
_FIXED_KINDS = ("b", "i", "u", "f", "c", "U", "S", "V")

#: Live memmap arrays handed out by :func:`read_segment`, weakly held (keyed
#: by a monotonic token — ndarrays are unhashable): the moment the owning
#: table is garbage-collected the entry vanishes, so the test-suite leak
#: check can assert nothing dangles between tests.
_LIVE_MEMMAPS: "weakref.WeakValueDictionary[int, np.ndarray]" = (
    weakref.WeakValueDictionary()
)
_MEMMAP_TOKENS = iter(range(1 << 62))


def fixed_width(dtype: np.dtype) -> bool:
    """Whether ``dtype`` is stored as raw bytes (and can be memmapped)."""
    return dtype.kind in _FIXED_KINDS


def live_memmap_count() -> int:
    """How many segment-backed memmap arrays are still referenced."""
    return len(_LIVE_MEMMAPS)


def sync_directory(directory: str) -> None:
    """Make the renames already done in ``directory`` durable (one fsync of
    the directory; best-effort off-POSIX).

    A commit calls it once, after its last file's rename and before the
    record that names those files is written (group commit).
    """
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_and_rename(path: str, data: bytes, site: Optional[str]) -> None:
    """Write ``data`` to ``<path>.tmp``, fsync it and rename it over
    ``path``.  The directory is not synced.

    ``site`` names the fault-injection point fired *between* the first and
    second half of the payload — an ``error``/``crash`` rule there models a
    torn write: the temp file holds a valid-looking prefix, the final name
    still holds the previous committed bytes (or nothing), and recovery
    must cope with both.
    """
    half = len(data) // 2
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(data[:half])
        if site is not None:
            handle.flush()
            _faults.maybe_fire(_faults.active_plan(), site)
        handle.write(data[half:])
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def atomic_write_bytes(path: str, data: bytes, site: Optional[str] = None) -> None:
    """Write ``data`` to ``path`` crash-safely and durably: temp file, fsync,
    atomic rename, then one fsync of the directory.

    For a file that is its own commit — a manifest, a warm record, the
    journal's reset.  The ``site`` fault fires between the two halves of
    ``data`` (see :func:`_write_and_rename`).
    """
    _write_and_rename(path, data, site)
    sync_directory(os.path.dirname(path))


def _block_checksums(payload: bytes, block_bytes: int) -> list:
    return [
        zlib.crc32(payload[start : start + block_bytes])
        for start in range(0, max(len(payload), 1), block_bytes)
    ]


def write_segment(
    path: str,
    column: str,
    array: np.ndarray,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
) -> Dict[str, Any]:
    """Persist one column array as a checksummed segment file.

    Returns the manifest entry for the segment: file basename, codec, rows
    and the whole-payload CRC (the per-block CRC table lives in the segment
    header itself).  A payload of one block is checksummed once: its block
    CRC is the whole-payload CRC.  Fired through the ``segment_write`` fault
    site.

    The file is fsynced and renamed into place, but its directory is *not*
    synced: the rename is durable only once the caller syncs the directory
    (:func:`sync_directory`) — once per commit, after the commit's last
    segment and before the record naming them.  An export that is never
    durable (:mod:`repro.db.shm`) needs no sync at all.
    """
    array = np.asarray(array)
    if fixed_width(array.dtype):
        kind = "numpy"
        dtype = array.dtype.str
        payload = np.ascontiguousarray(array).tobytes()
    else:
        kind = "pickle"
        dtype = None
        payload = pickle.dumps(array.tolist(), protocol=4)
    block_crcs = _block_checksums(payload, block_bytes)
    whole = block_crcs[0] if len(block_crcs) == 1 else zlib.crc32(payload)
    header = {
        "column": column,
        "kind": kind,
        "dtype": dtype,
        "rows": int(array.shape[0]),
        "payload_bytes": len(payload),
        "block_bytes": int(block_bytes),
        "block_crcs": block_crcs,
    }
    header["header_crc"] = _header_crc(header)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    data = (
        SEGMENT_MAGIC
        + struct.pack("<Q", len(header_bytes))
        + header_bytes
        + payload
    )
    _write_and_rename(path, data, "segment_write")
    return {
        "file": os.path.basename(path),
        "kind": kind,
        "dtype": dtype,
        "rows": int(array.shape[0]),
        "crc": whole,
    }


def _header_crc(header: Dict[str, Any]) -> int:
    """CRC32 over the canonical JSON dump of ``header`` sans its own CRC."""
    body = {key: value for key, value in header.items() if key != "header_crc"}
    return zlib.crc32(json.dumps(body, sort_keys=True).encode("utf-8"))


def _parse_header(path: str, header_bytes: bytes) -> Dict[str, Any]:
    """Parse and CRC-verify a segment's JSON header bytes."""
    try:
        header = json.loads(header_bytes)
    except ValueError as exc:
        raise CorruptSegmentError(path, f"unparseable header: {exc}") from None
    stored = header.get("header_crc")
    if stored is not None and int(stored) != _header_crc(header):
        raise CorruptSegmentError(path, "header CRC mismatch")
    return header


#: Sanity cap for header lengths read from disk: a corrupted length field
#: must fail typed, not attempt a multi-gigabyte allocation.
_MAX_HEADER_BYTES = 64 << 20


def validate_segment_header(
    path: str, expected: Optional[Dict[str, Any]] = None
) -> "tuple[Dict[str, Any], int]":
    """Header-only validation: magic, header CRC, size and manifest identity.

    Reads the fixed prefix and the JSON header — never the payload — so a
    lazy :meth:`~repro.db.storage.store.TableStore.open` can establish a
    segment's identity in O(header) time and defer the full per-block CRC
    pass to first-touch map time (:func:`read_segment`).  ``expected`` is
    the manifest entry; row count, codec and dtype must agree (the payload
    CRC is deliberately *not* checked here — that is map-time work).
    Returns ``(header, payload_offset)``; the residency layer maps the
    payload at ``payload_offset`` later.
    """
    prefix_len = len(SEGMENT_MAGIC) + 8
    try:
        with open(path, "rb") as handle:
            prefix = handle.read(prefix_len)
            if len(prefix) < prefix_len:
                raise CorruptSegmentError(path, "truncated before header")
            if prefix[: len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
                raise CorruptSegmentError(path, "bad magic (not a segment file)")
            (header_len,) = struct.unpack_from("<Q", prefix, len(SEGMENT_MAGIC))
            if header_len > _MAX_HEADER_BYTES:
                raise CorruptSegmentError(
                    path, f"implausible header length {header_len}"
                )
            header_bytes = handle.read(int(header_len))
            file_size = os.fstat(handle.fileno()).st_size
    except FileNotFoundError:
        raise CorruptSegmentError(path, "segment file missing") from None
    if len(header_bytes) < int(header_len):
        raise CorruptSegmentError(path, "truncated header")
    header = _parse_header(path, header_bytes)
    payload_offset = prefix_len + int(header_len)
    if file_size != payload_offset + int(header["payload_bytes"]):
        raise CorruptSegmentError(
            path,
            f"file holds {file_size - payload_offset} payload bytes, header "
            f"says {header['payload_bytes']}",
        )
    if expected is not None:
        if int(expected["rows"]) != int(header["rows"]):
            raise CorruptSegmentError(
                path,
                f"manifest expects {expected['rows']} rows, segment holds "
                f"{header['rows']}",
            )
        if expected.get("kind") != header.get("kind") or (
            expected.get("dtype") or None
        ) != (header.get("dtype") or None):
            raise CorruptSegmentError(
                path,
                f"manifest expects kind={expected.get('kind')!r} "
                f"dtype={expected.get('dtype')!r}, segment holds "
                f"kind={header.get('kind')!r} dtype={header.get('dtype')!r}",
            )
    return header, payload_offset


def _verify_payload(
    path: str,
    payload: Any,
    header: Dict[str, Any],
    expected: Optional[Dict[str, Any]],
) -> None:
    """Check ``payload`` (bytes, or a ``uint8`` array over the payload)
    against the header's block CRCs and the manifest entry's whole CRC.

    A payload of one block has one CRC, which is also the whole-payload CRC:
    it is computed once and compared with both.
    """
    stored = [int(crc) for crc in header["block_crcs"]]
    block_bytes = int(header["block_bytes"])
    if len(payload) <= block_bytes:
        whole = zlib.crc32(payload)
        checksums = [whole]
    else:
        checksums = _block_checksums(payload, block_bytes)
        whole = None
    if checksums != stored:
        bad = [
            position
            for position, (fresh, kept) in enumerate(zip(checksums, stored))
            if fresh != kept
        ]
        raise CorruptSegmentError(
            path, f"checksum mismatch in block(s) {bad or 'trailing'}"
        )
    if expected is not None:
        if whole is None:
            whole = zlib.crc32(payload)
        if int(expected["crc"]) != whole:
            raise CorruptSegmentError(path, "manifest payload CRC mismatch")


def read_segment(
    path: str,
    expected: Optional[Dict[str, Any]] = None,
    mmap: bool = True,
) -> np.ndarray:
    """Validate and load one segment file as a read-only column array.

    The header is validated first (:func:`validate_segment_header`: magic,
    header CRC, file size, and ``expected`` — the manifest entry written by
    :func:`write_segment` — for rows, codec and dtype).  Every block CRC,
    and the manifest's whole-payload CRC, is then verified before any data
    is handed out, so a segment swapped for a different (but
    self-consistent) file still fails typed.  The payload is read once:
    fixed-width payloads come back as a read-only ``np.memmap`` that the
    checksums are computed over in place (``mmap=False`` reads the payload
    into the in-memory array it returns), pickled object payloads as an
    object array.

    The ``segment_read`` fault site fires here: a ``garbage`` rule models a
    bit flip (the checksum pass sees one corrupted byte and fails exactly
    as it would for real media corruption).
    """
    fired = _faults.maybe_fire(_faults.active_plan(), "segment_read")
    header, payload_offset = validate_segment_header(path, expected)
    size = int(header["payload_bytes"])
    rows = int(header["rows"])
    if header["kind"] == "numpy":
        dtype = np.dtype(header["dtype"])
        if rows * dtype.itemsize != size:
            raise CorruptSegmentError(
                path, f"{rows} rows of {dtype.str} cannot fill {size} payload bytes"
            )
        if mmap and size and fired != _faults.GARBAGE:
            try:
                array = np.memmap(
                    path, dtype=dtype, mode="r", offset=payload_offset, shape=(rows,)
                )
            except FileNotFoundError:
                raise CorruptSegmentError(path, "segment file missing") from None
            except ValueError:  # shorter than its header said when validated
                raise CorruptSegmentError(path, "truncated payload") from None
            _verify_payload(path, array.view(np.uint8), header, expected)
            # The check read every page; the caller may read few of them.
            # Unmapping them keeps the file's bytes out of this process's
            # resident set until a reader faults them back in from the cache.
            array._mmap.madvise(mmap_module.MADV_DONTNEED)
            _LIVE_MEMMAPS[next(_MEMMAP_TOKENS)] = array
            return array
        array = np.empty(rows, dtype=dtype)
        payload = array.view(np.uint8)
    else:
        payload = np.empty(size, dtype=np.uint8)
    try:
        with open(path, "rb") as handle:
            handle.seek(payload_offset)
            read = handle.readinto(payload)
    except FileNotFoundError:
        raise CorruptSegmentError(path, "segment file missing") from None
    if read != size:
        raise CorruptSegmentError(path, "truncated payload")
    if fired == _faults.GARBAGE and size:
        payload[0] ^= 0x40  # injected bit flip, before validation
    _verify_payload(path, payload, header, expected)
    if header["kind"] == "pickle":
        try:
            values = pickle.loads(payload)
        except Exception as exc:
            raise CorruptSegmentError(path, f"unpicklable payload: {exc}") from None
        array = np.empty(len(values), dtype=object)
        array[:] = values
    array.setflags(write=False)
    return array
