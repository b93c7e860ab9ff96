"""Segment files: round trips, checksums, atomicity, memmap discipline."""

import os
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.db.errors import CorruptSegmentError
from repro.db.storage.segments import (
    SEGMENT_MAGIC,
    atomic_write_bytes,
    live_memmap_count,
    read_segment,
    validate_segment_header,
    write_segment,
)
from repro.resilience.faults import (
    ERROR,
    GARBAGE,
    FaultPlan,
    FaultRule,
    InjectedFault,
    fault_scope,
)


@pytest.mark.parametrize(
    "array",
    [
        np.arange(500, dtype=np.int64),
        np.linspace(-3.0, 9.0, 257),
        np.array([True, False, True] * 40),
        np.array(["ab", "c", "defg"] * 21),
        np.array([b"x", b"longer", b""] * 13),
    ],
    ids=["int64", "float64", "bool", "unicode", "bytes"],
)
def test_fixed_width_round_trip_is_bitwise(tmp_path, array):
    path = str(tmp_path / "col.seg")
    entry = write_segment(path, "col", array)
    loaded = read_segment(path, expected=entry)
    assert loaded.dtype == array.dtype
    assert np.array_equal(loaded, array)
    assert not loaded.flags.writeable


def test_object_column_round_trip(tmp_path):
    path = str(tmp_path / "obj.seg")
    values = np.empty(5, dtype=object)
    values[:] = ["a", 1, None, 2.5, ("t", 1)]
    entry = write_segment(path, "obj", values)
    assert entry["kind"] == "pickle"
    loaded = read_segment(path, expected=entry)
    assert loaded.dtype == object
    assert list(loaded) == list(values)


def test_fixed_width_read_is_a_memmap(tmp_path):
    path = str(tmp_path / "col.seg")
    entry = write_segment(path, "col", np.arange(1000))
    loaded = read_segment(path, expected=entry)
    assert isinstance(loaded, np.memmap)
    assert live_memmap_count() >= 1
    copied = read_segment(path, expected=entry, mmap=False)
    assert not isinstance(copied, np.memmap)
    assert np.array_equal(copied, loaded)
    del loaded, copied  # the autouse fixture asserts the count drains to 0


def test_bit_flip_fails_typed_with_block_location(tmp_path):
    path = str(tmp_path / "col.seg")
    write_segment(path, "col", np.arange(4096, dtype=np.int64), block_bytes=1024)
    data = bytearray(open(path, "rb").read())
    data[-7] ^= 0x10  # flip one payload bit in the last block
    open(path, "wb").write(bytes(data))
    with pytest.raises(CorruptSegmentError) as excinfo:
        read_segment(path)
    assert "checksum mismatch in block" in str(excinfo.value)


def test_truncated_segment_fails_typed(tmp_path):
    path = str(tmp_path / "col.seg")
    write_segment(path, "col", np.arange(100))
    data = open(path, "rb").read()
    open(path, "wb").write(data[: len(data) // 2])
    with pytest.raises(CorruptSegmentError):
        read_segment(path)


def test_not_a_segment_file_fails_typed(tmp_path):
    path = str(tmp_path / "col.seg")
    open(path, "wb").write(b"definitely not a segment file at all")
    with pytest.raises(CorruptSegmentError) as excinfo:
        read_segment(path)
    assert "bad magic" in str(excinfo.value)


def test_manifest_expectation_mismatch_fails_typed(tmp_path):
    """A self-consistent segment swapped in for another still fails."""
    path = str(tmp_path / "col.seg")
    entry = write_segment(path, "col", np.arange(50))
    write_segment(path, "col", np.arange(50) + 1)  # same rows, other payload
    with pytest.raises(CorruptSegmentError) as excinfo:
        read_segment(path, expected=entry)
    assert "manifest payload CRC mismatch" in str(excinfo.value)
    entry_other = dict(entry)
    entry_other["rows"] = 49
    with pytest.raises(CorruptSegmentError):
        read_segment(path, expected=entry_other)


def test_empty_column_round_trip(tmp_path):
    path = str(tmp_path / "empty.seg")
    entry = write_segment(path, "empty", np.empty(0, dtype=np.float64))
    loaded = read_segment(path, expected=entry)
    assert loaded.size == 0


def test_atomic_write_replaces_not_appends(tmp_path):
    path = str(tmp_path / "blob")
    atomic_write_bytes(path, b"first contents, quite long")
    atomic_write_bytes(path, b"second")
    assert open(path, "rb").read() == b"second"
    assert not os.path.exists(path + ".tmp")


def test_header_crc_table_covers_every_block(tmp_path):
    path = str(tmp_path / "col.seg")
    payload = np.arange(1024, dtype=np.int64)
    write_segment(path, "col", payload, block_bytes=1000)
    data = open(path, "rb").read()
    (header_len,) = struct.unpack_from("<Q", data, len(SEGMENT_MAGIC))
    import json

    header = json.loads(data[len(SEGMENT_MAGIC) + 8 : len(SEGMENT_MAGIC) + 8 + header_len])
    raw = payload.tobytes()
    assert len(header["block_crcs"]) == (len(raw) + 999) // 1000
    assert header["block_crcs"][0] == zlib.crc32(raw[:1000])


def _count_payload_crcs(monkeypatch, threshold=4096):
    """Record every ``zlib.crc32`` call over more than ``threshold`` bytes
    (a segment header's own CRC is a few hundred)."""
    calls = []
    real = zlib.crc32

    def counting(data, *args):
        if len(data) > threshold:
            calls.append(len(data))
        return real(data, *args)

    monkeypatch.setattr(zlib, "crc32", counting)
    return calls


def test_a_single_block_read_checksums_once_and_copies_nothing(tmp_path, monkeypatch):
    """A one-block payload's block CRC is its whole-payload CRC: one pass
    checks both, and a first map reads the header, not the payload, into
    memory — the checksum runs over the map it returns."""
    path = str(tmp_path / "col.seg")
    array = np.arange(50_000, dtype=np.int64)  # 400 KB, one 1 MiB block
    entry = write_segment(path, "col", array)
    calls = _count_payload_crcs(monkeypatch)
    tracemalloc.start()
    try:
        mapped = read_segment(path, expected=entry)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == [array.nbytes]
    assert peak < 64 << 10, peak
    assert isinstance(mapped, np.memmap) and np.array_equal(mapped, array)
    calls.clear()
    copied = read_segment(path, expected=entry, mmap=False)
    assert calls == [array.nbytes]
    assert np.array_equal(copied, array) and not copied.flags.writeable
    del mapped


def test_a_single_block_write_checksums_once(tmp_path, monkeypatch):
    """A one-block payload's block CRC is the manifest entry's CRC: the
    write computes it once (the multi-block path: every block, then the
    whole)."""
    array = np.arange(50_000, dtype=np.int64)
    calls = _count_payload_crcs(monkeypatch)
    entry = write_segment(str(tmp_path / "one.seg"), "col", array)
    assert calls == [array.nbytes]
    calls.clear()
    write_segment(str(tmp_path / "four.seg"), "col", np.arange(4096, dtype=np.int64),
                  block_bytes=8192)
    assert calls == [8192] * 4 + [32768]
    monkeypatch.undo()
    assert entry["crc"] == zlib.crc32(array.tobytes())
    header, _ = validate_segment_header(str(tmp_path / "one.seg"), expected=entry)
    assert header["block_crcs"] == [entry["crc"]]


@pytest.mark.parametrize(
    "array",
    [np.arange(3000, dtype=np.int64), np.array(["ab", "c"] * 40), np.arange(0),
     np.array(["a", 1, None], dtype=object)],
    ids=["int64", "unicode", "empty", "object"],
)
def test_a_torn_segment_write_leaves_the_first_half_of_its_bytes(tmp_path, array):
    """The ``segment_write`` site fires at the byte that halves the file."""
    whole = str(tmp_path / "whole.seg")
    write_segment(whole, "col", array)
    data = open(whole, "rb").read()
    torn = str(tmp_path / "torn.seg")
    with fault_scope(FaultPlan(seed=0, rules={"segment_write": FaultRule(ERROR, probability=1.0)})):
        with pytest.raises(InjectedFault):
            write_segment(torn, "col", array)
    assert not os.path.exists(torn)
    assert open(torn + ".tmp", "rb").read() == data[: len(data) // 2]
    os.remove(torn + ".tmp")


def test_a_multi_block_read_checks_blocks_and_the_manifest_crc(tmp_path, monkeypatch):
    path = str(tmp_path / "col.seg")
    entry = write_segment(path, "col", np.arange(4096, dtype=np.int64), block_bytes=8192)
    calls = _count_payload_crcs(monkeypatch)
    read_segment(path, expected=entry, mmap=False)
    assert calls == [8192] * 4 + [32768]
    write_segment(path, "col", np.arange(4096, dtype=np.int64) + 1, block_bytes=8192)
    for mmap in (True, False):
        with pytest.raises(CorruptSegmentError, match="manifest payload CRC mismatch"):
            read_segment(path, expected=entry, mmap=mmap)


@pytest.mark.parametrize("array", [np.arange(300), np.array(["a", 1, None], dtype=object)])
@pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "copy"])
def test_an_injected_read_flip_fails_in_the_first_block(tmp_path, array, mmap):
    path = str(tmp_path / "col.seg")
    entry = write_segment(path, "col", array)
    plan = FaultPlan(seed=0, rules={"segment_read": FaultRule(GARBAGE, probability=1.0)})
    with fault_scope(plan):
        with pytest.raises(CorruptSegmentError, match=r"checksum mismatch in block\(s\) \[0\]"):
            read_segment(path, expected=entry, mmap=mmap)
    assert np.array_equal(read_segment(path, expected=entry, mmap=mmap), array)
