"""Shared resource-leak invariant for the test suite.

Generalises the resilience suite's export check: a test that crashes
workers, tears writes mid-segment or quarantines artifacts must still leave
the process (and its storage directory) clean —

* zero exported segment files, and an empty export directory on disk
  (:mod:`repro.db.shm`),
* zero still-referenced segment-backed memmap arrays (after a collection
  pass drops garbage tables),
* zero resident bytes and zero pinned segments across every live
  :class:`~repro.db.residency.ResidencyManager` (a lazy table whose
  manager outlives the test has leaked its mappings; in-flight pins must
  all have been released),
* zero ``.tmp`` files from interrupted atomic writes inside the directory
  under test.

Import :func:`assert_no_leaked_resources` from suite ``conftest.py``
autouse fixtures (``tests/resilience``, ``tests/storage``,
``tests/residency``, ``tests/core/test_process_executor.py``) so every
suite asserts the same invariant the same way.
"""

from __future__ import annotations

import gc
import glob
import os
from typing import List, Optional

from repro.db.residency import pinned_segments_total, resident_bytes_total
from repro.db.shm import (
    EXPORT_PREFIX,
    EXPORT_ROOT,
    exported_paths,
    exported_segment_count,
    release_exports,
)
from repro.db.storage.segments import live_memmap_count


def leaked_temp_files(directory: str) -> List[str]:
    """All ``.tmp`` files (torn atomic writes) under ``directory``."""
    stray: List[str] = []
    for root, _dirs, files in os.walk(directory):
        for filename in files:
            if filename.endswith(".tmp"):
                stray.append(os.path.join(root, filename))
    return stray


def exported_files() -> List[str]:
    """Every file on disk in this process's export directories."""
    pattern = os.path.join(EXPORT_ROOT, f"{EXPORT_PREFIX}{os.getpid()}-*", "*")
    return sorted(glob.glob(pattern))


def assert_no_leaked_resources(directory: Optional[str] = None) -> None:
    """Assert the process leaked no exported files, memmaps or temp files.

    ``directory`` (optional) is additionally swept for ``.tmp`` remnants —
    pass the storage directory a test wrote to.  Call from fixture
    teardown, after the test dropped its tables.
    """
    # Listed first: a finalizer running in between only removes files.
    tracked = set(exported_paths())
    untracked = set(exported_files()) - tracked
    assert not untracked, f"untracked files in the export directory: {sorted(untracked)}"
    release_exports()
    assert exported_segment_count() == 0, "leaked exported segment files"
    assert not exported_files(), f"export directory not empty: {exported_files()}"
    # Memmap handles are held by tables; a test's tables become garbage at
    # teardown but may await collection — sweep before judging.
    gc.collect()
    assert live_memmap_count() == 0, (
        f"{live_memmap_count()} segment memmap handle(s) still referenced"
    )
    assert pinned_segments_total() == 0, (
        f"{pinned_segments_total()} segment(s) still pinned after teardown"
    )
    assert resident_bytes_total() == 0, (
        f"{resident_bytes_total()} byte(s) of segment mappings still resident"
    )
    if directory is not None and os.path.isdir(directory):
        stray = leaked_temp_files(directory)
        assert not stray, f"leaked temp files from torn writes: {stray}"
