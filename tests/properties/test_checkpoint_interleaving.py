"""Property: any interleaving of appends, checkpoints and reopens writes
exactly what changed, and never loses a file something still reads.

One table lives through a drawn sequence of {append, checkpoint, reopen
eagerly, reopen lazily, ``evict_all``, checkpoint into a second directory}
beside an in-memory twin and a model of which shards are durable where.
After every step its cells are the twin's (read shard by shard, so a lazy
shard whose file a checkpoint deleted would fail to map); at every
checkpoint ``segments_written`` advances by exactly columns x shards the
model says that directory does not hold yet, every file the new manifest
names is present, and every ``.seg`` it does not name is gone.

The sequence also builds group indexes at drawn points — before appends,
between them, after a seal, right after an eager or a lazy reopen under a
budget smaller than one segment.  After every step each index the table
holds is the ``GroupIndex`` of a monolithic twin of the same rows (values,
codes, every row-id array, label counts), its spans are the table's shard
boundaries, and no shard holds an index of its own: a sharded table has one
index per column, maintained through append and seal, read a shard at a time
when it is built (nothing lands in ``ShardedTable._arrays``).
"""

import itertools
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.index import GroupIndex
from repro.db.residency import ResidencyManager
from repro.db.sharding import ShardedTable, shard_bounds
from repro.db.storage import TableStore, read_manifest, storage_counters
from repro.db.table import Table

_LIMIT = 8  # rows a tail shard may hold before it is sealed
_COLUMNS = 3


def _rows(start, stop):
    """Rows ``start..stop`` of the one infinite table every example draws from."""
    ids = range(start, stop)
    return {
        "A": [f"g{i % 3}" for i in ids],
        "n": list(ids),
        "f": [i % 2 == 0 for i in ids],
    }


def _cells(table):
    """Every column, read shard by shard through the arrays storage serves."""
    return {
        name: list(
            itertools.chain.from_iterable(
                shard.column_array(name, allow_hidden=True).tolist()
                for shard in getattr(table, "shards", [table])
            )
        )
        for name in table.schema.column_names
    }


def _assert_indexes_equal_the_monolithic_twins(table):
    """Every index ``table`` holds == ``GroupIndex`` over the same rows in one
    plain table; spans == shard boundaries; the shards hold no index."""
    rows = table.num_rows
    monolithic = Table.from_columns("ckpt", _rows(0, rows), hidden_columns=["f"])
    ids = np.arange(-1, rows + 1)  # one id off either end: counted by neither
    flags = ids % 3 == 0
    for (allow_hidden, column), index in table._group_indexes.items():
        reference = GroupIndex(monolithic, column, allow_hidden=allow_hidden)
        assert index.values == reference.values
        assert np.array_equal(index.codes, reference.codes)
        for held, expected in zip(index.items(), reference.items(), strict=True):
            assert held[0] == expected[0] and np.array_equal(held[1], expected[1])
        for held, expected in zip(
            index.label_counts(ids, flags), reference.label_counts(ids, flags)
        ):
            assert np.array_equal(held, expected)
        assert index.span_boundaries() == getattr(table, "shard_offsets", (0, rows))
    for shard in getattr(table, "shards", ()):
        assert not shard._group_indexes


class _Model:
    """Shard identities, and which of them each directory already holds.

    A shard gets a new identity whenever its rows change: the tail on every
    append, every chunk a seal cuts.  A table object knows what it has on
    disk only in directories it was loaded from or checkpointed into.
    """

    def __init__(self, rows, sharded):
        self._ids = itertools.count()
        self.sharded = sharded
        bounds = shard_bounds(rows, shard_rows=_LIMIT) if sharded else (0, rows)
        self.sizes = [stop - start for start, stop in zip(bounds, bounds[1:])]
        self.shards = [next(self._ids) for _ in self.sizes]
        self.durable = {}

    def append(self, rows):
        self.sizes[-1] += rows
        self.shards[-1] = next(self._ids)
        if self.sharded and self.sizes[-1] > _LIMIT:
            bounds = shard_bounds(self.sizes[-1], shard_rows=_LIMIT)
            chunks = [stop - start for start, stop in zip(bounds, bounds[1:])]
            self.sizes[-1:] = chunks
            self.shards[-1:] = [next(self._ids) for _ in chunks]

    def checkpoint(self, directory):
        """Segments the checkpoint must write; the directory then holds all."""
        missing = set(self.shards) - self.durable.get(directory, set())
        self.durable[directory] = set(self.shards)
        return _COLUMNS * len(missing)

    def reopened_from(self, directory):
        """A fresh table object: it knows the directory it came from only."""
        self.durable = {directory: self.durable[directory]}


_OPS = st.one_of(
    st.tuples(st.just("append"), st.integers(min_value=1, max_value=12)),
    st.tuples(st.just("checkpoint"), st.just(0)),
    st.tuples(st.just("checkpoint_second"), st.just(0)),
    st.tuples(st.just("reopen_eager"), st.just(0)),
    st.tuples(st.just("reopen_lazy"), st.sampled_from([None, 48, 4096])),
    st.tuples(st.just("evict_all"), st.just(0)),
    st.tuples(st.just("index"), st.sampled_from(["A", "n"])),
)


def _checkpoint(store, table, expected_writes):
    before = storage_counters()["segments_written"]
    store.save(table)
    assert storage_counters()["segments_written"] - before == expected_writes
    referenced = {
        entry["file"]
        for per_shard in read_manifest(store.manifest_path)["segments"].values()
        for entry in per_shard.values()
    }
    assert set(os.listdir(store.segments_dir)) == referenced


@settings(max_examples=60, deadline=None)
@given(
    sharded=st.booleans(),
    base_rows=st.integers(min_value=1, max_value=30),
    ops=st.lists(_OPS, max_size=12),
)
def test_interleaved_checkpoints_write_what_changed_and_lose_nothing(
    sharded, base_rows, ops
):
    with tempfile.TemporaryDirectory() as root:
        first = TableStore(os.path.join(root, "first"))
        second = TableStore(os.path.join(root, "second"))
        build = ShardedTable.from_columns if sharded else Table.from_columns
        layout = {"shard_rows": _LIMIT} if sharded else {}
        table = build("ckpt", _rows(0, base_rows), hidden_columns=["f"], **layout)
        twin = build("ckpt", _rows(0, base_rows), hidden_columns=["f"], **layout)
        model = _Model(base_rows, sharded)
        manager = None
        second_cells = None
        _checkpoint(first, table, model.checkpoint("first"))

        for op, argument in ops:
            if op == "append":
                delta = _rows(twin.num_rows, twin.num_rows + argument)
                first.append(table, delta)  # journalled in the first directory
                twin.append_columns(delta)
                model.append(argument)
            elif op == "checkpoint":
                _checkpoint(first, table, model.checkpoint("first"))
            elif op == "checkpoint_second":
                _checkpoint(second, table, model.checkpoint("second"))
                second_cells = _cells(twin)
            elif op in ("reopen_eager", "reopen_lazy"):
                if manager is not None:
                    manager.evict_all()
                manager = (
                    ResidencyManager(budget_bytes=argument)
                    if op == "reopen_lazy"
                    else None
                )
                table, report = first.open(residency=manager)
                assert not report.rebuilt_from_source and not report.quarantined
                model.reopened_from("first")
            elif op == "index":
                whole_columns = set(table._arrays)
                table.group_index(argument)
                if sharded:  # built a shard at a time, lazily opened or not
                    assert set(table._arrays) == whole_columns
            elif manager is not None:  # evict_all
                manager.evict_all()
            assert table.shard_signature() == twin.shard_signature()
            assert _cells(table) == _cells(twin)
            _assert_indexes_equal_the_monolithic_twins(table)

        # Both directories open as what was last committed to them (plus,
        # in the first, the journalled appends since).
        assert _cells(first.open()[0]) == _cells(twin)
        if second_cells is not None:
            assert _cells(second.open()[0]) == second_cells
        del table
        if manager is not None:
            manager.evict_all()
            assert manager.resident_bytes == 0
            assert manager.pinned_segments == 0
