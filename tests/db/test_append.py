"""Tests for incremental ingest: Table/ShardedTable appends and delta caches."""

import numpy as np
import pytest

from repro.db.errors import SchemaMismatchError
from repro.db.index import GroupIndex, MergedGroupIndex
from repro.db.sharding import ShardedTable
from repro.db.table import Table


def _columns(n, seed=11):
    rng = np.random.default_rng(seed)
    return {
        "grade": [f"g{int(v)}" for v in rng.integers(0, 4, n)],
        "is_good": [bool(v) for v in rng.random(n) < 0.4],
        "amount": [float(v) for v in rng.normal(size=n)],
    }


def _concat(a, b):
    return {name: a[name] + b[name] for name in a}


class TestTableAppend:
    def test_append_columns_extends_rows_and_generation(self):
        table = Table.from_columns("t", _columns(20), hidden_columns=["is_good"])
        delta = _columns(5, seed=99)
        assert table.data_generation == 0
        added = table.append_columns(delta)
        assert added == 5
        assert table.num_rows == 25
        assert table.data_generation == 1
        assert table.column_values("grade")[20:] == delta["grade"]
        assert table.shard_signature() == ("monolithic", 25, 1)

    def test_append_rows_round_trips(self):
        table = Table.from_columns("t", _columns(10), hidden_columns=["is_good"])
        rows = [
            {"grade": "g9", "is_good": True, "amount": 1.5},
            {"grade": "g0", "is_good": False, "amount": -2.0},
        ]
        assert table.append_rows(rows) == 2
        assert table.row(10, include_hidden=True) == rows[0]
        assert table.row(11, include_hidden=True) == rows[1]
        assert table.append_rows([]) == 0

    def test_append_validates_schema(self):
        table = Table.from_columns("t", _columns(10), hidden_columns=["is_good"])
        with pytest.raises(SchemaMismatchError):
            table.append_columns({"grade": ["g1"]})  # missing columns
        with pytest.raises(SchemaMismatchError):
            table.append_columns({**_columns(2), "extra": [1, 2]})
        with pytest.raises(SchemaMismatchError):
            bad = _columns(3)
            bad["grade"] = bad["grade"][:2]  # ragged
            table.append_columns(bad)
        # failed appends leave the table untouched
        assert table.num_rows == 10
        assert table.data_generation == 0

    def test_cached_column_array_is_extended_not_rebuilt(self):
        table = Table.from_columns("t", _columns(30), hidden_columns=["is_good"])
        before = table.column_array("amount")
        delta = _columns(4, seed=7)
        table.append_columns(delta)
        after = table.column_array("amount")
        assert after.size == 34
        assert not after.flags.writeable
        np.testing.assert_array_equal(after[:30], before)
        fresh = Table.from_columns(
            "f", _concat(_columns(30), delta), hidden_columns=["is_good"]
        )
        np.testing.assert_array_equal(after, fresh.column_array("amount"))

    def test_mixed_type_delta_falls_back_to_object_array(self):
        table = Table.from_columns("t", {"A": ["x", "y"]})
        assert table.column_array("A").dtype.kind == "U"
        table.append_columns({"A": [3]})
        array = table.column_array("A")
        assert array.dtype.kind == "O"
        assert array.tolist() == ["x", "y", 3]

    def test_cached_group_index_extended_in_place(self):
        table = Table.from_columns("t", _columns(40), hidden_columns=["is_good"])
        old_index = table.group_index("grade")
        builds = GroupIndex.builds_total
        extensions = GroupIndex.extensions_total
        delta = {"grade": ["g7", "g0"], "is_good": [True, False], "amount": [0.0, 1.0]}
        table.append_columns(delta)
        new_index = table.group_index("grade")
        assert new_index is not old_index
        assert GroupIndex.builds_total == builds  # no from-scratch rebuild
        assert GroupIndex.extensions_total == extensions + 1
        # the pre-append object still describes the pre-append table
        assert old_index.total_rows() == 40
        assert new_index.total_rows() == 42
        assert new_index.group_size("g7") == 1
        assert new_index.row_ids("g7").tolist() == [40]

    def test_empty_append_is_a_noop(self):
        table = Table.from_columns("t", _columns(5), hidden_columns=["is_good"])
        assert table.append_columns({name: [] for name in _columns(0)}) == 0
        assert table.data_generation == 0


class TestShardedAppend:
    def test_append_goes_to_mutable_tail(self):
        table = ShardedTable.from_columns(
            "s", _columns(20), hidden_columns=["is_good"], shard_rows=8
        )
        tail_before = table.shards[-1]
        table.append_columns(_columns(3, seed=3))
        assert table.num_rows == 23
        assert table.shards[-1] is tail_before  # still under the limit
        assert table.shards[-1].num_rows == 7
        assert table.shard_offsets == (0, 8, 16, 23)
        assert table.data_generation == 1

    def test_tail_seal_and_rechunk_boundary(self):
        table = ShardedTable.from_columns(
            "s", _columns(20), hidden_columns=["is_good"], shard_rows=8
        )
        # tail has 4 rows, limit 8: appending 21 rows forces a seal into
        # 8-row chunks with a fresh short tail.
        delta = _columns(21, seed=4)
        table.append_columns(delta)
        assert table.num_rows == 41
        assert all(shard.num_rows <= table.tail_shard_rows for shard in table.shards)
        assert table.shard_offsets == (0, 8, 16, 24, 32, 40, 41)
        # row order/content identical to the monolithic equivalent
        fresh = Table.from_columns(
            "m", _concat(_columns(20), delta), hidden_columns=["is_good"]
        )
        assert table.column_values("grade") == fresh.column_values("grade")
        assert [table.value(i, "grade") for i in range(41)] == fresh.column_values(
            "grade"
        )

    def test_merged_index_survives_append_and_seal_exactly(self):
        base = _columns(20)
        table = ShardedTable.from_columns(
            "s", base, hidden_columns=["is_good"], shard_rows=8
        )
        table.group_index("grade")  # warm the cache pre-append
        delta = _columns(21, seed=4)
        builds = GroupIndex.builds_total
        table.append_columns(delta)
        merged = table.group_index("grade")
        # append and seal maintain the one index; nothing is built again
        assert isinstance(merged, MergedGroupIndex)
        assert GroupIndex.builds_total == builds
        fresh = Table.from_columns(
            "m", _concat(base, delta), hidden_columns=["is_good"]
        ).group_index("grade")
        assert merged.values == fresh.values
        np.testing.assert_array_equal(merged.codes, fresh.codes)
        for value in fresh.values:
            np.testing.assert_array_equal(merged.row_ids(value), fresh.row_ids(value))
        assert merged.span_boundaries() == table.shard_offsets

    def test_sharded_signature_folds_generation(self):
        table = ShardedTable.from_columns(
            "s", _columns(16), hidden_columns=["is_good"], num_shards=2
        )
        before = table.shard_signature()
        table.append_columns(_columns(1, seed=1))
        after = table.shard_signature()
        assert before != after

    def test_append_rows_routes_through_tail(self):
        table = ShardedTable.from_columns(
            "s", _columns(10), hidden_columns=["is_good"], num_shards=2
        )
        table.append_rows([{"grade": "gz", "is_good": True, "amount": 0.5}])
        assert table.num_rows == 11
        assert table.value(10, "grade") == "gz"


class TestMergedIndexDegenerateLayouts:
    """MergedGroupIndex over empty, single-row and constant-column shards."""

    def _sharded(self, pieces):
        flat = [value for piece in pieces for value in piece]
        plain = Table.from_columns("m", {"A": flat})
        shards = [
            Table(name=f"m#shard{i}", schema=plain.schema, columns={"A": list(piece)})
            for i, piece in enumerate(pieces)
        ]
        sharded = ShardedTable(name="m", schema=plain.schema, shards=shards)
        return plain, sharded

    def _assert_equal(self, plain, sharded):
        reference = plain.group_index("A")
        merged = sharded.group_index("A")
        assert merged.values == reference.values
        np.testing.assert_array_equal(merged.codes, reference.codes)
        assert merged.group_sizes() == reference.group_sizes()
        for value in reference.values:
            np.testing.assert_array_equal(
                merged.row_ids(value), reference.row_ids(value)
            )

    def test_empty_shards_interleaved(self):
        plain, sharded = self._sharded([[], ["a", "b"], [], ["b", "c"], []])
        self._assert_equal(plain, sharded)
        assert sharded.num_shards == 5

    def test_all_shards_empty(self):
        plain, sharded = self._sharded([[], []])
        merged = sharded.group_index("A")
        assert merged.values == []
        assert merged.total_rows() == 0
        assert merged.label_counts([], [])[0].size == 0

    def test_single_row_shards(self):
        plain, sharded = self._sharded([["a"], ["b"], ["a"], ["c"]])
        self._assert_equal(plain, sharded)

    def test_constant_column_shard(self):
        plain, sharded = self._sharded([["k", "k", "k"], ["k", "k"], ["k"]])
        self._assert_equal(plain, sharded)
        merged = sharded.group_index("A")
        assert merged.num_groups == 1
        assert merged.group_size("k") == 6

    def test_degenerate_layout_survives_append(self):
        plain, sharded = self._sharded([[], ["a"], []])
        sharded.group_index("A")
        sharded.append_columns({"A": ["b", "a"]})
        fresh = Table.from_columns("f", {"A": ["a", "b", "a"]})
        merged = sharded.group_index("A")
        reference = fresh.group_index("A")
        assert merged.values == reference.values
        np.testing.assert_array_equal(merged.codes, reference.codes)
        for value in reference.values:
            np.testing.assert_array_equal(
                merged.row_ids(value), reference.row_ids(value)
            )
